import json

import pytest

from continuantlab.cli import run
from continuantlab.modular import CLOSURE_Q_CAP
from continuantlab.qmc import read_points_csv, star_discrepancy, zn_points


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_dimension_subcommand(capsys):
    code, doc = run_json(capsys, ["dimension", "--alphabet", "1,2"])
    assert code == 0
    assert abs(doc["delta"] - 0.5312805062772051) < 1e-10
    assert doc["nodes"] == 64
    assert "seconds" in doc


def test_cf_subcommand(capsys):
    code, doc = run_json(capsys, ["cf", "--b", "3523", "--d", "4547"])
    assert code == 0
    assert doc["word"] == [1, 3, 2, 3, 1, 2, 3, 2, 1, 3]
    assert doc["matrix"][1] == 3523 and doc["matrix"][3] == 4547


def test_exceptions_subcommand(capsys):
    code, doc = run_json(capsys, ["exceptions", "--alphabet", "1,2,3,4",
                                  "--N", "200"])
    assert code == 0
    assert doc["exceptions"] == [6, 54, 150]


def test_enumerate_writes_deterministic_csv(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code = run(["enumerate", "--alphabet", "1,2", "--N", "100",
                    "--out", str(out), "--seed", "7"])
        capsys.readouterr()
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("# continuantlab")
    assert lines[1].startswith("# config:")
    assert lines[2] == "# seed: 7"
    assert lines[3] == "b,d,word"


def test_modular_subcommands(capsys):
    code, doc = run_json(capsys, ["modular", "closure", "--alphabet",
                                  "2,4,6,8,10", "--q", "4"])
    assert code == 0
    assert doc["attainable_d"] == [0, 1, 2]
    code, doc = run_json(capsys, ["modular", "nu", "--q", "2", "--a", "1"])
    assert code == 0
    assert abs(doc["re"] + 1 / 3) < 1e-12
    code, doc = run_json(capsys, ["modular", "sseries", "--n", "1",
                                  "--P", "1000"])
    assert code == 0
    assert abs(doc["value"] - 1.6449) < 1e-2
    code, doc = run_json(capsys, ["modular", "admissible", "--alphabet",
                                  "2,4,6,8,10", "--d", "7", "--qmax", "10"])
    assert doc["admissible"] is False and doc["witness"] == 4


def test_qmc_roundtrip(tmp_path, capsys):
    pts_path = tmp_path / "points.csv"
    code = run(["qmc", "zn", "--b", "21", "--d", "55", "--out", str(pts_path)])
    capsys.readouterr()
    assert code == 0
    code, doc = run_json(capsys, ["qmc", "disc", "--in", str(pts_path)])
    assert code == 0
    want = star_discrepancy(zn_points(21, 55))
    assert abs(doc["star_discrepancy"] - want) < 1e-12


def test_qmc_disc_sampled_uses_seed(tmp_path, capsys):
    pts_path = tmp_path / "points.csv"
    run(["qmc", "zn", "--b", "3523", "--d", "4547", "--out", str(pts_path)])
    capsys.readouterr()
    ps = read_points_csv(pts_path)
    code, doc = run_json(capsys, ["qmc", "disc", "--in", str(pts_path),
                                  "--method", "sampled", "--seed", "1"])
    assert code == 0
    assert doc["star_discrepancy"] == star_discrepancy(ps, method="sampled", seed=1)
    assert doc["star_discrepancy"] != star_discrepancy(ps, method="sampled", seed=0)


def test_ensemble_subcommand(capsys):
    code, doc = run_json(capsys, ["ensemble", "--alphabet", "1,2",
                                  "--N", "100000", "--sample", "50"])
    assert code == 0
    assert doc["all_invariants_ok"] is True
    assert 0.25 < doc["scale_product_over_N"] < 4


def test_expsum_subcommand(tmp_path, capsys):
    out = tmp_path / "arcs.csv"
    code, doc = run_json(capsys, ["expsum", "profile", "--alphabet", "1,2",
                                  "--N", "10000", "--Q", "8", "--K", "4",
                                  "--out", str(out)])
    assert code == 0
    assert doc["n_windows"] > 0 and doc["integral"] >= 0
    assert out.read_text().splitlines()[3].startswith("Q,K,")


def test_repro_fig7(tmp_path, capsys):
    code = run(["repro", "fig7", "--N", "300", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    mult = (tmp_path / "fig7_mult.csv").read_text().splitlines()
    norm = (tmp_path / "fig7_normalized.csv").read_text().splitlines()
    assert any(line == "d,count" for line in mult)
    assert any(line.startswith("d,count,normalized") for line in norm)


def test_repro_fig2(tmp_path, capsys):
    code = run(["repro", "fig2", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    rows = [l for l in (tmp_path / "fig2_points.csv").read_text().splitlines()
            if not l.startswith("#") and l != "x,y"]
    assert len(rows) == 4547


def test_exit_codes(tmp_path, capsys):
    assert run(["exceptions", "--alphabet", "0,1", "--N", "100"]) == 2
    assert run(["modular", "closure", "--alphabet", "1,2", "--q", "99999"]) == 3
    assert run(["modular", "closure", "--alphabet", "1,2",
                "--q", str(CLOSURE_Q_CAP + 1)]) == 3
    assert run(["modular", "admissible", "--alphabet", "1,2", "--d", "7",
                "--qmax", "144"]) == 3  # sum of q^2 over q <= 144 exceeds the cap^2
    assert run(["bogus"]) == 2          # argparse usage error
    assert run(["dimension", "--alphabet", "1,2", "--bogus-flag"]) == 2
    # flags a subcommand would ignore are not accepted
    assert run(["dimension", "--alphabet", "1,2", "--threads", "2"]) == 2
    good, missing = tmp_path / "good.csv", tmp_path / "missing.csv"
    good.write_text("x,y\n0.5,0.25\n")
    assert run(["qmc", "disc", "--in", str(good), "--out", str(tmp_path / "x")]) == 2
    # an unreadable --in file is an input error, not a traceback
    assert run(["qmc", "disc", "--in", str(missing)]) == 2
    for i, bad in enumerate(("x,y\n0.5,0.25,0.125\n", "x,y\nnot,numbers\n")):
        malformed = tmp_path / f"malformed{i}.csv"
        malformed.write_text(bad)
        assert run(["qmc", "disc", "--in", str(malformed)]) == 2
    capsys.readouterr()


def test_dimension_out_file_has_no_timing(tmp_path, capsys):
    out = tmp_path / "dim.json"
    run(["dimension", "--alphabet", "1,3", "--out", str(out)])
    shown = json.loads(capsys.readouterr().out)
    stored = json.loads(out.read_text())
    assert "seconds" in shown
    assert "seconds" not in stored["result"]
    assert abs(stored["result"]["delta"] - 0.4544890776618) < 1e-9


def test_threads_do_not_enter_files(tmp_path, capsys):
    outs = []
    for threads in (1, 2):
        orbit, mult = tmp_path / f"orbit{threads}.csv", tmp_path / f"mult{threads}.csv"
        code = run(["enumerate", "--alphabet", "1,2", "--N", "300",
                    "--out", str(orbit), "--mult-out", str(mult),
                    "--threads", str(threads)])
        capsys.readouterr()
        assert code == 0
        outs.append((orbit.read_bytes(), mult.read_bytes()))
    assert outs[0] == outs[1]
    assert b"threads" not in outs[0][1]
