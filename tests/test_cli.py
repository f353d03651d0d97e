import json
import os
import subprocess
import sys

import pytest

import continuantlab
from continuantlab import cfcore, cli, qmc
from continuantlab.cli import run
from continuantlab.modular import CLOSURE_Q_CAP
from continuantlab.qmc import (EXACT_POINT_CAP, read_points_csv, star_discrepancy,
                               zn_points)


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


def test_exit_codes(tmp_path, capsys, monkeypatch):
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
    assert run(["enumerate", "--alphabet", "1,2", "--N", "50", "--threads", "2"]) == 2
    # no prefix matching: --out is not --out-dir, --mult is not --mult-out
    assert run(["repro", "fig7", "--N", "50", "--out", str(tmp_path / "X")]) == 2
    assert run(["enumerate", "--alphabet", "1,2", "--N", "50",
                "--mult", str(tmp_path / "m.csv")]) == 2
    assert not (tmp_path / "X").exists() and not (tmp_path / "m.csv").exists()
    # only fig7 and fig8 read --N; the other figures refuse it before writing
    for fig in ("fig2", "fig3", "fig5", "fig6"):
        assert run(["repro", fig, "--N", "10", "--out-dir", str(tmp_path / "figs")]) == 2
    assert not (tmp_path / "figs").exists()
    good, missing = tmp_path / "good.csv", tmp_path / "missing.csv"
    good.write_text("x,y\n0.5,0.25\n")
    assert run(["qmc", "disc", "--in", str(good), "--out", str(tmp_path / "x")]) == 2
    # an unreadable --in file is an input error, not a traceback
    assert run(["qmc", "disc", "--in", str(missing)]) == 2
    for i, bad in enumerate(("x,y\n0.5,0.25,0.125\n", "x,y\nnot,numbers\n")):
        malformed = tmp_path / f"malformed{i}.csv"
        malformed.write_text(bad)
        assert run(["qmc", "disc", "--in", str(malformed)]) == 2
    # one point over the exact cap is refused before the sweep starts
    n = EXACT_POINT_CAP + 1
    big = tmp_path / "big.csv"
    big.write_text("x,y\n" + "".join(f"{i / n!r},{7 * i % n / n!r}\n" for i in range(n)))

    def no_sweep(x, y):
        raise AssertionError("the exact sweep started above the cap")

    monkeypatch.setattr(qmc, "_exact_discrepancy", no_sweep)
    assert run(["qmc", "disc", "--in", str(big)]) == 3
    # a frontier level over the element cap: fiber counts, orbit points
    # (refused before the file is opened) and the ensemble
    monkeypatch.setattr(cfcore, "FRONTIER_CAP", 1000)
    assert run(["exceptions", "--alphabet", "1,2,3,4", "--N", "3000"]) == 3
    orbit_csv = tmp_path / "orbit.csv"
    assert run(["enumerate", "--alphabet", "1,2,3,4", "--N", "3000",
                "--out", str(orbit_csv)]) == 3
    assert not orbit_csv.exists()
    assert run(["ensemble", "--alphabet", "1,2", "--N", "100000000"]) == 3
    capsys.readouterr()


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported only by the chirp-z path of expsum._sn_uniform_grid
    src = os.path.dirname(os.path.dirname(continuantlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, continuantlab.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"


def test_dimension_out_file_has_no_timing(tmp_path, capsys):
    out = tmp_path / "dim.json"
    run(["dimension", "--alphabet", "1,3", "--out", str(out)])
    shown = json.loads(capsys.readouterr().out)
    stored = json.loads(out.read_text())
    assert "seconds" in shown
    assert "seconds" not in stored["result"]
    assert abs(stored["result"]["delta"] - 0.4544890776618) < 1e-9


def test_enumerate_files_are_byte_identical(tmp_path, capsys):
    outs, docs = [], []
    for i in range(2):
        orbit, mult = tmp_path / f"orbit{i}.csv", tmp_path / f"mult{i}.csv"
        code, doc = run_json(capsys, ["enumerate", "--alphabet", "1,2", "--N", "300",
                                      "--out", str(orbit), "--mult-out", str(mult)])
        assert code == 0
        outs.append((orbit.read_bytes(), mult.read_bytes()))
        docs.append(doc)
    assert outs[0] == outs[1]
    # without --out the points are counted, not formed: same count, same table
    mult = tmp_path / "mult_only.csv"
    code, doc = run_json(capsys, ["enumerate", "--alphabet", "1,2", "--N", "300",
                                  "--mult-out", str(mult)])
    assert code == 0
    assert doc["n_points"] == docs[0]["n_points"] == len(outs[0][0].splitlines()) - 4
    assert mult.read_bytes() == outs[0][1]


# every subcommand once, small; "{tmp}" is the test's directory
EVERY_COMMAND = [
    ["cf", "--b", "21", "--d", "55"],
    ["enumerate", "--alphabet", "1,2", "--N", "100"],
    ["exceptions", "--alphabet", "1,2,3,4", "--N", "200"],
    ["dimension", "--alphabet", "1,2", "--nodes", "32"],
    ["ensemble", "--alphabet", "1,2", "--N", "100000", "--sample", "20"],
    ["modular", "closure", "--alphabet", "1,2", "--q", "6"],
    ["modular", "sseries", "--n", "6", "--P", "100"],
    ["modular", "nu", "--q", "5", "--a", "2"],
    ["modular", "admissible", "--alphabet", "1,2", "--d", "7", "--qmax", "10"],
    ["qmc", "zn", "--b", "21", "--d", "55", "--out", "{tmp}/zn.csv"],
    ["qmc", "disc", "--in", "{tmp}/zn.csv"],
    ["expsum", "profile", "--alphabet", "1,2", "--N", "1000", "--Q", "4", "--K", "2"],
    ["repro", "fig7", "--N", "100", "--out-dir", "{tmp}/figs"],
]


def test_every_command_prints_seconds(tmp_path, capsys):
    argvs = [[a.format(tmp=tmp_path) for a in argv] for argv in EVERY_COMMAND]
    handlers = {f for name, f in vars(cli).items() if name.startswith("_cmd_")}
    assert {cli.build_parser().parse_args(argv).func for argv in argvs} == handlers
    for argv in argvs:
        code, doc = run_json(capsys, argv)
        assert code == 0, argv
        assert isinstance(doc["seconds"], float), argv


@pytest.mark.parametrize("argv", [argv for argv in EVERY_COMMAND
                                  if argv[0] in ("cf", "dimension", "ensemble", "modular")],
                         ids=lambda argv: " ".join(a for a in argv[:2] if a[0] != "-"))
def test_json_out_file_is_the_result_without_timing(tmp_path, capsys, argv):
    out = tmp_path / "result.json"
    code, shown = run_json(capsys, argv + ["--out", str(out), "--seed", "4"])
    assert code == 0
    stored = json.loads(out.read_text())
    assert stored["meta"] == {"tool": f"continuantlab {continuantlab.__version__}", "seed": 4}
    assert shown.pop("seconds") >= 0
    assert stored["result"] == shown


@pytest.mark.parametrize("argv, config, files", [
    (["enumerate", "--alphabet", "1,2", "--N", "100", "--seed", "7",
      "--out", "{tmp}/orbit.csv", "--mult-out", "{tmp}/mult.csv"],
     '{"N": 100, "alphabet": "1,2", "command": "enumerate", "representative": "canonical", '
     '"seed": 7, "spellings": "any"}',
     {"orbit.csv": "b,d,word", "mult.csv": "d,count"}),
    (["exceptions", "--alphabet", "1,2,3,4", "--N", "200", "--out", "{tmp}/exc.csv"],
     '{"N": 200, "alphabet": "1,2,3,4", "command": "exceptions", "seed": 0, '
     '"spellings": "canonical"}',
     {"exc.csv": "d"}),
    (["qmc", "zn", "--b", "21", "--d", "55", "--drop-origin", "--out", "{tmp}/zn.csv"],
     '{"b": 21, "command": "qmc", "d": 55, "drop_origin": true, "qmc_cmd": "zn", "seed": 0}',
     {"zn.csv": "x,y"}),
    (["expsum", "profile", "--alphabet", "1,2", "--N", "1000", "--Q", "4", "--K", "2",
      "--out", "{tmp}/arcs.csv"],
     '{"K": 2, "N": 1000, "Q": 4, "alphabet": "1,2", "command": "expsum", '
     '"expsum_cmd": "profile", "seed": 0}',
     {"arcs.csv": "Q,K,n_windows,measure,integral,ratio_to_flat"}),
    (["repro", "fig7", "--N", "300", "--out-dir", "{tmp}"],
     '{"N": 300, "command": "repro", "figure": "fig7", "seed": 0}',
     {"fig7_mult.csv": "d,count", "fig7_normalized.csv": "d,count,normalized"}),
], ids=["enumerate", "exceptions", "qmc zn", "expsum profile", "repro fig7"])
def test_file_headers_are_pinned(tmp_path, capsys, argv, config, files):
    # the config line lists the parsed arguments: a new one changes every file
    code = run([a.format(tmp=tmp_path) for a in argv])
    capsys.readouterr()
    assert code == 0
    seed = argv[argv.index("--seed") + 1] if "--seed" in argv else "0"
    for name, columns in files.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[:3] == [f"# continuantlab {continuantlab.__version__}",
                             f"# config: {config}", f"# seed: {seed}"]
        assert next(line for line in lines if not line.startswith("#")) == columns
