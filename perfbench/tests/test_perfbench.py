"""Self-tests of the benchmark: its oracles, its digest, its failure counting.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import oracles as O  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import wall_ref  # noqa: E402
from worker import run_ops  # noqa: E402

from continuantlab import modular, orbits  # noqa: E402


@pytest.mark.parametrize("letters", [(1, 2), (1, 3), (2, 4, 6, 8, 10), (3, 5), (1, 2, 3, 4, 5)])
def test_bottom_row_oracle_matches_closure(letters):
    for q in range(2, 13):
        assert O.attainable_mod_q(letters, q) == modular.closure_mod_q(letters, q).attainable_d


@pytest.mark.parametrize("letters,N", [((1, 2), 3000), ((1, 3), 2000), ((2, 3, 7), 2000),
                                       ((1, 2, 3, 4, 5), 400)])
def test_orbit_oracles_match_enumeration(letters, N):
    rows = (f"{p.b},{p.d},{' '.join(map(str, p.word))}" for p in orbits.enumerate_orbit(letters, N))
    assert O.rows_digest(rows) == O.rows_digest(O.orbit_rows(letters, N))
    assert O.orbit_counts(letters, N) == orbits.multiplicity_table(letters, N).counts
    words = orbits.multiplicity_table(letters, N, representative="orbit").counts
    assert O.word_counts(letters, N) == words
    even = orbits.multiplicity_table(letters, N, spellings="even").counts
    assert O.word_counts(letters, N, even=True) == even


def test_data_row_digest_ignores_header_lines(tmp_path):
    table = orbits.multiplicity_table((1, 2), 500)
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    orbits.write_mult_csv(one, table, ['config: {"threads": 1, "format": "json"}'])
    orbits.write_mult_csv(two, table, ['config: {"threads": 2}', "seed: 0"])
    assert one.read_bytes() != two.read_bytes()
    assert O.csv_digest(one) == O.csv_digest(two)
    assert O.csv_digest(one) == O.rows_digest(O.mult_rows(O.orbit_counts((1, 2), 500)))
    with open(two, "a") as fh:
        fh.write("499,1\n")
    assert O.csv_digest(one) != O.csv_digest(two)


def census_ops(names):
    ops, _ = workloads.orbit_census(random.Random(0), "unused")
    return [op for op in ops if op.name in names]


def test_wrong_answer_counts_as_failed(monkeypatch):
    names = {"orbits.exceptions", "orbits.sumset_check"}
    assert [r["error"] for r in run_ops(census_ops(names), None)] == [None, None]

    monkeypatch.setattr(orbits, "exceptions", lambda *a, **k: [6, 54])
    records = run_ops(census_ops(names), None)
    assert [r["error"] is not None for r in records] == [True, False]
    assert "exceptions [6, 54]" in records[0]["error"]


def test_raising_operation_counts_as_failed_and_run_goes_on(monkeypatch):
    def boom(*args, **kwargs):
        raise MemoryError("simulated")
    monkeypatch.setattr(orbits, "sumset_check", boom)
    records = run_ops(census_ops({"orbits.exceptions", "orbits.sumset_check"}), None)
    assert records[0]["error"] is None
    assert records[1]["error"].startswith("MemoryError")


def test_traced_nested_spans_and_self_time():
    original = orbits.multiplicity_table
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        tracer.call("orbits.exceptions", orbits.exceptions, (1, 2, 3, 4), 300)
        tracer.call("modular.is_admissible", modular.is_admissible, (1, 2), 7, 5)
    finally:
        tracer.uninstall()
    assert orbits.multiplicity_table is original
    names = [(s["name"], s["parent"]) for s in tracer.spans]
    assert names[:2] == [("orbits.exceptions", None), ("orbits.multiplicity_table", 0)]
    assert [n for n, p in names[2:]] == ["modular.is_admissible"] + ["modular.closure_mod_q"] * 4
    own = tracing.self_times(tracer.spans)
    assert own[0] == pytest.approx((tracer.spans[0]["end"] - tracer.spans[0]["start"])
                                   - (tracer.spans[1]["end"] - tracer.spans[1]["start"]))
    metrics = tracing.layer_metrics(tracer.spans, {"qmc": 1})
    assert metrics["modular.closure_calls"] == 4 and metrics["qmc.failed"] == 1
    assert metrics["orbits.points"] == orbits.multiplicity_table((1, 2, 3, 4), 300,
                                                                spellings="canonical").total
    assert set(metrics) == set(tracing.per_layer_names())


def test_direct_calls_get_one_span_and_nested_calls_their_own():
    ops = census_ops({"orbits.exceptions", "orbits.multiplicity_table"})
    ops = [op for op in ops if op.name == "orbits.exceptions" or "even" in str(op.call)]
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        assert [r["error"] for r in run_ops(ops, tracer)] == [None, None]
    finally:
        tracer.uninstall()
    assert [(s["name"], s["parent"]) for s in tracer.spans] == [
        ("orbits.multiplicity_table", None),
        ("orbits.exceptions", None), ("orbits.multiplicity_table", 1)]


def test_wall_ref_divides_each_pass_by_its_time_weighted_reference():
    def one_pass(*ops):
        return {"ops": [{"seconds": t, "ref_s": r} for t, r in ops]}
    fast = one_pass((4.0, 0.001), (6.0, 0.001), (1e-9, 0.5))  # a 1 ns op barely counts
    slow = one_pass((9.0, 0.001), (6.0, 0.002))  # the reference slowed for the second op
    assert wall_ref([fast, slow, slow]) == pytest.approx(15.0 / (0.021 / 15.0))
    assert wall_ref([fast, fast, slow]) == pytest.approx(10_000, rel=1e-6)


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == tracing.per_layer_names()
    assert all(m["unit"] == tracing.unit(m["name"]) for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-session",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
