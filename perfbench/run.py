"""continuantlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is used from ./src.  The
workload runs in a fresh interpreter (worker.py) with PYTHONPATH=src and
without CONTINUANT_LAB_CACHE, which runs its operations in passes for S
seconds; the first pass checks every result.

--trace 0: wall_ref is the wall time of one pass in units of the
workload's reference computation (workloads.REFERENCES) timed between
the pass's operations, the median over the passes.  The host's
speed drifts by up to 1.5x for seconds to minutes, which moves pass
times in seconds from run to run by more than the bound; the reference
slows with it, so the ratio repeats.  The pass times in seconds and the
reference times are in the provenance line.
peak_rss_mb is the worker's peak, and setup_s the median over the worker
and set-up-only interpreters, SETUP_SAMPLES in all.
--trace 1: the passes after the first alternate traced and untraced;
prints the per-layer metrics, each the median over the traced passes,
and the tracing overhead: the median traced minus the median untraced
pass time.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it is the run's provenance.  The full record, with every
operation and span, is written to .perfbench/results/.
"""


from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import layer_metrics, unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
CHILD_GRACE_S = 100  # beyond --seconds: the pass that runs over, and set-up


def spawn(root: str, out_dir: str, args, mode: str) -> dict:
    """Run worker.py once in a fresh interpreter and return its record."""
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    env.pop("CONTINUANT_LAB_CACHE", None)
    path = os.path.join(out_dir, f"worker-{os.getpid()}-{mode}.json")
    spawned_at = time.monotonic()
    # a session of its own, so that a timeout also ends the commands it started
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                             "--workload", args.workload, "--seed", str(args.seed),
                             "--mode", mode, "--trace", str(args.trace),
                             "--seconds", str(args.seconds),
                             "--spawned-at", repr(spawned_at), "--out", path],
                            cwd=root, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=args.seconds + CHILD_GRACE_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError(f"worker.py --mode {mode} exited with {code}")
    with open(path) as fh:
        record = json.load(fh)
    os.remove(path)
    return record


def pass_s(p: dict) -> float:
    return sum(op["seconds"] for op in p["ops"])


def ref_s(p: dict) -> float:
    """Reference time over a pass: the mean of the times taken around each
    operation, weighted by the operation's time, so that it reflects the
    host's speed while the pass's time was spent."""
    return sum(op["seconds"] * op["ref_s"] for op in p["ops"]) / pass_s(p)


def wall_ref(passes: list[dict]) -> float:
    """Median over the passes of the pass time in reference-kernel times."""
    return statistics.median(pass_s(p) / ref_s(p) for p in passes)


def provenance(root: str, args, config: dict, passes: list[dict]) -> dict:
    src = os.path.join(root, "src", "continuantlab")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "passes": len(passes),
            "pass_s": [round(pass_s(p), 4) for p in passes],
            "ref_ms": [round(ref_s(p) * 1e3, 4) for p in passes], "git_sha": sha,
            "source_sha256": digest.hexdigest(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "nproc": os.cpu_count(), "config": config}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # so that a run stopped from outside still ends its worker (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "continuantlab", "__init__.py")):
        print("run.py: no src/continuantlab here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)

    record = spawn(root, out_dir, args, "run")
    passes = record["passes"]
    plain = [p for p in passes if not p["traced"]]
    errors = [(op["name"], op["error"]) for p in passes for op in p["ops"] if op["error"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        failed_by_layer = Counter(name.split(".", 1)[0] for name, _ in errors)
        per_pass = [layer_metrics(p["spans"], failed_by_layer) for p in traced]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.wall_s"] = statistics.median(map(pass_s, traced))
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(map(pass_s, plain))
        values["trace.spans"] = len(traced[0]["spans"])
        units = {k: unit(k) for k in values}
    else:
        setups = [record["setup_s"]]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(root, out_dir, args, "setup")["setup_s"])
        values = {"wall_ref": wall_ref(plain),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": record["peak_rss_mb"]}
        units = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}

    prov = provenance(root, args, record["config"], passes)
    with open(os.path.join(out_dir, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"provenance": prov, "metrics": values, "passes": passes}, fh, indent=1)
    for name, error in errors:
        print(f"FAILED {name}: {error}", file=sys.stderr)
    result = {"correct": not errors, "attempted": sum(len(p["ops"]) for p in passes),
              "failed": len(errors),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    print(json.dumps(prov))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
