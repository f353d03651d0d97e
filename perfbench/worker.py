"""One run of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py --workload W --seed N --mode setup|run
                                --trace 0|1 --seconds S --spawned-at T --out RECORD.json

Set-up (imports, a fresh temp dir, input generation) ends when the
first operation starts; setup_s is measured from T, the parent's
monotonic clock just before it started this interpreter.  Mode "setup"
stops there.  Mode "run" then runs the workload's operations in passes,
one after the other, while another pass fits in S seconds of timed
operations (checks are not counted), and at least MIN_PASSES times.
Between operations it times the workload's reference computation
(workloads.REFERENCES), which tracks the host's speed.  The first pass
checks every result; later passes only time.  With --trace 1 the passes after
the first alternate traced and untraced, so the tracing overhead is
measured in the same stretch of time.  An operation that raises fails
in every pass.  The temp dir is deleted before the record is written.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import tempfile
import time

from tracing import Tracer
from workloads import REFERENCES, WORKLOADS, interpreter_ref_s

MIN_PASSES = 2


def run_ops(ops, tracer: Tracer | None, check: bool = True,
            reference=interpreter_ref_s) -> list[dict]:
    """Run each operation once, with `reference` timed between operations.

    Each record's ref_s is the mean of the reference times just before
    and just after the operation.
    """
    records = []
    ref_before = reference()
    for op in ops:
        error = None
        t0 = time.perf_counter()
        try:
            result = tracer.call(op.name, op.call, counts=op.counts) if tracer else op.call()
        except Exception as e:  # a failing operation is counted and the workload goes on
            error = f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
        ref_after = reference()
        ref_s, ref_before = (ref_before + ref_after) / 2, ref_after
        if error is None and check:
            try:
                op.check(result)
            except Exception as e:  # a wrong or malformed result fails the operation
                error = f"check {type(e).__name__}: {e}"
        records.append({"name": op.name, "seconds": seconds, "ref_s": ref_s, "error": error})
    return records


def run_pass(ops, run_id: str, traced: bool, check: bool, reference) -> dict:
    tracer = Tracer(run_id) if traced else None
    if tracer:
        tracer.install()
    try:
        records = run_ops(ops, tracer, check, reference)
    finally:
        if tracer:
            tracer.uninstall()
    return {"traced": traced, "ops": records, "spans": tracer.spans if tracer else None}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "run"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()

    tmp_root = os.path.join(os.path.dirname(os.path.abspath(args.out)), "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        ops, config = WORKLOADS[args.workload](random.Random(args.seed), tmp)
        record = {"config": config, "setup_s": time.monotonic() - args.spawned_at}
        if args.mode == "run":
            run_id = f"{args.workload}:{args.seed}"
            reference = REFERENCES[args.workload]
            passes = [run_pass(ops, run_id, False, True, reference)]
            measured = last = sum(op["seconds"] for op in passes[-1]["ops"])
            while len(passes) < MIN_PASSES or measured + last <= args.seconds:
                traced = bool(args.trace) and len(passes) % 2 == 1
                passes.append(run_pass(ops, run_id, traced, False, reference))
                last = sum(op["seconds"] for op in passes[-1]["ops"])
                measured += last
            record.update(passes=passes, peak_rss_mb=peak_rss_mb())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
