"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload train_desk6 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the gradrep package is imported from its
``src/`` directory, never from an installed copy. The BLAS thread count is
pinned before numpy loads. Every metric is printed by name with its unit, a
machine record is written under ``perfbench/_out/``, and the last line of
standard output is the JSON result. Exit code 0 means the run completed (its
correctness is in the JSON); any other code means it could not run, and then
no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
#: BLAS threads; 1 keeps the figures steady, and the lab's matrices are too
#: small for a second thread to pay off
BLAS_THREADS = 1
WORKLOAD_NAMES = ("hypersearch_desk4", "train_desk6", "lockstep_block",
                  "deploy_ptq_desk6")


def pin_blas_threads() -> None:
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def import_gradrep() -> None:
    """Put the checkout's src/ first on the path and import gradrep from it;
    exits with code 1 when the checkout has no gradrep sources."""
    if not os.path.isfile(os.path.join(SRC, "gradrep", "__init__.py")):
        sys.exit(f"error: no gradrep sources under {SRC}")
    sys.path.insert(0, SRC)
    import gradrep

    if os.path.dirname(os.path.dirname(os.path.abspath(gradrep.__file__))) != SRC:
        sys.exit(f"error: gradrep imported from {gradrep.__file__}, not {SRC}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="gradrep benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    import_gradrep()
    import bench

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        result = bench.run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), workdir=workdir)
    finally:
        bench.clean_workdir(workdir)
    record = bench.result_record(result, bench.machine_record(ROOT), args.seconds)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    for name, (value, unit) in result.ungated.items():
        print(f"ungated {name} = {value!r} {unit}")
    print(f"checks check_fail_frac = {record['check_fail_frac']!r} "
          f"({record['failed']} of {record['attempted']} checks failed)")
    for line in result.failures:
        print(f"check FAILED {line}")
    for line in result.ratios:
        print(line)
    for name, value in record["finals"].items():
        print(f"final {name} = {value}")
    print(f"record {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
