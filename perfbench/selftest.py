"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

1. Runs every workload untraced and traced on tiny inputs and checks that
   each run passes all its correctness checks and emits exactly the metrics,
   with the units, that BENCHMARK.json lists.
2. Checks that the tracer puts every wrapped gradrep function back.
3. Feeds the counterpart check a trained repopt/CSLA pair, then the same pair
   with one repopt kernel entry perturbed, then a non-finite loss, and checks
   that only the clean pair passes and that the corrupted ones count as failed
   checks instead of passing or raising.

Prints one line per failed expectation and exits 1 if there is any.
"""

from __future__ import annotations

import json
import os
import sys

import run

TINY_SECONDS = 0.0  # one round per run (one reference plus one traced round)


def main() -> int:
    run.pin_blas_threads()
    run.import_gradrep()
    import numpy as np

    import bench
    import workloads as wl
    from gradrep import autodiff, ops, optim, train

    tiny = wl.Sizes(n_train=192, n_test=64, batch=32, warm_n=64, lockstep_steps=5,
                    deploy_train_n=64, check_inputs=2, calib_n=32)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
            print(f"FAIL {what}")

    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
           "BENCHMARK.json workloads differ from run.py's")
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    originals = [(ops, "conv2d"), (ops, "add"), (autodiff.Tensor, "backward"),
                 (optim.MultiplierSgd, "step"), (train, "iter_batches")]
    before = [getattr(owner, attr) for owner, attr in originals]
    try:
        for name in run.WORKLOAD_NAMES:
            for trace in (0, 1):
                res = bench.run_workload(name, 3, TINY_SECONDS, bool(trace),
                                         sizes=tiny, workdir=workdir)
                tag = f"{name} trace={trace}"
                expect(res.correct and res.attempted > 0,
                       f"{tag}: checks {res.failures} of {res.attempted}")
                got = {n: u for n, (_, u) in res.metrics.items()}
                expect(got == want[trace], f"{tag}: metrics differ from BENCHMARK.json: "
                       f"{sorted(set(got) ^ set(want[trace]))}")
                expect(all(np.isfinite(v) for v, _ in res.metrics.values()),
                       f"{tag}: non-finite metric")
    finally:
        bench.clean_workdir(workdir)
    expect([getattr(owner, attr) for owner, attr in originals] == before,
           "tracer left a gradrep function wrapped")

    spec4 = wl.desk_spec("desk4")
    train_set, _ = wl.datasets(0, tiny)
    scales = wl.random_scales(spec4, 0)
    pair = {}
    for family in ("repopt", "csla"):
        model, opt = wl.build_family(family, spec4, scales, 0)
        result = train.train_model(model, opt, train_set, None, wl.train_config(tiny.batch),
                                   wl.data_stream(0), epochs=1, augment=True,
                                   eval_each_epoch=False)
        pair[family] = (model, result.train_loss)
    (repopt, repopt_losses), (csla, csla_losses) = pair["repopt"], pair["csla"]

    checks = wl.Checks()
    wl.check_counterparts(checks, repopt, csla, scales, repopt_losses, csla_losses)
    expect(checks.attempted == 2 and checks.failed == 0,
           f"clean counterpart pair failed: {checks.failures}")

    repopt.blocks[1].conv.weight.data[0, 0, 1, 1] += 1e-3
    checks = wl.Checks()
    wl.check_counterparts(checks, repopt, csla, scales, repopt_losses, csla_losses)
    expect(checks.failed == 1 and checks.failures[0].startswith("repopt_csla_kernels"),
           f"perturbed repopt kernel not caught: {checks.failures}")

    repopt.blocks[1].conv.weight.data[0, 0, 1, 1] = np.nan
    checks = wl.Checks()
    wl.check_counterparts(checks, repopt, csla, scales, [float("nan")], csla_losses)
    expect(checks.failed == 2, f"non-finite kernel and loss not caught: {checks.failures}")
    checks = wl.Checks()
    checks.finite("losses", [1.0, float("inf")])
    expect(checks.failed == 1, "infinite loss passed the finiteness check")

    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
