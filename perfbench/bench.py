"""Run loop of the benchmark: set-up, warm-up, timed rounds, checks, metrics.

Untraced runs (``trace=False``) give the end-to-end metrics. Traced runs give
the per-layer metrics: untraced reference rounds for the first half of the
time, then traced rounds whose spans are divided by the number of workload
steps they covered. A workload
step is one optimizer step (hypersearch_desk4), one step of each of the three
families on the same batch (train_desk6), one lockstep iteration
(lockstep_block) or one pipeline pass (deploy_ptq_desk6); so the per-layer
milliseconds of a step add up to its end-to-end step time.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from tracer import StepClock, Tracer, instrument, step_clock
from workloads import FULL, Checks, WORKLOADS

#: (name, unit) of every end-to-end metric, reported by untraced runs
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput", "1/s"),
)

_CONV = tuple(f"ops.conv2d.{k}.{m}" for k in ("k3s1", "k3s2", "k1")
              for m in ("fwd_ms", "bwd_ms", "calls"))
_OPS = tuple(f"ops.{o}.{d}_ms" for o in ("batchnorm_train", "channel_scale", "add",
                                          "relu", "rest") for d in ("fwd", "bwd"))
_FAMILY_NAMES = ("hs", "repopt", "csla", "repvgg")

#: (name, unit) of every per-layer metric, reported by traced runs; "per
#: step" figures are per workload step, 0 where the layer does not run
PER_LAYER = (
    tuple((n, "count" if n.endswith("calls") else "ms") for n in _CONV)
    + (("ops.conv2d.gmac", "GMAC"), ("ops.conv2d.col_mb", "MB"))
    + tuple((n, "ms") for n in _OPS)
    + (("autodiff.backward.ms", "ms"), ("autodiff.backward.self_ms", "ms"),
       ("autodiff.tape_nodes", "count"), ("models.forward.self_ms", "ms"),
       ("layers.BatchNorm2d.self_ms", "ms"), ("optim.step.ms", "ms"),
       ("data.gen_synthetic_s", "s"), ("data.batch.ms", "ms"),
       ("data.normalized.ms", "ms"), ("data.augment_images.ms", "ms"),
       ("train.step.self_ms", "ms"), ("equivlab.lockstep.self_ms", "ms"),
       ("equivlab.convert_model.ms", "ms"), ("quantize.ptq_model.ms", "ms"),
       ("quantize.model_accuracy.ms", "ms"), ("quantize.fake_quantize.ms", "ms"),
       ("checkpoint.save.ms", "ms"), ("checkpoint.load.ms", "ms"),
       ("checkpoint.restore_model.ms", "ms"), ("checkpoint.bytes", "bytes"),
       ("deploy.convert_ptq_ms", "ms"))
    + tuple((f"mem.tape_peak_mb.{f}", "MB") for f in _FAMILY_NAMES)
    + tuple((f"family.{f}.step_ms", "ms") for f in _FAMILY_NAMES)
    + tuple((f"ratio.{m}.repopt_over_{b}", "ratio") for m in ("step_ms", "tape_mb")
            for b in ("csla", "repvgg"))
    + (("reference.step_ms.p50", "ms"), ("reference.step_ms.p90", "ms"),
       ("trace.overhead_ms", "ms"), ("trace.steps", "count"))
)

#: set-up runs this often before the rounds; untraced runs repeat it once more
#: after each round while set-up has taken under SETUP_SHARE of the time, so a
#: cheap set-up is sampled across the whole run rather than in one burst
SETUP_REPS = 3
SETUP_SHARE = 0.02


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    attempted: int
    failures: list
    metrics: dict  # name -> (value, unit)
    finals: dict  # name -> float, for the machine record
    ratios: list = field(default_factory=list)  # human-readable lines
    ungated: dict = field(default_factory=dict)  # name -> (value, unit)

    @property
    def correct(self) -> bool:
        return not self.failures


def percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setup(wl, seed, sizes, workdir, times, digests):
    start = time.perf_counter()
    state, dg = wl.setup(seed, sizes, workdir)
    times.append(time.perf_counter() - start)
    digests.append(dg)
    return state


def _setup(wl, seed, sizes, workdir, trace, tracer, digests):
    """Run set-up before the rounds; returns the last state, the untraced
    set-up times, and the set-up spans of the traced repetition (traced
    runs)."""
    times = []
    for _ in range(1 if trace else SETUP_REPS):
        state = _timed_setup(wl, seed, sizes, workdir, times, digests)
    setup_spans = {}
    if trace:
        with instrument(tracer):
            state, dg = wl.setup(seed, sizes, workdir)
        digests.append(dg)
        setup_spans = {
            "data.gen_synthetic_s": tracer.total("data.gen_synthetic"),
            "checkpoint.save.ms": 1000.0 * tracer.total("checkpoint.save"),
        }
        tracer.reset()
    return state, times, setup_spans


def _family_medians(rounds) -> dict:
    out = {}
    for r in rounds:
        for fam, steps in r.family_ms.items():
            out.setdefault(fam, []).extend(steps)
    return {fam: statistics.median(v) for fam, v in out.items() if v}


def _ratio_lines(medians: dict, what: str, unit: str) -> list:
    lines = []
    for base in ("csla", "repvgg"):
        if "repopt" in medians and base in medians:
            lines.append(
                f"ratio {what} repopt/{base} = "
                f"{medians['repopt'] / medians[base]:.4f} "
                f"(repopt {medians['repopt']:.4f} {unit} over {base} "
                f"{medians[base]:.4f} {unit})")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes=FULL, workdir: str = ".") -> Result:
    wl = WORKLOADS[name]()
    checks = Checks()
    tracer = Tracer()
    clock = StepClock()
    os.makedirs(workdir, exist_ok=True)
    digests = []
    state, setup_times, setup_spans = _setup(wl, seed, sizes, workdir, trace,
                                             tracer, digests)
    rounds, traced = [], []
    with step_clock(clock):
        wl.warm(state)
        start = time.perf_counter()
        while True:
            # traced runs spend the first half untraced, as the reference
            round_start = time.perf_counter()
            if trace and rounds and round_start - start >= seconds / 2:
                with instrument(tracer):
                    traced.append(wl.round(state, clock, checks))
            else:
                rounds.append(wl.round(state, clock, checks))
            now = time.perf_counter()
            if not trace and sum(setup_times) < SETUP_SHARE * (now - start):
                _timed_setup(wl, seed, sizes, workdir, setup_times, digests)
            if (now - start) + (now - round_start) > seconds and (traced or not trace):
                break
    tapes = wl.tape_probe(state) if trace else {}

    checks.expect("setup_deterministic", len(set(digests)) == 1,
                  f"{len(set(digests))} distinct set-up digests over {len(digests)} reps")
    reference = rounds[0].fingerprint
    for r in rounds[1:]:
        checks.expect("rounds_deterministic", r.fingerprint == reference,
                      "an untraced round differs from the first")
    for r in traced:
        checks.expect("tracing_transparent", r.fingerprint == reference,
                      "a traced round differs from the untraced reference")
    for r in rounds + traced:
        checks.finite("results_finite", list(r.finals.values()))

    family = _family_medians(rounds)
    ratios = _ratio_lines(family, "step time", "ms") + _ratio_lines(tapes, "tape memory", "MB")
    steps = [s for r in rounds for s in r.steps_ms]
    # Step-time percentiles are printed and recorded but not gated: run to
    # run they do not repeat within a tenth on a shared 2-CPU machine.
    ungated = {"step_ms.p50": (percentile(steps, 50), "ms"),
               "step_ms.p90": (percentile(steps, 90), "ms")}
    if trace:
        metrics = _per_layer(tracer, steps, traced, setup_spans, tapes, family, state)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "throughput": sum(r.items for r in rounds) / sum(r.seconds for r in rounds),
        }
    units = dict(PER_LAYER if trace else END_TO_END)
    finals = dict(rounds[-1].finals)
    finals["rounds"] = len(rounds) + len(traced)
    return Result(name, seed, trace, checks.attempted, checks.failures,
                  {n: (float(metrics[n]), units[n]) for n in units}, finals, ratios,
                  ungated)


def _per_layer(tracer, reference_steps, traced, setup_spans, tapes, family,
               state) -> dict:
    steps = sum(len(r.steps_ms) for r in traced)

    def per_step(seconds):
        return 1000.0 * seconds / steps

    m = {name: 0.0 for name, _ in PER_LAYER}
    for kind in ("k3s1", "k3s2", "k1"):
        m[f"ops.conv2d.{kind}.fwd_ms"] = per_step(tracer.total(f"ops.conv2d.{kind}.fwd"))
        m[f"ops.conv2d.{kind}.bwd_ms"] = per_step(tracer.total(f"ops.conv2d.{kind}.bwd"))
        m[f"ops.conv2d.{kind}.calls"] = tracer.calls(f"ops.conv2d.{kind}.fwd") / steps
    m["ops.conv2d.gmac"] = tracer.counts.get("ops.conv2d.macs", 0.0) / 1e9 / steps
    m["ops.conv2d.col_mb"] = tracer.counts.get("ops.conv2d.col_bytes", 0.0) / 1e6 / steps
    for op in ("batchnorm_train", "channel_scale", "add", "relu", "rest"):
        for d in ("fwd", "bwd"):
            m[f"ops.{op}.{d}_ms"] = per_step(tracer.total(f"ops.{op}.{d}"))
    m["autodiff.backward.ms"] = per_step(tracer.total("autodiff.backward"))
    m["autodiff.backward.self_ms"] = per_step(tracer.self_time("autodiff.backward"))
    m["autodiff.tape_nodes"] = tracer.counts.get("autodiff.tape_nodes", 0.0) / steps
    m["models.forward.self_ms"] = per_step(tracer.self_time("models.forward"))
    m["layers.BatchNorm2d.self_ms"] = per_step(tracer.self_time("layers.BatchNorm2d"))
    m["optim.step.ms"] = per_step(tracer.total("optim.step"))
    for span in ("data.batch", "data.normalized", "data.augment_images",
                 "equivlab.convert_model", "quantize.ptq_model", "quantize.model_accuracy",
                 "quantize.fake_quantize", "checkpoint.load",
                 "checkpoint.restore_model"):
        m[f"{span}.ms"] = per_step(tracer.total(span))
    m["train.step.self_ms"] = per_step(tracer.self_time("train.train_model"))
    m["equivlab.lockstep.self_ms"] = per_step(tracer.self_time("equivlab.verify_csla_gr"))
    m.update(setup_spans)
    m["checkpoint.bytes"] = float(state.get("bytes", 0))
    m["deploy.convert_ptq_ms"] = statistics.median(r.convert_ptq_ms for r in traced)
    for fam, mb in tapes.items():
        m[f"mem.tape_peak_mb.{fam}"] = mb
    for fam, ms in family.items():
        m[f"family.{fam}.step_ms"] = ms
    for base in ("csla", "repvgg"):
        if "repopt" in family and base in family:
            m[f"ratio.step_ms.repopt_over_{base}"] = family["repopt"] / family[base]
        if "repopt" in tapes and base in tapes:
            m[f"ratio.tape_mb.repopt_over_{base}"] = tapes["repopt"] / tapes[base]
    m["reference.step_ms.p50"] = percentile(reference_steps, 50)
    m["reference.step_ms.p90"] = percentile(reference_steps, 90)
    m["trace.overhead_ms"] = (percentile([s for r in traced for s in r.steps_ms], 50)
                              - m["reference.step_ms.p50"])
    m["trace.steps"] = float(steps)
    return m


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be queried."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root: str):
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(root, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def _source_digest(src_dir: str) -> str:
    import hashlib

    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(src_dir)):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                h.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def machine_record(root: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_pinned": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
                 "threads_reported": _blas_threads()},
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(os.path.join(root, "src", "gradrep")),
    }


def result_record(result: Result, machine: dict, seconds: float) -> dict:
    return {
        "workload": result.workload,
        "seed": result.seed,
        "trace": int(result.trace),
        "seconds": seconds,
        "machine": machine,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "check_fail_frac": len(result.failures) / result.attempted,
        "failures": result.failures,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result.metrics.items()},
        "ratios": result.ratios,
        "ungated": {n: {"value": v, "unit": u} for n, (v, u) in result.ungated.items()},
        "finals": {k: format(v, ".17g") for k, v in result.finals.items()},
    }


def clean_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
