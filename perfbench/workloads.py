"""The four benchmark workloads and their correctness checks.

Each workload has a set-up, a warm-up and a *round*: one repeatable unit of
the timed work. Every round starts from the same seeded state, so all rounds
of a run, traced or not, must give bit-identical results; the fingerprint a
round returns is what the run loop compares. Every gradrep function whose
time the tracer reports is called through its module (``train.train_model``,
not an imported name), so the wrappers of :mod:`tracer` see the call.
"""

from __future__ import annotations

import hashlib
import os
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from gradrep import checkpoint, data, equivlab, hypersearch, ops, quantize, train
from gradrep.models import (
    PRESETS,
    CslaBlockSpec,
    ModelSpec,
    block_infos,
    build_csla,
    build_hypersearch,
    build_multipliers,
    build_repvgg,
    build_target_equivalent_init,
)
from gradrep.optim import MultiplierSgd, OptimizerConfig, equivalent_init
from gradrep.rng import Rng

#: counterpart tolerance for kernels and per-epoch losses (relative)
COUNTERPART_TOL = 1e-10
#: lockstep divergence bound, the ``eq.tolerance`` default of the CLI
LOCKSTEP_TOL = 1e-8
#: inference-equivalence bound of a converted model, as ``gradrep convert``
CONVERT_TOL = 1e-10
LABEL_SMOOTHING = 0.1
FAMILIES = ("repopt", "csla", "repvgg")


@dataclass(frozen=True)
class Sizes:
    n_train: int = 5000
    n_test: int = 1000
    batch: int = 128
    warm_n: int = 256  # training samples in a warm-up call
    lockstep_steps: int = 100
    deploy_train_n: int = 1024  # samples the deploy checkpoint trains on, 2 epochs
    check_inputs: int = 10  # batches of 2 in the inference-equivalence check
    calib_n: int = 256


FULL = Sizes()


class Checks:
    """Counts correctness checks; a failed check is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def expect(self, name: str, ok, detail: str = "") -> bool:
        self.attempted += 1
        ok = bool(ok)
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    def finite(self, name: str, values) -> bool:
        arr = np.asarray(values, dtype=np.float64)
        return self.expect(name, arr.size > 0 and np.all(np.isfinite(arr)),
                           f"non-finite or empty: {arr.tolist()}")


@dataclass
class Round:
    items: int  # samples trained, lockstep steps, or images inferred
    seconds: float  # wall time inside the timed gradrep calls
    steps_ms: list  # one entry per workload step
    fingerprint: tuple  # bit-exact outcome of the round
    finals: dict  # name -> final loss or result, kept to 17 digits
    family_ms: dict = field(default_factory=dict)  # family -> step intervals
    convert_ptq_ms: float = 0.0  # deploy: the conversion and quantization part


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def params_digest(model) -> str:
    return digest(*(p.data for _, p in model.named_parameters()))


def desk_spec(name: str) -> ModelSpec:
    return ModelSpec(PRESETS[name].stem_channels, PRESETS[name].stages, 10, 32)


def train_config(batch: int) -> OptimizerConfig:
    """The CLI's optimizer defaults with the benchmark's batch size."""
    return OptimizerConfig(base_lr=0.05, momentum=0.9, weight_decay=4e-5,
                           warmup_epochs=1, total_epochs=10, schedule="cosine",
                           label_smoothing=LABEL_SMOOTHING, batch_size=batch)


def deploy_config(batch: int) -> OptimizerConfig:
    """Two epochs at a constant rate: enough for the deploy checkpoint to
    beat chance on a small subset."""
    return OptimizerConfig(base_lr=0.1, momentum=0.9, weight_decay=4e-5,
                           warmup_epochs=0, total_epochs=2, schedule="constant",
                           label_smoothing=LABEL_SMOOTHING, batch_size=batch)


def datasets(seed: int, sizes: Sizes):
    """Train and test split of one synthetic pool, as the CLI makes them."""
    pool = data.gen_synthetic(sizes.n_train + sizes.n_test, 32, 10, seed)
    return pool.subset(sizes.n_train), pool.subset(sizes.n_test, offset=sizes.n_train)


def random_scales(spec: ModelSpec, seed: int) -> dict:
    """Per-channel branch scales s, t in [0.4, 1.4) for every block."""
    rng = Rng.spawn(seed, 3)[2]
    return {i.block_id: (0.4 + rng.uniform(i.c_out), 0.4 + rng.uniform(i.c_out))
            for i in block_infos(spec)}


def build_family(family: str, spec: ModelSpec, scales: dict, seed: int):
    """Model and optimizer of one training family; the three families draw
    their kernels from the same seeded stream."""
    rng = Rng.spawn(seed, 2)[0]
    if family == "repopt":
        model = build_target_equivalent_init(spec, scales, rng=rng)
        mults = build_multipliers(model, scales)
        managed = tuple(model.gr_managed_params())
    else:
        model = (build_csla(spec, scales, rng=rng) if family == "csla"
                 else build_repvgg(spec, rng=rng))
        mults, managed = {}, ()
    opt = MultiplierSgd(dict(model.named_parameters()), momentum=0.9,
                        weight_decay=4e-5, multipliers=mults, managed=managed)
    return model, opt


def data_stream(seed: int) -> Rng:
    return Rng.spawn(seed, 2)[1]


def counterpart_gap(repopt_model, csla_model, scales: dict) -> float:
    """Max-abs gap between repopt's kernels and the equivalent kernels of
    CSLA's branches (NaN if either side went non-finite)."""
    gaps = []
    for rb, cb in zip(repopt_model.blocks, csla_model.blocks):
        s, t = scales[rb.info.block_id]
        gamma = cb.gamma.values if cb.info.has_identity else None
        w = equivalent_init(cb.conv3.weight.data, cb.conv1.weight.data, s, t, gamma)
        gaps.append(np.abs(w - rb.conv.weight.data).max())
    return float(np.max(gaps))


def check_counterparts(checks: Checks, repopt_model, csla_model, scales: dict,
                       repopt_losses, csla_losses) -> None:
    """The paper's counterpart claim: equal per-epoch losses and equal
    kernels, each within COUNTERPART_TOL."""
    a = np.asarray(repopt_losses, dtype=np.float64)
    b = np.asarray(csla_losses, dtype=np.float64)
    loss_gap = (float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))))
                if a.shape == b.shape and a.size else float("nan"))
    checks.expect("repopt_csla_losses", loss_gap <= COUNTERPART_TOL,
                  f"relative loss gap {loss_gap!r}")
    gap = counterpart_gap(repopt_model, csla_model, scales)
    checks.expect("repopt_csla_kernels", gap <= COUNTERPART_TOL,
                  f"kernel gap {gap!r}")


def tape_peak_mb(model, x, labels) -> float:
    """Peak memory allocated by one training forward and backward, i.e. the
    tape plus its gradients, measured with tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss = ops.cross_entropy(model.forward(x, training=True), labels,
                                 LABEL_SMOOTHING)
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 1e6


def first_batch(handle, sizes: Sizes, seed: int):
    return next(data.iter_batches(handle, sizes.batch, rng=data_stream(seed),
                                  augment=True, drop_last=True))


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class HypersearchDesk4:
    """One hyper-search epoch on desk4: every block runs a 3x3 and a 1x1 conv,
    two trainable channel scales and an identity scale."""

    def setup(self, seed, sizes, workdir):
        train_set, test_set = datasets(seed, sizes)
        state = {"seed": seed, "sizes": sizes, "spec": desk_spec("desk4"),
                 "train": train_set, "test": test_set,
                 "cfg": train_config(sizes.batch)}
        return state, digest(train_set.images, train_set.labels, test_set.images)

    def warm(self, st):
        hypersearch.run_hyper_search(st["spec"], st["train"].subset(st["sizes"].warm_n),
                                     st["cfg"], st["seed"], epochs=1)

    def round(self, st, clock, checks):
        clock.begin()
        (scales, _, result), secs = timed(
            hypersearch.run_hyper_search, st["spec"], st["train"], st["cfg"],
            st["seed"], epochs=1, test_dataset=st["test"], augment=True)
        steps = clock.intervals_ms()
        checks.finite("hs_losses_finite", result.train_loss)
        checks.finite("hs_scales_finite",
                      np.concatenate([np.r_[r.s, r.t] for r in scales.records]))
        fp = (tuple(result.train_loss), tuple(result.test_acc),
              digest(*(np.r_[r.s, r.t] for r in scales.records)))
        return Round(len(steps) * st["sizes"].batch, secs, steps, fp,
                     {"hs.final_loss": result.train_loss[-1]}, {"hs": steps})

    def tape_probe(self, st):
        model = build_hypersearch(st["spec"], rng=Rng.spawn(st["seed"], 2)[0])
        x, labels = first_batch(st["train"], st["sizes"], st["seed"])
        return {"hs": tape_peak_mb(model, x, labels)}


class TrainDesk6:
    """One epoch of each training family on desk6 from one seed and one data
    stream: repopt (plain 3x3 stack + multipliers), CSLA, RepVGG-style."""

    def setup(self, seed, sizes, workdir):
        train_set, _ = datasets(seed, sizes)
        spec = desk_spec("desk6")
        scales = random_scales(spec, seed)
        # built here so set-up pays for the models and multipliers once; every
        # round builds fresh ones, outside its timed calls
        for family in FAMILIES:
            build_family(family, spec, scales, seed)
        state = {"seed": seed, "sizes": sizes, "spec": spec, "train": train_set,
                 "scales": scales, "cfg": train_config(sizes.batch)}
        return state, digest(train_set.images, train_set.labels,
                             *(np.r_[s, t] for s, t in scales.values()))

    def _train(self, st, family, handle, clock=None):
        model, opt = build_family(family, st["spec"], st["scales"], st["seed"])
        if clock is not None:
            clock.begin()
        result, secs = timed(train.train_model, model, opt, handle, None, st["cfg"],
                             data_stream(st["seed"]), epochs=1, augment=True,
                             eval_each_epoch=False)
        return model, result, secs

    def warm(self, st):
        for family in FAMILIES:
            self._train(st, family, st["train"].subset(st["sizes"].warm_n))

    def round(self, st, clock, checks):
        models, losses, family_ms, fp, finals = {}, {}, {}, [], {}
        total = 0.0
        for family in FAMILIES:
            model, result, secs = self._train(st, family, st["train"], clock)
            total += secs
            family_ms[family] = clock.intervals_ms()
            models[family], losses[family] = model, result.train_loss
            checks.finite(f"{family}_losses_finite", result.train_loss)
            fp.append((family, tuple(result.train_loss), params_digest(model)))
            finals[f"{family}.final_loss"] = result.train_loss[-1]
        check_counterparts(checks, models["repopt"], models["csla"], st["scales"],
                           losses["repopt"], losses["csla"])
        steps = [sum(triple) for triple in zip(*family_ms.values())]
        items = sum(len(v) for v in family_ms.values()) * st["sizes"].batch
        return Round(items, total, steps, tuple(fp), finals, family_ms)

    def tape_probe(self, st):
        x, labels = first_batch(st["train"], st["sizes"], st["seed"])
        return {f: tape_peak_mb(build_family(f, st["spec"], st["scales"], st["seed"])[0],
                                x, labels)
                for f in FAMILIES}


class LockstepBlock:
    """``verify_csla_gr`` at the CLI defaults: 8 channels, 16x16, batch 4."""

    def setup(self, seed, sizes, workdir):
        c = 8
        draws = Rng(seed).uniform(2 * c)
        block = CslaBlockSpec.square(c, 0.4 + draws[:c], 0.4 + draws[c:])
        cfg = OptimizerConfig(base_lr=0.01, momentum=0.9, weight_decay=4e-5,
                              schedule="constant", warmup_epochs=0, total_epochs=1,
                              label_smoothing=0.0, batch_size=4)
        state = {"seed": seed, "sizes": sizes, "block": block, "cfg": cfg}
        # zero steps: only the pair and its optimizers are built
        self._verify(state, 0)
        return state, digest(np.asarray(block.s), np.asarray(block.t))

    def _verify(self, st, steps):
        return timed(equivlab.verify_csla_gr, st["block"], steps, st["cfg"],
                     st["seed"], batch=4, hw=16)

    def warm(self, st):
        self._verify(st, 10)

    def round(self, st, clock, checks):
        clock.begin()
        report, secs = self._verify(st, st["sizes"].lockstep_steps)
        steps = clock.intervals_ms(2)  # each iteration steps two optimizers
        out_div = float(np.max(report.output_divergence))
        kern_div = float(np.max(report.kernel_divergence))
        checks.expect("lockstep_output", out_div <= LOCKSTEP_TOL,
                      f"max output divergence {out_div!r}")
        checks.expect("lockstep_kernel", kern_div <= LOCKSTEP_TOL,
                      f"max kernel divergence {kern_div!r}")
        fp = (tuple(report.output_divergence), tuple(report.kernel_divergence))
        return Round(len(steps), secs, steps, fp,
                     {"lockstep.max_output_divergence": out_div,
                      "lockstep.max_kernel_divergence": kern_div})

    def tape_probe(self, st):
        return {}


class DeployPtqDesk6:
    """Checkpoint -> restore -> convert -> equivalence check -> PTQ ->
    weights-only quantization -> accuracy of fp, int8 and weights-only."""

    def setup(self, seed, sizes, workdir):
        train_set, test_set = datasets(seed, sizes)
        spec = desk_spec("desk6")
        scales = random_scales(spec, seed)
        model, opt = build_family("repopt", spec, scales, seed)
        stream = data_stream(seed)
        result = train.train_model(model, opt, train_set.subset(sizes.deploy_train_n),
                                   None, deploy_config(sizes.batch), stream,
                                   augment=True, eval_each_epoch=False)
        path = os.path.join(workdir, "deploy.ckpt")
        checkpoint.save_checkpoint(path, checkpoint.snapshot_model(
            model, opt, stream, epoch=result.epochs_run, step=result.global_step))
        with open(path, "rb") as fh:
            raw = fh.read()
        state = {"seed": seed, "sizes": sizes, "train": train_set, "test": test_set,
                 "path": path, "bytes": len(raw)}
        return state, digest(np.frombuffer(raw, dtype=np.uint8), test_set.images)

    def warm(self, st):
        self.round(st, None, Checks())

    def round(self, st, clock, checks):
        sizes = st["sizes"]
        t0 = time.perf_counter()
        model = checkpoint.restore_model(checkpoint.load_checkpoint(st["path"]))
        fused = equivlab.convert_model(model)
        t1 = time.perf_counter()
        stream = Rng(st["seed"])
        diffs = []
        for _ in range(sizes.check_inputs):
            x = stream.gaussian((2, 3, 32, 32))
            diffs.append(np.abs(model.forward(x, training=False).data
                                - fused.forward(x)).max())
        worst = float(np.max(diffs))
        t2 = time.perf_counter()
        calib = st["train"].normalized(np.arange(sizes.calib_n))
        quantized = quantize.ptq_model(fused, calib)
        weights_only = quantize.quantize_weights_only(fused)
        t3 = time.perf_counter()
        accs = tuple(quantize.model_accuracy(m, st["test"])
                     for m in (fused, quantized, weights_only))
        t4 = time.perf_counter()
        checks.expect("convert_equivalent", worst <= CONVERT_TOL,
                      f"max abs output diff {worst!r}")
        checks.expect("accuracies_valid", all(0.0 <= a <= 1.0 for a in accs),
                      f"accuracies {accs!r}")
        images = 4 * sizes.check_inputs + sizes.calib_n + 3 * sizes.n_test
        return Round(images, t4 - t0, [1000.0 * (t4 - t0)], (worst, accs),
                     {"deploy.fp_acc": accs[0], "deploy.int8_acc": accs[1],
                      "deploy.weights_only_acc": accs[2],
                      "deploy.convert_max_diff": worst},
                     convert_ptq_ms=1000.0 * (t1 - t0 + t3 - t2))

    def tape_probe(self, st):
        return {}


WORKLOADS = {
    "hypersearch_desk4": HypersearchDesk4,
    "train_desk6": TrainDesk6,
    "lockstep_block": LockstepBlock,
    "deploy_ptq_desk6": DeployPtqDesk6,
}
