"""Spans and counters recorded around gradrep's public functions, from outside.

Nothing in ``src/`` is edited. :func:`instrument` swaps public module
functions and class methods for timing wrappers and puts the originals back on
exit. Every op output that lands on the autodiff tape has its backward closure
wrapped too, so the reverse pass is timed per op kind. Spans nest: a span's
self time is its duration minus the time of the spans opened inside it.

:class:`StepClock` is the one hook that stays on in untraced runs: it notes
the time each ``MultiplierSgd.step`` returns, so step times are measured as
the intervals between successive optimizer-step returns.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from gradrep import autodiff, checkpoint, data, equivlab, hypersearch, layers
from gradrep import models, ops, optim, quantize, train

#: ops with their own per-layer metrics; every other public op is "ops.rest"
NAMED_OPS = ("add", "relu", "channel_scale", "batchnorm_train")
#: public helpers of gradrep.ops that build no tape node
NOT_OPS = ("conv_output_hw",)


class Tracer:
    """Nested spans: total and self seconds plus call counts per name."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [total_s, self_s, calls]
        self.counts: dict[str, float] = {}
        self._stack: list[float] = []

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        self._stack.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += dur
            span = self.spans.setdefault(name, [0.0, 0.0, 0])
            span[0] += dur
            span[1] += dur - child
            span[2] += 1

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def total(self, name: str) -> float:
        return self.spans.get(name, (0.0, 0.0, 0))[0]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0.0, 0.0, 0))[1]

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0.0, 0.0, 0))[2]

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


class StepClock:
    """perf_counter() at every optimizer-step return since the last begin()."""

    def __init__(self):
        self.start = 0.0
        self.marks: list[float] = []

    def begin(self) -> None:
        self.marks = []
        self.start = time.perf_counter()

    def intervals_ms(self, steps_per_tick: int = 1) -> list:
        """Milliseconds between successive ticks; a tick is every
        ``steps_per_tick``-th step return, and the first interval starts at
        begin()."""
        ticks = [self.start] + self.marks[steps_per_tick - 1::steps_per_tick]
        return [1000.0 * (b - a) for a, b in zip(ticks, ticks[1:])]


class _Patches:
    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


@contextmanager
def step_clock(clock: StepClock):
    """Record step returns of every MultiplierSgd while the block runs."""
    patches = _Patches()
    orig = optim.MultiplierSgd.step

    def step(self, lr):
        orig(self, lr)
        clock.marks.append(time.perf_counter())

    patches.set(optim.MultiplierSgd, "step", step)
    try:
        yield clock
    finally:
        patches.restore()


def _conv_kind(w, stride) -> str:
    k = w.data.shape[2]
    return "k1" if k == 1 else f"k{k}s{stride}"


@contextmanager
def instrument(tracer: Tracer):
    """Wrap gradrep's public layer entry points with spans while the block
    runs; the originals are restored on exit."""
    patches = _Patches()

    def wrap_backward(tensor, name):
        fn = tensor._backward
        if fn is None:
            return
        tracer.count("autodiff.tape_nodes")
        tensor._backward = lambda g: tracer.call(name, fn, g)

    def op_wrapper(name, fn):
        def wrapped(*args, **kwargs):
            out = tracer.call(f"{name}.fwd", fn, *args, **kwargs)
            wrap_backward(out[0] if isinstance(out, tuple) else out, f"{name}.bwd")
            return out
        return wrapped

    orig_conv = ops.conv2d

    def conv2d(x, w, stride=1, padding=0, bias=None):
        n, c_in, h, wd = x.data.shape
        c_out, _, k_h, k_w = w.data.shape
        out_h, out_w = ops.conv_output_hw(h, wd, k_h, k_w, stride, padding)
        kind = _conv_kind(w, stride)
        cols = n * c_in * k_h * k_w * out_h * out_w
        tracer.count("ops.conv2d.macs", cols * c_out)
        tracer.count("ops.conv2d.col_bytes", cols * x.data.itemsize)
        out = tracer.call(f"ops.conv2d.{kind}.fwd", orig_conv, x, w, stride, padding, bias)
        wrap_backward(out, f"ops.conv2d.{kind}.bwd")
        return out

    patches.set(ops, "conv2d", conv2d)
    for name, fn in list(vars(ops).items()):
        if (callable(fn) and getattr(fn, "__module__", None) == ops.__name__
                and not name.startswith("_") and name != "conv2d"
                and name not in NOT_OPS):
            label = f"ops.{name}" if name in NAMED_OPS else "ops.rest"
            patches.set(ops, name, op_wrapper(label, fn))

    def span(name, fn):
        def wrapped(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)
        return wrapped

    def wrap(owner, attr, name):
        patches.set(owner, attr, span(name, getattr(owner, attr)))

    wrap(autodiff.Tensor, "backward", "autodiff.backward")
    wrap(models.Model, "forward", "models.forward")
    wrap(layers.BatchNorm2d, "forward", "layers.BatchNorm2d")
    wrap(optim.MultiplierSgd, "step", "optim.step")
    wrap(data.DatasetHandle, "normalized", "data.normalized")
    wrap(data, "augment_images", "data.augment_images")
    wrap(data, "gen_synthetic", "data.gen_synthetic")
    for owner in (train, hypersearch):
        wrap(owner, "train_model", "train.train_model")
    wrap(equivlab, "verify_csla_gr", "equivlab.verify_csla_gr")
    wrap(equivlab, "convert_model", "equivlab.convert_model")
    for name in ("ptq_model", "model_accuracy", "fake_quantize"):
        wrap(quantize, name, f"quantize.{name}")
    wrap(checkpoint, "save_checkpoint", "checkpoint.save")
    wrap(checkpoint, "load_checkpoint", "checkpoint.load")
    wrap(checkpoint, "restore_model", "checkpoint.restore_model")

    orig_batches = train.iter_batches

    def iter_batches(*args, **kwargs):
        it = orig_batches(*args, **kwargs)
        while True:
            try:
                item = tracer.call("data.batch", next, it)
            except StopIteration:
                return
            yield item

    patches.set(train, "iter_batches", iter_batches)
    try:
        yield tracer
    finally:
        patches.restore()
