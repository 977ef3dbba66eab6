"""Executable verification of the counterpart theorem, structural conversion
(BN fusion and branch merging) with inference-equivalence checks, and the
identity-variance-ratio analysis.

The lockstep harness trains the branched block and its single-operator
counterpart side by side on one shared seeded input/target stream and records,
at every iteration, the max-abs output divergence and the max-abs divergence
of the combined branch kernels from the single kernel. With double precision
both stay at accumulated round-off; skipping either the equivalent
initialization or the gradient multiplier is expected to break them fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import ops
from .autodiff import Parameter, Tensor, no_grad
from .errors import ConfigError
from .layers import BatchNorm2d
from .models import CslaBlockSpec, Model, PlainBlock, RepVggStyleBlock, branched_sum
from .optim import MultiplierSgd, OptimizerConfig, branch_list, equivalent_kernel, grad_mult
from .reports import write_csv, write_json
from .rng import Rng, msra_init

ABLATIONS = (None, "skip_reinit", "skip_gradmult")


@dataclass
class EquivalenceReport:
    output_divergence: list  # max-abs output gap at iteration i (pre-update)
    kernel_divergence: list  # max-abs combined-kernel gap at iteration i
    steps: int
    config: dict = field(default_factory=dict)

    # the maxima are NaN once any entry is NaN (Python's max would skip it)
    @property
    def max_output_divergence(self) -> float:
        return float(np.max(self.output_divergence))

    @property
    def max_kernel_divergence(self) -> float:
        return float(np.max(self.kernel_divergence))

    def divergence_at(self, step: int) -> float:
        return float(np.max(self.output_divergence[: step + 1]))

    def write_csv(self, path: str) -> None:
        rows = [(i, o, k) for i, (o, k) in
                enumerate(zip(self.output_divergence, self.kernel_divergence))]
        write_csv(path, ["step", "output_div", "kernel_div"], rows)

    def write_json_summary(self, path: str) -> None:
        """Strict JSON: a non-finite maximum is written as null."""
        out, kernel = self.max_output_divergence, self.max_kernel_divergence
        write_json(path, {
            "steps": self.steps,
            "max_output_divergence": out if np.isfinite(out) else None,
            "max_kernel_divergence": kernel if np.isfinite(kernel) else None,
            "config": self.config,
        })


class _Pair:
    """A branched block (constant-scaled branches, optional trainable identity
    scaling, optional shared post-addition BN + ReLU head) and its single
    K x K conv counterpart trained with the gradient multiplier."""

    def __init__(self, block: CslaBlockSpec, seed, ablation=None, post_bn=False):
        rng = Rng(seed)
        self.block = block
        self.branches = branch_list(block.branches, block.c_out)
        self.scales = [Tensor(s) for _, s in self.branches]
        self.kernels = [Parameter(msra_init((block.c_out, block.c_in, k, k), rng=rng),
                                  name=f"w{i}")
                        for i, (k, _) in enumerate(block.branches)]
        self.gamma = (Parameter(np.ones(block.c_out), name="gamma")
                      if block.has_identity else None)
        if ablation == "skip_reinit":
            big = max(k for k, _ in block.branches)
            init = msra_init((block.c_out, block.c_in, big, big), rng=rng)
        else:
            init = equivalent_kernel(self.branches, [w.data for w in self.kernels],
                                     np.ones(block.c_out) if block.has_identity else None)
        self.w_prime = Parameter(init, name="w")
        mult = (np.ones_like(init) if ablation == "skip_gradmult"
                else grad_mult(self.branches, block.has_identity, c_in=block.c_in))
        self.branched_params = {w.name: w for w in self.kernels}
        if self.gamma is not None:
            self.branched_params["gamma"] = self.gamma
        self.single_params = {"w": self.w_prime}
        self.multipliers = {"w": mult}
        self.post_bn = post_bn
        if post_bn:
            self.bn_branched = BatchNorm2d(block.c_out)
            self.bn_single = BatchNorm2d(block.c_out)
            self.branched_params.update({"bn.gamma": self.bn_branched.gamma,
                                         "bn.beta": self.bn_branched.beta})
            self.single_params.update({"bn.gamma": self.bn_single.gamma,
                                       "bn.beta": self.bn_single.beta})

    def forward_branched(self, x):
        z = branched_sum(x, self.kernels, self.scales, self.block.stride, self.gamma)
        if self.post_bn:
            z = self.bn_branched.forward(z, True, relu=True)
        return z

    def forward_single(self, x):
        z = ops.conv2d(x, self.w_prime, self.block.stride, self.w_prime.data.shape[-1] // 2)
        if self.post_bn:
            z = self.bn_single.forward(z, True, relu=True)
        return z

    def combined_kernel(self):
        return equivalent_kernel(self.branches, [w.data for w in self.kernels],
                                 self.gamma.data if self.gamma is not None else None)


def _mse_backward(y: Tensor, target: np.ndarray, params: dict) -> None:
    for p in params.values():
        p.grad = None
    ops.mse_loss(y, target).backward()


def verify_csla_gr(block: CslaBlockSpec, steps, cfg: OptimizerConfig, seed, *,
                   batch=4, hw=16, ablation=None, post_bn=False) -> EquivalenceReport:
    """Train the branched block and its single-kernel counterpart in lockstep
    on one seeded input/target stream (seed + 1) and record both divergences
    before every update. ``ablation`` skips the equivalent initialization or
    the gradient multiplier, which must break the equivalence."""
    if ablation not in ABLATIONS:
        raise ConfigError(f"unknown ablation {ablation!r}; want one of {ABLATIONS}")
    pair = _Pair(block, seed, ablation, post_bn=post_bn)
    stream = Rng(seed + 1)
    opt_branched = MultiplierSgd(pair.branched_params, momentum=cfg.momentum,
                                 weight_decay=cfg.weight_decay)
    opt_single = MultiplierSgd(pair.single_params, momentum=cfg.momentum,
                               weight_decay=cfg.weight_decay,
                               multipliers=pair.multipliers,
                               managed=tuple(pair.multipliers))
    out_div, kern_div = [], []
    for _ in range(steps):
        x = Tensor(stream.gaussian((batch, block.c_in, hw, hw)))
        kern_div.append(float(np.abs(pair.combined_kernel() - pair.w_prime.data).max()))
        # each side runs forward and backward in turn: one tape alive at a time
        y1 = pair.forward_branched(x)
        target = stream.gaussian(y1.data.shape)
        _mse_backward(y1, target, pair.branched_params)
        y2 = pair.forward_single(x)
        _mse_backward(y2, target, pair.single_params)
        out_div.append(float(np.abs(y1.data - y2.data).max()))
        opt_branched.step(cfg.base_lr)
        opt_single.step(cfg.base_lr)
    echo = {"case": "csla_block", "c_in": block.c_in, "c_out": block.c_out,
            "stride": block.stride, "kernels": [k for k, _ in block.branches],
            "has_identity": block.has_identity, "post_bn": post_bn,
            "ablation": ablation or "none", "steps": steps, "lr": cfg.base_lr,
            "momentum": cfg.momentum, "weight_decay": cfg.weight_decay,
            "seed": seed + 1, "batch": batch, "hw": hw}
    return EquivalenceReport(out_div, kern_div, steps, echo)


# ---------------------------------------------------------------------------
# structural conversion
# ---------------------------------------------------------------------------

@dataclass
class FusedConv:
    kernel: np.ndarray
    bias: np.ndarray
    stride: int = 1

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = ops.conv2d(Tensor(x), Tensor(self.kernel), self.stride,
                         self.kernel.shape[-1] // 2, bias=Tensor(self.bias))
        return out.data


def _bn_fold(bn: BatchNorm2d) -> tuple:
    """(scale, shift) of an eval-mode BN read as a per-channel affine map:
    scale = gamma / sqrt(var + eps), shift = beta - mean * scale."""
    scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
    return scale, bn.beta.data - bn.running_mean * scale


def fuse_bn(kernel: np.ndarray, bn: BatchNorm2d, stride: int = 1) -> FusedConv:
    """Fold an eval-mode BN into the preceding bias-free conv (padding 1):
    kernel' = scale * kernel per output channel, bias' = shift."""
    scale, shift = _bn_fold(bn)
    return FusedConv(np.asarray(kernel, dtype=np.float64) * scale[:, None, None, None],
                     shift, stride)


def convert_repvgg_block(block) -> FusedConv:
    """Merge a three-branch block into one biased conv. Each branch's BN
    scale is its branch scale in the branch algebra, so the kernel is the
    equivalent kernel of the conv branches with the identity BN scale as
    gamma; the bias sums the BN shifts in branch order, then the identity's."""
    bns = [getattr(block, f"bn{k}") for k in block.sizes]
    if block.info.has_identity:
        bns.append(block.bnid)
    scales, shifts = zip(*map(_bn_fold, bns))
    kernel = equivalent_kernel(tuple(zip(block.sizes, scales)),
                               [getattr(block, f"conv{k}").weight.data for k in block.sizes],
                               scales[-1] if block.info.has_identity else None)
    return FusedConv(kernel, reduce(np.add, shifts), block.info.stride)


class InferenceModel:
    """Deploy form: fused biased convs with ReLUs, GAP, FC. Eval only."""

    def __init__(self, convs: list, fc_weight: np.ndarray, fc_bias: np.ndarray,
                 spec=None):
        self.convs = convs  # list of FusedConv, ReLU after each
        self.fc_weight = np.asarray(fc_weight, dtype=np.float64)
        self.fc_bias = np.asarray(fc_bias, dtype=np.float64)
        self.spec = spec

    def features(self, x: np.ndarray):
        """Yield each post-ReLU activation in turn (the calibration taps)."""
        h = np.asarray(x, dtype=np.float64)
        for conv in self.convs:
            h = conv.forward(h)
            np.maximum(h, 0.0, out=h)
            yield h

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = np.asarray(x, dtype=np.float64)
        for h in self.features(h):  # one activation alive at a time
            pass
        pooled = h.mean(axis=(2, 3))
        return pooled @ self.fc_weight.T + self.fc_bias


def convert_model(model: Model) -> InferenceModel:
    """Fuse a trained model into its deploy form. Plain blocks fold conv+BN;
    three-branch blocks are merged; the stem folds like a plain block."""
    convs = [fuse_bn(model.stem_conv.weight.data, model.stem_bn, model.stem_conv.stride)]
    for block in model.blocks:
        if isinstance(block, RepVggStyleBlock):
            convs.append(convert_repvgg_block(block))
        elif isinstance(block, PlainBlock):
            convs.append(fuse_bn(block.conv.weight.data, block.bn, block.info.stride))
        else:
            raise ConfigError(
                f"cannot convert block of type {type(block).__name__}"
            )
    return InferenceModel(convs, model.fc.weight.data.copy(),
                          model.fc.bias.data.copy(), spec=model.spec)


# ---------------------------------------------------------------------------
# identity variance ratio
# ---------------------------------------------------------------------------

def identity_variance_ratio(model_factory, data: np.ndarray, num_seeds: int,
                            base_seed: int = 0):
    """Ratio var(identity path) / var(sum) per shape-preserving block at
    initialization, with batch statistics active (train-mode forward, no
    updates). Returns (block_ids, per-seed ratio matrix, seed-averaged ratios).

    ``model_factory(seed)`` must build a fresh model; batch size and seed
    count are the caller's to choose and are echoed in reports.
    """
    ids = None
    rows = []
    for k in range(num_seeds):
        model = model_factory(base_seed + k)
        model.set_capture(True)
        with no_grad():  # train-mode statistics, but no tape to walk
            model.forward(data, training=True)
        blocks = [b for b in model.blocks if getattr(b, "last_sum", None) is not None]
        if ids is None:
            ids = [b.info.block_id for b in blocks]
            if not ids:
                raise ConfigError("the model has no shape-preserving block to measure")
        ratios = [float(np.var(b.last_identity) / np.var(b.last_sum)) for b in blocks]
        rows.append(ratios)
    return ids, np.array(rows), np.array(rows).mean(axis=0)


def spearman(x, y) -> float:
    """Spearman rank correlation: the Pearson correlation of the average ranks
    (tied values share the mean of the ranks they span)."""
    def ranks(v):
        _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
        return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]

    return float(np.corrcoef(ranks(x), ranks(y))[1, 0])
