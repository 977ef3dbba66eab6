"""The gradient-multiplier optimizer.

Three pieces make a branched linear block and a single operator exact training
counterparts:

* a constant multiplier tensor built from the branch scales (squared scales,
  with +1 on diagonal centers when an identity branch exists),
* the equivalent-kernel initialization (scale-weighted branch kernels summed
  into one kernel, identity embedded at the diagonal centers),
* the update rule that multiplies the loss gradient elementwise by the
  multiplier before anything else.

Weight decay is added after the multiplier and before momentum. That ordering
is forced by the kernel-combination invariant: with per-branch L2 the branched
side's combined decay term is sum_b scale_b * (wd * W_b) = wd * W', which is
exactly what "multiply first, then add wd * W'" produces on the single-kernel
side; decaying before masking would instead yield wd * (M o W').
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, ShapeError, UsageError


@dataclass(frozen=True)
class OptimizerConfig:
    base_lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 4e-5
    warmup_epochs: int = 5
    total_epochs: int = 120
    schedule: str = "cosine"
    label_smoothing: float = 0.1
    batch_size: int = 32

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be > 0, got {self.base_lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.schedule not in ("cosine", "constant"):
            raise ConfigError(f"schedule must be cosine or constant, got {self.schedule!r}")
        if self.warmup_epochs < 0 or self.total_epochs <= 0:
            raise ConfigError("epochs must be non-negative (warmup) and positive (total)")
        if self.warmup_epochs > self.total_epochs:
            raise ConfigError(f"warmup_epochs ({self.warmup_epochs}) exceeds "
                              f"total_epochs ({self.total_epochs})")
        if self.batch_size <= 0:
            raise ConfigError(f"batch_size must be > 0, got {self.batch_size}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")


# ---------------------------------------------------------------------------
# branch algebra
# ---------------------------------------------------------------------------
#
# A branched block is a list of branches, each a (k, scales) pair: a k x k
# conv (k odd, padding k // 2, the block's stride) followed by constant
# per-output-channel scales, plus optionally a trainable identity scaling.
# Its single-operator counterpart is one K x K conv, K the largest k: each
# branch's footprint sits centered in it, the identity at the diagonal centers.

def _center(big: int, k: int) -> slice:
    """Rows (or columns) of a k x k footprint centered in a big x big kernel."""
    off = (big - k) // 2
    return slice(off, off + k)


def _diagonal_centers(w: np.ndarray) -> np.ndarray:
    """A view of w[c, c, K // 2, K // 2] for every channel c of a contiguous
    (c, c, K, K) array: the identity branch's taps."""
    c, _, k, _ = w.shape
    return w.reshape(c * c, k * k)[::c + 1, k * k // 2]


def embed_kernel(kernel: np.ndarray, k: int) -> np.ndarray:
    """A square kernel zero-padded to k x k, centered."""
    c_out, c_in, kb, _ = kernel.shape
    out = np.zeros((c_out, c_in, k, k))
    out[:, :, _center(k, kb), _center(k, kb)] = kernel
    return out


def dirac_kernel(c: int, k: int) -> np.ndarray:
    """The k x k kernel of the identity map on c channels."""
    out = np.zeros((c, c, k, k))
    _diagonal_centers(out)[:] = 1.0
    return out


def branch_scales(branches) -> tuple:
    """(K, float64 scale vectors) of a branch list with one or more odd kernel
    sizes and 1-d scale vectors of one length."""
    sizes = [k for k, _ in branches]
    scales = [np.asarray(s, dtype=np.float64) for _, s in branches]
    if not sizes or any(k < 1 or k % 2 != 1 for k in sizes):
        raise ShapeError(f"want one or more branches of odd kernel size, got {sizes}")
    if scales[0].ndim != 1 or any(s.shape != scales[0].shape for s in scales):
        raise ShapeError(f"scale vectors must be 1-d and equal length, got "
                         f"{[s.shape for s in scales]}")
    return max(sizes), scales


def branch_list(branches, c_out: int, block: str = "") -> tuple:
    """A branch list as it comes in from a caller, checked once: (k, float64
    scales) pairs, one or more, each k odd and >= 1 and each scale vector c_out
    finite values. Raises :class:`ShapeError` for a size or shape and
    :class:`ConfigError` for a non-finite scale, naming ``block``."""
    pairs = tuple((k, np.asarray(s, dtype=np.float64)) for k, s in branches)
    sizes = [k for k, _ in pairs]
    if not sizes or any(k < 1 or k % 2 != 1 for k in sizes):
        raise ShapeError(f"block {block}: want one or more branches of odd kernel "
                         f"size, got {sizes}")
    for k, s in pairs:
        if s.shape != (c_out,):
            raise ShapeError(f"block {block}: the {k}x{k} branch needs c_out={c_out} "
                             f"scales, got shape {s.shape}")
        if not np.isfinite(s).all():
            raise ConfigError(f"block {block}: non-finite {k}x{k} branch scales")
    return pairs


def grad_mult(branches, has_identity: bool, c_in: int | None = None) -> np.ndarray:
    """Multiplier tensor for the single K x K kernel backing a branched block:
    the equivalent kernel of branch kernels full of s_b and gamma 1, so sum_b s_b^2
    over branch b's footprint, plus 1 at the diagonal centers with an identity.

    For the (3x3, 1x1, identity) block, entry (c, d, p, q) is s_c^2 away from
    the center, s_c^2 + t_c^2 at the center, and 1 more at diagonal centers.
    """
    _, scales = branch_scales(branches)
    if not np.isfinite(scales).all():
        raise ConfigError("scale vectors must be finite")
    c = scales[0].shape[0]
    c_in = c if c_in is None else c_in
    kernels = [np.full((c, c_in, k, k), s[:, None, None, None])
               for (k, _), s in zip(branches, scales)]
    return equivalent_kernel(branches, kernels, np.ones(c) if has_identity else None)


def equivalent_kernel(branches, kernels, gamma=None) -> np.ndarray:
    """Fold branch kernels into the single equivalent K x K kernel:
    sum_b s_b * embed(W_b), plus gamma * dirac for the identity branch (its
    channel scales, all ones at init).

    Initializes the single kernel, mid-training combines the branched
    counterpart's current kernels when checking the step invariant, and is
    the forward of the hyper-search block's one conv (:func:`ops.fold_kernel`).
    """
    big, scales = branch_scales(branches)
    c_out, c_in = np.shape(kernels[0])[:2]
    if len(kernels) != len(branches) or scales[0].shape != (c_out,) or any(
            np.shape(w) != (c_out, c_in, k, k) for (k, _), w in zip(branches, kernels)):
        raise ShapeError(f"want one ({c_out},{c_in},k,k) kernel per branch of sizes "
                         f"{[k for k, _ in branches]} and scales of shape ({c_out},), "
                         f"got kernels {[np.shape(w) for w in kernels]} and scales "
                         f"{scales[0].shape}")
    w = np.zeros((c_out, c_in, big, big))
    for (k, _), s, wb in zip(branches, scales, kernels):
        fp = _center(big, k)
        w[:, :, fp, fp] += s[:, None, None, None] * wb
    if gamma is not None:
        gamma = np.asarray(gamma, dtype=np.float64)
        if c_in != c_out or gamma.shape != (c_out,):
            raise ShapeError(f"identity term needs square kernel and gamma of shape "
                             f"({c_out},), got c_in={c_in}, gamma {gamma.shape}")
        _diagonal_centers(w)[:] += gamma
    return w


def equivalent_kernel_adjoint(branches, kernels, grad, has_identity: bool) -> tuple:
    """The adjoint of :func:`equivalent_kernel`: from G, the gradient of the
    folded kernel, the gradients of its inputs. Branch b's kernel gets
    s_b * G on b's footprint, its scales sum G_b * W_b per output channel,
    and gamma the diagonal centers of G (None without an identity branch).
    Returns (kernel gradients, scale gradients, gamma gradient)."""
    big, scales = branch_scales(branches)
    dkernels, dscales = [], []
    for (k, _), s, wb in zip(branches, scales, kernels):
        fp = _center(big, k)
        gb = grad[:, :, fp, fp]
        dkernels.append(s[:, None, None, None] * gb)
        dscales.append((gb * wb).sum(axis=(1, 2, 3)))
    dgamma = _diagonal_centers(grad).copy() if has_identity else None
    return dkernels, dscales, dgamma


def equivalent_init(w_s: np.ndarray, w_t: np.ndarray, s, t,
                    gamma=None) -> np.ndarray:
    """The (3x3, 1x1, identity) block's branches folded into one 3x3 kernel;
    a shim kept for its last caller, perfbench's ``train_desk6`` workload."""
    return equivalent_kernel(((3, s), (1, t)), (w_s, w_t), gamma)


# ---------------------------------------------------------------------------
# update rules
# ---------------------------------------------------------------------------

class MultiplierSgd:
    """SGD with momentum, L2 decay and optional per-parameter multipliers.

    With an empty multiplier table this is plain SGD; with the constructed
    multiplier tensors it is the re-parameterizing optimizer.
    """

    def __init__(self, named_params, momentum=0.0, weight_decay=0.0,
                 multipliers=None, managed=()):
        self.params = dict(named_params)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.multipliers = dict(multipliers or {})
        for name in managed:
            if name not in self.params:
                raise UsageError(f"managed name {name!r} is not a model parameter")
            if name not in self.multipliers:
                raise UsageError(f"managed parameter {name!r} has no gradient multiplier")
        for name, mult in self.multipliers.items():
            if name not in self.params:
                raise UsageError(f"multiplier given for unknown parameter {name!r}")
            m = np.asarray(mult)
            if m.ndim and m.shape != self.params[name].data.shape:
                raise ShapeError(
                    f"multiplier for {name!r} has shape {m.shape}, parameter has "
                    f"{self.params[name].data.shape}"
                )
        self.velocities: dict[str, np.ndarray] = {}

    def step(self, lr: float) -> None:
        """One SGD step over the parameters that have a gradient, in place.

        Order per parameter: g = mult * grad, then g += weight_decay * theta,
        then v = momentum * v + g, then theta -= lr * v. Parameters without a
        multiplier use multiplier 1.
        """
        for name, p in self.params.items():
            if p.grad is None:
                continue
            mult = self.multipliers.get(name)
            g = p.grad * mult if mult is not None else np.array(p.grad, copy=True)
            if self.weight_decay:
                g += self.weight_decay * p.data
            v = self.velocities.get(name)
            if v is None:
                v = self.velocities[name] = np.zeros_like(p.data)
            if self.momentum:
                v *= self.momentum
                v += g
            else:
                v[...] = g
            p.data -= lr * v

    def state_arrays(self) -> dict:
        return {f"velocity.{n}": v for n, v in sorted(self.velocities.items())}

    def load_state_arrays(self, arrays: dict) -> None:
        """Restore velocities; each entry must be ``velocity.<parameter>`` and
        have that parameter's shape, or :class:`DataFormatError` is raised."""
        velocities = {}
        for key, arr in arrays.items():
            name = key.removeprefix("velocity.")
            p = self.params.get(name) if name != key else None
            if p is None or np.shape(arr) != p.data.shape:
                raise DataFormatError(
                    f"optimizer state entry {key!r} of shape {np.shape(arr)} is not "
                    "the velocity of a parameter of that shape")
            velocities[name] = np.array(arr, dtype=np.float64)
        self.velocities = velocities


def lr_schedule(cfg: OptimizerConfig, step: int, total_steps: int) -> float:
    """Linear warmup from 0 to base_lr, then cosine decay to 0 at the end."""
    if total_steps <= 0:
        raise ConfigError(f"total_steps must be > 0, got {total_steps}")
    step = min(step, total_steps)
    if cfg.schedule == "constant":
        return cfg.base_lr
    warmup_steps = int(round(total_steps * cfg.warmup_epochs / cfg.total_epochs))
    if step < warmup_steps:
        return cfg.base_lr * step / warmup_steps
    if total_steps == warmup_steps:
        return cfg.base_lr
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return 0.5 * cfg.base_lr * (1.0 + np.cos(np.pi * progress))
