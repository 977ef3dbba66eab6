"""Differentiable layer primitives.

All ops take and return :class:`~gradrep.autodiff.Tensor` values and register
their backward closures on the tape.

Convolution lowers to im2col columns and one batched matmul. The columns come
from a single gather (``np.take``) through a flat index plan, cached per input
channels, height, width, kernel, stride and padding but not batch size; padded
taps read one zero sentinel. A 1x1 kernel without padding needs no gather: its
columns are the input itself, or a strided slice of it at stride 2. The input
gradient of a stride-1 conv is the same gather applied to the output gradient,
with the flipped, transposed kernel, and again one matmul. Strided convs with
k > 1 map column gradients back to the input (col2im) by the adjoint gather:
each input position takes the few taps that read it and sums them.

The lowering walks the batch in even sample chunks of at most
``_CHUNK_ELEMS`` column elements, about half an L2 cache, and every product
above runs chunk by chunk into one preallocated output. Only a conv whose
columns fit in one chunk keeps them for backward; any other rebuilds each
chunk's columns from its input for the kernel gradient, so no column array
outlives the op. That relies on the input array being unchanged between
forward and backward: ops never write their inputs in place, and the
optimizer updates ``Parameter.data`` only after backward. The kernel gradient
sums its per-sample products in sample order across chunks, so chunking
changes no bit.

Train-mode batch norm keeps no normalized input (x-hat) on the tape: it keeps
the batch mean and inverse std, and backward re-derives x-hat from the input,
which the tape already holds as the conv or add output. With ``relu=True``
BN and the ReLU after it are one node whose ReLU runs in place on the BN
output, so a conv->BN->ReLU stack stores two activations, the conv output and
the node's output. Gradients are handed over, not copied (see
:mod:`gradrep.autodiff`): each backward owns the gradient it is called with,
so ``relu`` and batch norm mask it and build dx in that same buffer.

Every reduction runs in a fixed order, so repeated runs on the same machine
are bit-identical.
"""

from __future__ import annotations

import functools

import numpy as np

from .autodiff import Tensor, grad_enabled
from .errors import ShapeError, UsageError
from .optim import equivalent_kernel, equivalent_kernel_adjoint


def _needs(*tensors) -> bool:
    return grad_enabled() and any(t.requires_grad for t in tensors)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

#: most im2col column elements one chunk of samples gathers at a time: 1 MiB
#: of float64, half the 2 MiB per-core L2 cache of the machine it was tuned on
_CHUNK_ELEMS = 2**17


def conv_output_hw(h: int, w: int, k_h: int, k_w: int, stride: int, padding: int):
    out_h = (h + 2 * padding - k_h) // stride + 1
    out_w = (w + 2 * padding - k_w) // stride + 1
    return out_h, out_w


@functools.lru_cache(maxsize=256)
def _gather_index(c, h, w, k_h, k_w, stride, pad_h, pad_w):
    """Flat im2col index into one sample's c*h*w values plus a zero sentinel.

    Entry (ci, p, q, i, j) points at x[ci, i*stride + p - pad_h, j*stride + q -
    pad_w], or at the sentinel (position c*h*w) when that tap lands in the
    padding; a negative padding crops. The batch size is not part of the key.
    Every call shares the cached array. It stays writeable, because take()
    copies a read-only index on each call, so callers must not write to it.
    Every entry is in range by construction, so callers take() with
    ``mode="wrap"``, which skips the bounds check that ``"raise"`` does.
    """
    out_h = (h + 2 * pad_h - k_h) // stride + 1
    out_w = (w + 2 * pad_w - k_w) // stride + 1
    rows = (np.arange(out_h).reshape(1, 1, out_h, 1) * stride
            + np.arange(k_h).reshape(k_h, 1, 1, 1) - pad_h)
    cols = (np.arange(out_w).reshape(1, 1, 1, out_w) * stride
            + np.arange(k_w).reshape(1, k_w, 1, 1) - pad_w)
    idx = np.arange(c).reshape(c, 1, 1, 1, 1) * (h * w) + rows * w + cols
    idx[:, (rows < 0) | (rows >= h) | (cols < 0) | (cols >= w)] = c * h * w
    return idx.ravel()


def _im2col(x: np.ndarray, k_h: int, k_w: int, stride: int, pad_h: int, pad_w: int):
    """(n, c, h, w) -> (n, c*k_h*k_w, out_h*out_w) columns by one gather."""
    n, c, h, w = x.shape
    idx = _gather_index(c, h, w, k_h, k_w, stride, pad_h, pad_w)
    src = x.reshape(n, c * h * w)
    if pad_h > 0 or pad_w > 0:
        src = np.concatenate((src, np.zeros((n, 1), dtype=x.dtype)), axis=1)
    return src.take(idx, axis=1, mode="wrap").reshape(n, c * k_h * k_w, -1)


@functools.lru_cache(maxsize=256)
def _col2im_index(c, h, w, k_h, k_w, stride, padding):
    """The adjoint of :func:`_gather_index`, also as a gather.

    For every input position (ci, y, x) and each of the ceil(k_h/stride) *
    ceil(k_w/stride) slots of taps that can read it, the flat column index of
    (ci, p, q, i, j) with i*stride + p - padding = y and j*stride + q - padding
    = x, or the sentinel c*k_h*k_w*out_h*out_w where that tap does not exist.
    One row per slot, in (p, q) order. Shared and writeable like
    :func:`_gather_index`.
    """
    out_h = (h + 2 * padding - k_h) // stride + 1
    out_w = (w + 2 * padding - k_w) // stride + 1
    slots_h, slots_w = -(-k_h // stride), -(-k_w // stride)
    y = np.arange(h).reshape(1, 1, h, 1) + padding
    x = np.arange(w).reshape(1, 1, 1, w) + padding
    p = y % stride + stride * np.arange(slots_h).reshape(slots_h, 1, 1, 1)
    q = x % stride + stride * np.arange(slots_w).reshape(1, slots_w, 1, 1)
    i, j = (y - p) // stride, (x - q) // stride
    length = out_h * out_w
    idx = (np.arange(c).reshape(c, 1, 1, 1, 1) * (k_h * k_w * length)
           + (p * k_w + q) * length + i * out_w + j)
    missing = (p >= k_h) | (i < 0) | (i >= out_h) | (q >= k_w) | (j < 0) | (j >= out_w)
    idx[:, missing] = c * k_h * k_w * length
    return idx.transpose(1, 2, 0, 3, 4).reshape(slots_h * slots_w, c * h * w)


def _col2im(dcols, c, h, w, k_h, k_w, stride, padding):
    """(n, c*k_h*k_w, out_h*out_w) column gradients -> (n, c, h, w): every
    input position gathers the taps that read it, one slot at a time, and
    sums them in (p, q) order."""
    n = dcols.shape[0]
    slots = _col2im_index(c, h, w, k_h, k_w, stride, padding)
    src = np.concatenate((dcols.reshape(n, -1), np.zeros((n, 1), dtype=dcols.dtype)), axis=1)
    dx = src.take(slots[0], axis=1, mode="wrap")
    for slot in slots[1:]:
        dx += src.take(slot, axis=1, mode="wrap")
    return dx.reshape(n, c, h, w)


def _chunks(n: int, cols_per_sample: int):
    """Split n samples into even slices of at most _CHUNK_ELEMS column
    elements each (one sample at least); also returns the longest length."""
    parts = -(-n * cols_per_sample // _CHUNK_ELEMS)
    step = -(-n // parts)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)], step


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0,
           bias: Tensor | None = None) -> Tensor:
    """2-D convolution (cross-correlation) with zero padding.

    ``x`` is (n, c_in, h, w), ``w`` is (c_out, c_in, k_h, k_w); output is
    (n, c_out, (h+2p-k_h)//s + 1, (w+2p-k_w)//s + 1).
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(
            f"conv2d expects rank-4 input and kernel, got {x.data.shape} and {w.data.shape}"
        )
    n, c_in, h, wd = x.data.shape
    c_out, kc_in, k_h, k_w = w.data.shape
    if c_in != kc_in:
        raise ShapeError(
            f"conv2d channel mismatch: input shape {x.data.shape} has {c_in} channels, "
            f"kernel shape {w.data.shape} expects {kc_in}"
        )
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d needs stride >= 1 and padding >= 0, got {stride}, {padding}")
    out_h, out_w = conv_output_hw(h, wd, k_h, k_w, stride, padding)
    if out_h < 1 or out_w < 1:
        raise ShapeError(
            f"conv2d output collapses: input {x.data.shape}, kernel {w.data.shape}, "
            f"stride {stride}, padding {padding}"
        )

    pointwise = k_h == k_w == 1 and padding == 0
    xd = x.data
    if pointwise:
        # a 1x1 kernel's columns are x itself, subsampled at stride > 1
        def columns(s):
            return xd[s, :, ::stride, ::stride].reshape(-1, c_in, out_h * out_w)
    else:
        def columns(s):
            return _im2col(xd[s], k_h, k_w, stride, padding, padding)
    chunks, step = _chunks(n, c_in * k_h * k_w * out_h * out_w)
    w2 = w.data.reshape(c_out, c_in * k_h * k_w)
    out2 = np.empty((n, c_out, out_h * out_w), dtype=np.result_type(w2, xd))
    for s in chunks:
        cols = columns(s)
        np.matmul(w2, cols, out=out2[s])
    if bias is not None:
        out2 += bias.data.reshape(1, c_out, 1)
    out_data = out2.reshape(n, c_out, out_h, out_w)

    parents = (x, w) if bias is None else (x, w, bias)
    if not _needs(*parents):
        return Tensor(out_data)
    if len(chunks) == 1:  # columns that fit one chunk are kept, not rebuilt
        kept = cols
        columns = lambda s: kept

    def backward(g):
        g2 = g.reshape(n, c_out, out_h * out_w)
        if w.requires_grad:
            # row 0 carries the sum so far (none before the first chunk), so
            # the batch sum runs in sample order, as one sum over all would
            buf = np.empty((step + 1,) + w2.shape, dtype=np.result_type(g2, xd))
            lo = 1
            for s in chunks:
                m = s.stop - s.start
                np.matmul(g2[s], columns(s).transpose(0, 2, 1), out=buf[1:m + 1])
                buf[0] = buf[lo:m + 1].sum(axis=0)
                lo = 0
            # a compact copy, so the chunk buffer does not outlive the step
            w.accumulate_grad(buf[0].reshape(w.data.shape).copy())
        if x.requires_grad:
            dx = (np.zeros if pointwise and stride > 1 else np.empty)(
                xd.shape, dtype=np.result_type(w2, g2))
            dx3 = dx.reshape(n, c_in, h * wd)
            if not pointwise and stride == 1:
                # full correlation of g with the flipped, transposed kernel
                wt = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, -1)
            for s in chunks:
                if pointwise and stride == 1:
                    np.matmul(w2.T, g2[s], out=dx3[s])
                elif pointwise:
                    dx[s, :, ::stride, ::stride] = np.matmul(w2.T, g2[s]).reshape(
                        -1, c_in, out_h, out_w)
                elif stride == 1:
                    gcols = _im2col(g[s], k_h, k_w, 1, k_h - 1 - padding, k_w - 1 - padding)
                    np.matmul(wt, gcols, out=dx3[s])
                else:
                    dx[s] = _col2im(np.matmul(w2.T, g2[s]), c_in, h, wd, k_h, k_w,
                                    stride, padding)
            x.accumulate_grad(dx)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(0, 2, 3)))

    return Tensor(out_data, parents=parents, backward=backward)


# ---------------------------------------------------------------------------
# elementwise / channelwise
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    out_data = a.data + b.data
    if not _needs(a, b):
        return Tensor(out_data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            # a's gradient may be g itself, which a's own backward may write
            b.accumulate_grad(g.copy())

    return Tensor(out_data, parents=(a, b), backward=backward)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)
    if not _needs(x):
        return Tensor(out_data)

    def backward(g):
        # max(x, 0) > 0 exactly where x > 0, so no mask is kept from forward
        g *= out_data > 0
        x.accumulate_grad(g)

    return Tensor(out_data, parents=(x,), backward=backward)


def channel_scale(x: Tensor, scale: Tensor) -> Tensor:
    """Multiply each channel of (n, c, h, w) input by a length-c vector."""
    c = x.data.shape[1]
    if scale.data.shape != (c,):
        raise ShapeError(
            f"channel_scale: input shape {x.data.shape} needs scale of shape ({c},), "
            f"got {scale.data.shape}"
        )
    s4 = scale.data.reshape(1, c, 1, 1)
    out_data = x.data * s4
    if not _needs(x, scale):
        return Tensor(out_data)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * s4)
        if scale.requires_grad:
            scale.accumulate_grad((g * x.data).sum(axis=(0, 2, 3)))

    return Tensor(out_data, parents=(x, scale), backward=backward)


def fold_kernel(kernels, scales, gamma: Tensor | None = None) -> Tensor:
    """The one K x K kernel of a branched block whose branch scales are
    tensors: :func:`~gradrep.optim.equivalent_kernel` of the (k, scales)
    branches, k each kernel's size, plus gamma at the diagonal centers.
    Backward is the fold's adjoint,
    :func:`~gradrep.optim.equivalent_kernel_adjoint`."""
    branches = tuple((w.data.shape[-1], s.data) for w, s in zip(kernels, scales))
    arrays = [w.data for w in kernels]
    out_data = equivalent_kernel(branches, arrays, None if gamma is None else gamma.data)
    parents = (*kernels, *scales) + (() if gamma is None else (gamma,))
    if not _needs(*parents):
        return Tensor(out_data)

    def backward(g):
        dkernels, dscales, dgamma = equivalent_kernel_adjoint(branches, arrays, g,
                                                              gamma is not None)
        for t, d in zip(parents, (*dkernels, *dscales, dgamma)):
            if t.requires_grad:
                t.accumulate_grad(d)

    return Tensor(out_data, parents=parents, backward=backward)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

def batchnorm_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5,
                    relu: bool = False):
    """Train-mode BN over (n, h, w) per channel, followed by a ReLU in place
    when ``relu`` is set, as one tape node.

    Returns (out, batch_mean, batch_var_population); the caller updates its
    running statistics from the returned batch stats. Batches of fewer than
    two samples are rejected (batch variance is not meaningful there).

    Backward re-derives x-hat from ``x`` by the same two expressions as
    forward, so every bit is as if x-hat had been kept.
    """
    n, c, h, w = x.data.shape
    if n < 2:
        raise UsageError(f"batchnorm in train mode needs batch size >= 2, got {n}")
    m = n * h * w
    x3 = x.data.reshape(n, c, h * w)
    mu = np.einsum("nck->c", x3) / m
    out3 = x3 - mu[:, None]
    var = np.einsum("nck,nck->c", out3, out3) / m
    inv_std = 1.0 / np.sqrt(var + eps)
    out3 *= inv_std[:, None]  # x-hat, turned into the output in place
    out3 *= gamma.data[:, None]
    out3 += beta.data[:, None]
    if relu:
        np.maximum(out3, 0.0, out=out3)
    out_data = out3.reshape(n, c, h, w)

    if not _needs(x, gamma, beta):
        return Tensor(out_data), mu, var

    def backward(g):
        if relu:
            # max(y, 0) > 0 exactly where y > 0
            g *= out_data > 0
        g3 = g.reshape(n, c, h * w)
        xhat = x3 - mu[:, None]
        xhat *= inv_std[:, None]
        sum_g = np.einsum("nck->c", g3)
        sum_gx = np.einsum("nck,nck->c", g3, xhat)
        if gamma.requires_grad:
            gamma.accumulate_grad(sum_gx)
        if beta.requires_grad:
            beta.accumulate_grad(sum_g)
        if x.requires_grad:
            a = gamma.data * inv_std
            b = a * sum_gx / m
            c0 = a * sum_g / m
            g3 *= a[:, None]
            xhat *= b[:, None]
            g3 -= xhat
            g3 -= c0[:, None]
            x.accumulate_grad(g3.reshape(n, c, h, w))

    out = Tensor(out_data, parents=(x, gamma, beta), backward=backward)
    return out, mu, var


def batchnorm_eval(x: Tensor, gamma: Tensor, beta: Tensor,
                   running_mean: np.ndarray, running_var: np.ndarray,
                   eps: float = 1e-5, relu: bool = False) -> Tensor:
    """Eval-mode BN: per-channel affine map from frozen running statistics,
    followed by a ReLU when ``relu`` is set, all in one output buffer.
    Forward only: the result records no tape node, so no gradient flows back
    through it (training runs BN in train mode)."""
    c = x.data.shape[1]
    inv_std = 1.0 / np.sqrt(running_var + eps)
    scale = (gamma.data * inv_std).reshape(1, c, 1, 1)
    shift = (beta.data - gamma.data * running_mean * inv_std).reshape(1, c, 1, 1)
    out = x.data * scale
    out += shift
    if relu:
        np.maximum(out, 0.0, out=out)
    return Tensor(out)


# ---------------------------------------------------------------------------
# pooling, linear, losses
# ---------------------------------------------------------------------------

def global_avg_pool(x: Tensor) -> Tensor:
    """(n, c, h, w) -> (n, c) spatial mean."""
    n, c, h, w = x.data.shape
    out_data = x.data.mean(axis=(2, 3))
    if not _needs(x):
        return Tensor(out_data)

    def backward(g):
        x.accumulate_grad(
            np.broadcast_to(g.reshape(n, c, 1, 1) / (h * w), x.data.shape).copy()
        )

    return Tensor(out_data, parents=(x,), backward=backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """(n, d) @ (k, d).T + (k,)."""
    if x.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(
            f"linear: input shape {x.data.shape} incompatible with weight {w.data.shape}"
        )
    out_data = x.data @ w.data.T + b.data
    if not _needs(x, w, b):
        return Tensor(out_data)

    def backward(g):
        if w.requires_grad:
            w.accumulate_grad(g.T @ x.data)
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=0))
        if x.requires_grad:
            x.accumulate_grad(g @ w.data)

    return Tensor(out_data, parents=(x, w, b), backward=backward)


def cross_entropy(logits: Tensor, labels: np.ndarray, label_smoothing: float = 0.0) -> Tensor:
    """Mean softmax cross-entropy over the batch with optional label smoothing."""
    n, k = logits.data.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"cross_entropy: logits {logits.data.shape} need {n} labels, "
                         f"got shape {labels.shape}")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    target = np.full((n, k), label_smoothing / k, dtype=logits.data.dtype)
    target[np.arange(n), labels] += 1.0 - label_smoothing
    out_data = -(target * logp).sum() / n
    if not _needs(logits):
        return Tensor(out_data)

    softmax = np.exp(logp)

    def backward(g):
        logits.accumulate_grad(g * (softmax - target) / n)

    return Tensor(out_data, parents=(logits,), backward=backward)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target array."""
    target = np.asarray(target, dtype=pred.data.dtype)
    if target.shape != pred.data.shape:
        raise ShapeError(f"mse_loss shape mismatch: {pred.data.shape} vs {target.shape}")
    diff = pred.data - target
    out_data = (diff * diff).mean()
    if not _needs(pred):
        return Tensor(out_data)

    def backward(g):
        pred.accumulate_grad(g * 2.0 * diff / diff.size)

    return Tensor(out_data, parents=(pred,), backward=backward)
