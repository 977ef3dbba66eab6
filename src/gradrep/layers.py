"""Layer and block classes composing the autodiff ops into trainable modules.

A module owns named parameters (trainable) and named buffers (state carried
across steps, e.g. BN running statistics). Parameter names are hierarchical
("blocks.0.conv3.weight") and are the keys used by checkpoints and by the
gradient-multiplier optimizer.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .autodiff import Parameter, Tensor
from .errors import DataFormatError, ShapeError
from .rng import Rng, msra_init

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class Module:
    """Minimal module tree with named parameter/buffer traversal."""

    def named_parameters(self, prefix: str = ""):
        for key, val in vars(self).items():
            name = f"{prefix}{key}"
            if isinstance(val, Parameter):
                yield name, val
            elif isinstance(val, Module):
                yield from val.named_parameters(f"{name}.")
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{name}.{i}.")

    def named_buffers(self, prefix: str = ""):
        for key, val in vars(self).items():
            name = f"{prefix}{key}"
            if isinstance(val, Module):
                yield from val.named_buffers(f"{name}.")
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        yield from item.named_buffers(f"{name}.{i}.")
        for key in getattr(self, "_buffers", ()):
            yield f"{prefix}{key}", getattr(self, key)

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def load_arrays(self, params: dict, buffers: dict, prefix: str = ""):
        """Overwrite every parameter/buffer value in place from name->array
        dicts; a name the dicts lack raises :class:`DataFormatError`."""
        own = dict(self.named_parameters(prefix))
        own_buf = dict(self.named_buffers(prefix))
        missing = sorted(set(own) - set(params)) + sorted(set(own_buf) - set(buffers))
        if missing:
            raise DataFormatError(f"stored arrays lack {len(missing)} of this model's "
                                  f"parameters and buffers: {missing}")
        for name, arr in params.items():
            if name not in own:
                raise ShapeError(f"unknown parameter {name!r} for this model")
            if own[name].data.shape != arr.shape:
                raise ShapeError(
                    f"parameter {name!r}: stored shape {arr.shape} vs model shape "
                    f"{own[name].data.shape}"
                )
            own[name].data = np.array(arr, dtype=own[name].data.dtype)
        for name, arr in buffers.items():
            if name not in own_buf:
                raise ShapeError(f"unknown buffer {name!r} for this model")
            self._assign_buffer(name, arr, prefix)

    def _assign_buffer(self, dotted: str, arr, prefix: str = ""):
        if prefix and dotted.startswith(prefix):
            dotted = dotted[len(prefix):]
        parts = dotted.split(".")
        obj = self
        for part in parts[:-1]:
            obj = obj[int(part)] if isinstance(obj, (list, tuple)) else getattr(obj, part)
        if hasattr(obj, "_set_buffer"):
            obj._set_buffer(parts[-1], arr)
        else:
            setattr(obj, parts[-1], np.array(arr, dtype=np.float64))


class Conv2d(Module):
    """Bias-free convolution layer; deploy-form biases come from folding BN."""

    def __init__(self, c_in, c_out, k, stride=1, padding=0, rng: Rng | None = None):
        self.c_in, self.c_out, self.k = c_in, c_out, k
        self.stride, self.padding = stride, padding
        w = (msra_init((c_out, c_in, k, k), rng=rng) if rng is not None
             else np.zeros((c_out, c_in, k, k)))
        self.weight = Parameter(w, name="weight")

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.weight, stride=self.stride, padding=self.padding)


class BatchNorm2d(Module):
    """BN with trainable gamma/beta and running statistics buffers.

    Train mode normalizes with batch statistics (population variance) and
    updates running stats with momentum 0.1, the running variance using the
    unbiased estimator. Eval mode applies the frozen affine map.
    """

    _buffers = ("running_mean", "running_var")

    def __init__(self, c, eps=BN_EPS, momentum=BN_MOMENTUM):
        self.c = c
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(c), name="gamma")
        self.beta = Parameter(np.zeros(c), name="beta")
        self.running_mean = np.zeros(c)
        self.running_var = np.ones(c)

    def forward(self, x: Tensor, training: bool) -> Tensor:
        if training:
            out, mu, var = ops.batchnorm_train(x, self.gamma, self.beta, eps=self.eps)
            n, _, h, w = x.data.shape
            m = n * h * w
            var_unbiased = var * (m / (m - 1.0))
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mu
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var_unbiased
            return out
        return ops.batchnorm_eval(x, self.gamma, self.beta,
                                  self.running_mean, self.running_var, eps=self.eps)


class ChannelScale(Module):
    """Per-channel multiplicative scaling, trainable or constant.

    Constant scales are checkpointed as the buffer ``const_scale`` so a loaded
    model reproduces the original constants bit for bit.
    """

    def __init__(self, values: np.ndarray, trainable: bool):
        values = np.asarray(values, dtype=np.float64)
        if trainable:
            self.scale = Parameter(values.copy(), name="scale")
        else:
            self.scale = Tensor(values.copy())
            self._buffers = ("const_scale",)
        self.trainable = trainable

    @property
    def values(self) -> np.ndarray:
        return self.scale.data

    @property
    def const_scale(self) -> np.ndarray:
        return self.scale.data

    def _set_buffer(self, key, arr):
        if key != "const_scale":
            raise ShapeError(f"unknown buffer {key!r} on ChannelScale")
        self.scale.data = np.array(arr, dtype=np.float64)

    def forward(self, x: Tensor) -> Tensor:
        return ops.channel_scale(x, self.scale)


class Linear(Module):
    def __init__(self, d_in, d_out, rng: Rng | None = None):
        if rng is not None:
            w = np.sqrt(2.0 / d_in) * rng.gaussian((d_out, d_in))
        else:
            w = np.zeros((d_out, d_in))
        self.weight = Parameter(w, name="weight")
        self.bias = Parameter(np.zeros(d_out), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)
