"""Layer and block classes composing the autodiff ops into trainable modules.

A module owns named parameters (trainable) and named buffers (state carried
across steps, e.g. BN running statistics). Parameter names are hierarchical
("blocks.0.conv3.weight") and are the keys used by checkpoints and by the
gradient-multiplier optimizer.

One walk, :meth:`Module.state_slots`, lists every stored array as a slot: its
checkpoint section and name, and the holder attribute it lives in. Parameter
and buffer listings filter that walk; a checkpoint restore fills its slots.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .autodiff import Parameter, Tensor
from .rng import Rng, msra_init

BN_MOMENTUM = 0.1


class Module:
    """Minimal module tree with one walk over its stored arrays (its slots)."""

    _buffers = ()  # attribute names of this module's buffers

    def state_slots(self, prefix: str = ""):
        """Yield ``(section, name, holder, attribute)`` for every stored array:
        ``("param", name, parameter, "data")`` per parameter and
        ``("buffer", name, module, key)`` per buffer, children in attribute
        order and a module's own buffers after them."""
        for key, val in vars(self).items():
            name = f"{prefix}{key}"
            if isinstance(val, Parameter):
                yield "param", name, val, "data"
            elif isinstance(val, Module):
                yield from val.state_slots(f"{name}.")
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        yield from item.state_slots(f"{name}.{i}.")
        for key in self._buffers:
            yield "buffer", f"{prefix}{key}", self, key

    def named_parameters(self, prefix: str = ""):
        for section, name, holder, _ in self.state_slots(prefix):
            if section == "param":
                yield name, holder

    def named_buffers(self, prefix: str = ""):
        for section, name, holder, key in self.state_slots(prefix):
            if section == "buffer":
                yield name, getattr(holder, key)

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None


class Conv2d(Module):
    """Bias-free k x k conv padded k // 2; deploy-form biases come from folding BN."""

    def __init__(self, c_in, c_out, k, stride=1, rng: Rng | None = None):
        self.c_in, self.c_out, self.k = c_in, c_out, k
        self.stride = stride
        w = (msra_init((c_out, c_in, k, k), rng=rng) if rng is not None
             else np.zeros((c_out, c_in, k, k)))
        self.weight = Parameter(w)

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.weight, stride=self.stride, padding=self.k // 2)


class BatchNorm2d(Module):
    """BN with trainable gamma/beta and running statistics buffers.

    Train mode normalizes with batch statistics (population variance) and
    updates running stats with momentum :data:`BN_MOMENTUM`, the running
    variance using the unbiased estimator. Eval mode applies the frozen affine
    map. Both add :data:`gradrep.ops.BN_EPS` to the variance.
    """

    _buffers = ("running_mean", "running_var")

    def __init__(self, c):
        self.c = c
        self.gamma = Parameter(np.ones(c))
        self.beta = Parameter(np.zeros(c))
        self.running_mean = np.zeros(c)
        self.running_var = np.ones(c)

    def forward(self, x: Tensor, training: bool, relu: bool = False) -> Tensor:
        """BN, then a ReLU when ``relu`` is set; in train mode the two are
        one tape node, in eval mode one output buffer."""
        if training:
            out, mu, var = ops.batchnorm_train(x, self.gamma, self.beta, relu=relu)
            n, _, h, w = x.data.shape
            m = n * h * w
            var_unbiased = var * (m / (m - 1.0))
            self.running_mean = (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mu
            self.running_var = (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var_unbiased
            return out
        return ops.batchnorm_eval(x, self.gamma, self.beta, self.running_mean,
                                  self.running_var, relu=relu)


class ChannelScale(Module):
    """Per-channel scale values that their block applies: the parameter
    ``scale`` when trainable, else constants that are neither a parameter nor
    a buffer, so no checkpoint stores them."""

    def __init__(self, values: np.ndarray, trainable: bool):
        values = np.asarray(values, dtype=np.float64)
        if trainable:
            self.scale = Parameter(values.copy())
        else:
            self.const_scale = values.copy()
        self.trainable = trainable

    @property
    def values(self) -> np.ndarray:
        return self.scale.data if self.trainable else self.const_scale


class Linear(Module):
    def __init__(self, d_in, d_out, rng: Rng | None = None):
        if rng is not None:
            w = np.sqrt(2.0 / d_in) * rng.gaussian((d_out, d_in))
        else:
            w = np.zeros((d_out, d_in))
        self.weight = Parameter(w)
        self.bias = Parameter(np.zeros(d_out))

    def forward(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)
