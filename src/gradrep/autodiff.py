"""Reverse-mode automatic differentiation over dense numpy arrays.

A forward computation builds a tape of :class:`Tensor` nodes; each node caches
its forward value and a closure that routes the incoming gradient to its
parents. ``backward()`` on a scalar loss walks the tape once in reverse
topological order and leaves ``.grad`` (same shape as ``.data``) on every leaf
that requires gradients.

The walk frees the tape as it goes: once an interior node has passed its
gradient on, it drops that gradient, its closure (and with it the arrays the
closure saved for backward) and its parent links. Leaves, the nodes without
parents such as :class:`Parameter`, keep ``.grad``. A graph therefore
supports one backward pass; a second one that reaches a freed node, from the
old loss or from a new one built on top of it, raises
:class:`~gradrep.errors.UsageError`.

Gradient arrays are handed over, not copied: the first array a tensor
receives becomes its ``.grad``, and later ones are added into it. So an op
hands each array it builds to one tensor only (``add`` gives its second
parent a copy), and a backward closure owns the gradient it is called with:
it may write to it in place and hand it on, as the batch-norm node does.

Inside ``with no_grad():`` the ops record no tape at all: they return plain
tensors without parents or closures, for forward passes that are never
differentiated, such as evaluation. Grad mode is per thread: ``no_grad()``
in one thread leaves every other thread's mode as it was, and a new thread
starts with grad mode on. So evaluation batches may run on worker threads
while the calling thread goes on to train.

A tensor converts non-float input to float64 and keeps float32 as given; the
layers and the data path create float64 arrays throughout, so models compute
in float64.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from .errors import UsageError


class _GradMode(threading.local):
    enabled = True  # the class value is each new thread's default


_GRAD_MODE = _GradMode()


def grad_enabled() -> bool:
    """False inside :func:`no_grad` in this thread, where ops record no tape."""
    return _GRAD_MODE.enabled


@contextlib.contextmanager
def no_grad():
    """Run the block without recording a tape in this thread; the previous
    state returns on exit, also when the block raises."""
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def _released(g):
    raise UsageError(
        "backward() reached a node whose tape an earlier backward() freed; "
        "a graph supports one backward pass"
    )


class Tensor:
    """One node of the tape: cached value, cached gradient, parent links."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float64, np.float32):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self._parents = tuple(parents)
        # a recorded node passes gradients on, so it asks for one too
        self.requires_grad = bool(requires_grad or self._parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` to ``.grad``. The first array is kept as ``.grad``
        itself, so the op that hands it over must not hand it to any other
        tensor or write to it afterwards."""
        if self.grad is None:
            self.grad = g if g.dtype == self.data.dtype else g.astype(self.data.dtype)
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse pass from a scalar node; fills .grad on the leaves and
        frees the interior of the tape as it goes."""
        if self.data.size != 1:
            raise UsageError(
                f"backward() starts from a scalar, got shape {self.data.shape}"
            )
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            # popping drops the walk's own reference, so a freed node whose
            # value nobody else holds is collected here
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None
                node._backward = _released
                # requires_grad stays set, so a later pass that reaches the
                # freed node raises instead of dropping what flows there
                node._parents = ()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """A trainable leaf; its name is its path in the module tree (``state_slots``)."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)

