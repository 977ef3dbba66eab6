"""Shared test helpers: scalar test losses for gradient checks, a tape walk,
and the hyper-search initial scales of a spec, read without building a model."""

import numpy as np

from gradrep.autodiff import Tensor
from gradrep.errors import ShapeError
from gradrep.hypersearch import ScaleRecord, ScalesFile
from gradrep.models import block_infos, hs_branches


def weighted_sum(x: Tensor, weights: np.ndarray) -> Tensor:
    """Scalar sum(x * weights) for a constant weight array."""
    weights = np.asarray(weights, dtype=x.data.dtype)
    if weights.shape != x.data.shape:
        raise ShapeError(f"weighted_sum shape mismatch: {x.data.shape} vs {weights.shape}")

    def backward(g):
        x.accumulate_grad(g * weights)

    return Tensor((x.data * weights).sum(), parents=(x,), backward=backward)


def tsum(x: Tensor) -> Tensor:
    """Scalar sum of all elements."""

    def backward(g):
        x.accumulate_grad(np.broadcast_to(g, x.data.shape).copy())

    return Tensor(x.data.sum(), parents=(x,), backward=backward)


def interior_nodes(root):
    """Every node of root's tape that has parents (root included)."""
    found, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in found and node._parents:
            found[id(node)] = node
            stack.extend(node._parents)
    return list(found.values())


def init_scales(spec, mode: str = "hs_init") -> ScalesFile:
    """The branch scales of every block of ``spec`` at their hyper-search init."""
    return ScalesFile([ScaleRecord(i.block_id, i.c_out, i.has_identity, i.depth_l,
                                   hs_branches(i, mode)) for i in block_infos(spec)],
                      {"source": f"init:{mode}"})
