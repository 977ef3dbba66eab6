"""Shared test helpers: scalar test losses for gradient checks, a tape walk,
the hyper-search initial scales of a spec, read without building a model,
and the whole-network counterpart harness (CSLA against repopt)."""

import numpy as np

from gradrep.autodiff import Tensor
from gradrep.errors import ShapeError
from gradrep.hypersearch import ScaleRecord, ScalesFile
from gradrep.models import (
    block_infos,
    build_csla,
    build_multipliers,
    build_target,
    build_target_equivalent_init,
    hs_branches,
)
from gradrep.optim import MultiplierSgd
from gradrep.rng import Rng
from gradrep.train import train_model


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
    return ScalesFile([ScaleRecord(i.block_id, hs_branches(i, mode))
                       for i in block_infos(spec)], {"source": f"init:{mode}"})


def train_family(family, spec, scales, train_set, cfg, augment, ablation=None):
    """Train CSLA (``"csla"``) or repopt (``"repopt"``: the plain model with
    the equivalent-kernel start and the gradient multipliers) through
    ``train_model``; every family draws its kernels and data from the same two
    streams. ``ablation`` drops one of repopt's two rules. Returns the model
    and its per-epoch training losses."""
    rng, stream = Rng.spawn(3, 2)
    if family == "csla":
        model = build_csla(spec, scales, rng=rng)
        mults, managed = {}, ()
    else:
        model = (build_target(spec, rng=rng) if ablation == "skip_reinit"
                 else build_target_equivalent_init(spec, scales, rng=rng))
        mults = build_multipliers(model, scales)
        if ablation == "skip_gradmult":
            mults = {name: np.ones_like(m) for name, m in mults.items()}
        managed = tuple(model.gr_managed_params())
    opt = MultiplierSgd(dict(model.named_parameters()), momentum=cfg.momentum,
                        weight_decay=cfg.weight_decay, multipliers=mults, managed=managed)
    result = train_model(model, opt, train_set, None, cfg, stream, augment=augment,
                         eval_each_epoch=False)
    return model, result.train_loss


def kernel_gap(plain, csla) -> float:
    """Max-abs gap between the plain model's block kernels and the equivalent
    kernels of each CSLA block's own branches and identity scale."""
    return float(max(np.abs(cb.equivalent_kernel() - pb.conv.weight.data).max()
                     for pb, cb in zip(plain.blocks, csla.blocks)))
