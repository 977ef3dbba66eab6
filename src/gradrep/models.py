"""Model families: plain target nets, branched linear-addition (CSLA) nets,
their hyper-search variants, three-branch conversion baselines, and a residual
reference, plus parameter/FLOPs accounting.

:data:`BLOCK_RECIPE` is the paper's block: the kernel sizes of its branches
(3x3, 1x1), plus an identity wherever a block keeps its shape. A branched
block's scales are its branch list, ``((k, scales), ...)``: the builders take
them per block from a scales file, or from the shorthand mapping block_id ->
one scale vector per recipe branch, and check each with
:func:`gradrep.optim.branch_list`.

All builders share one stem / blocks / head skeleton (:func:`_assemble`): a
stride-2 3x3 stem conv with BN+ReLU, stages whose first block has stride 2,
and a global-average-pool + FC head. A builder's one source of randomness is
its ``rng``: it draws every kernel from that stream in a fixed order (stem,
blocks in sequence, head). :func:`build_target_equivalent_init` draws none
itself but folds a :func:`build_csla` model, so from equal streams the two are
exact counterparts by construction. Without an ``rng`` a builder draws nothing
and every kernel is zero: the skeleton that
:func:`gradrep.checkpoint.restore_model` fills from stored arrays.

The hyper-search block trains as one 3x3 conv with its branches folded into
the equivalent kernel; the constant-scale CSLA and RepVGG-style blocks run
their branches (see :class:`CslaBlock`).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import ops
from .autodiff import Tensor, no_grad
from .errors import ConfigError, ShapeError
from .layers import BatchNorm2d, ChannelScale, Conv2d, Linear, Module
from .optim import branch_list, equivalent_kernel, grad_mult
from .rng import Rng


@dataclass(frozen=True)
class ModelSpec:
    """Stage layout: stem width, (num_layers, channels) per stage, head size."""

    stem_channels: int
    stages: tuple
    num_classes: int
    input_hw: int

    def __post_init__(self):
        if not self.stages or any(len(st) != 2 for st in self.stages):
            raise ConfigError(f"want (num_layers, channels) stages, got {self.stages}")
        sizes = (self.stem_channels, self.num_classes, self.input_hw,
                 *(v for st in self.stages for v in st))
        # Python or numpy integers; a bool or an integral float is not one
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v > 0
                   for v in sizes):
            raise ConfigError(f"model spec sizes must be positive integers: {self}")

    @staticmethod
    def from_stages_string(text, stem_channels, num_classes, input_hw):
        """Parse '4x128,6x256' into a spec."""
        stages = []
        for part in text.split(","):
            try:
                n, c = part.strip().split("x")
                stages.append((int(n), int(c)))
            except ValueError as exc:
                raise ConfigError(f"bad stage entry {part!r}; want NxC") from exc
        return ModelSpec(stem_channels, tuple(stages), num_classes, input_hw)


#: settings of the published four-stage plain-model family (the B/L rows):
#: stage depths, stage widths, stem width 64, 1000 classes, 224x224 input.
PRESETS = {
    "b1": ModelSpec(64, ((4, 128), (6, 256), (16, 512), (1, 2048)), 1000, 224),
    "b2": ModelSpec(64, ((4, 160), (6, 320), (16, 640), (1, 2560)), 1000, 224),
    "l1": ModelSpec(64, ((8, 128), (14, 256), (24, 512), (1, 2048)), 1000, 224),
    "l2": ModelSpec(64, ((8, 160), (14, 320), (24, 640), (1, 2560)), 1000, 224),
    # desk-scale specs for CPU experiments
    "desk6": ModelSpec(8, ((2, 8), (2, 16), (2, 32)), 10, 32),
    "desk4": ModelSpec(8, ((2, 8), (2, 16)), 10, 32),
}

#: kernel sizes of the branches of the hyper-search and three-branch blocks
BLOCK_RECIPE = (3, 1)


@dataclass(frozen=True)
class BlockInfo:
    index: int
    block_id: str
    c_in: int
    c_out: int
    stride: int
    has_identity: bool
    depth_l: int  # identity-bearing blocks count 1, 2, ... within each stage


@dataclass(frozen=True)
class CslaBlockSpec:
    """Description of one branched linear-addition block: channel counts,
    stride, the branches as (odd kernel size, constant per-channel scales)
    pairs, and whether the trainable identity scaling exists."""

    c_in: int
    c_out: int
    stride: int
    branches: tuple
    has_identity: bool

    def __post_init__(self):
        if self.stride not in (1, 2):
            raise ConfigError(f"stride must be 1 or 2, got {self.stride}")
        if self.has_identity and (self.c_in != self.c_out or self.stride != 1):
            raise ConfigError(
                "has_identity needs c_in == c_out and stride == 1 "
                f"(c_in={self.c_in}, c_out={self.c_out}, stride={self.stride})"
            )
        branch_list(self.branches, self.c_out,
                    f"{self.c_in}->{self.c_out} stride {self.stride}")

    @staticmethod
    def square(c: int, s, t) -> "CslaBlockSpec":
        """The (3x3, 1x1, identity) block on c channels; this shim, :attr:`s`
        and :attr:`t` are kept for their last caller, perfbench's lockstep_block."""
        return CslaBlockSpec(c, c, 1, ((3, tuple(np.asarray(s, dtype=float))),
                                       (1, tuple(np.asarray(t, dtype=float)))), True)

    @property
    def s(self) -> tuple:
        """Scales of the first branch (the 3x3 branch of a :meth:`square`)."""
        return self.branches[0][1]

    @property
    def t(self) -> tuple:
        """Scales of the second branch (the 1x1 branch of a :meth:`square`)."""
        return self.branches[1][1]


def block_infos(spec: ModelSpec) -> list[BlockInfo]:
    """Static block layout; has_identity iff c_in == c_out and stride == 1."""
    infos = []
    prev_c = spec.stem_channels
    idx = 0
    for si, (num_layers, channels) in enumerate(spec.stages, start=1):
        id_depth = 0
        for bi in range(num_layers):
            stride = 2 if bi == 0 else 1
            c_in = prev_c if bi == 0 else channels
            has_id = c_in == channels and stride == 1
            if has_id:
                id_depth += 1
            infos.append(BlockInfo(idx, f"s{si}b{bi}", c_in, channels, stride,
                                   has_id, id_depth if has_id else 1))
            idx += 1
        prev_c = channels
    return infos


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def branched_sum(x: Tensor, kernels, scales, stride: int, gamma=None) -> Tensor:
    """A branched block's linear part, branch by branch: sum_b s_b * conv_k(x)
    (+ gamma * x), each k x k kernel padded k // 2, s_b and gamma per channel."""
    z = None
    for w, s in zip(kernels, scales):
        y = ops.channel_scale(ops.conv2d(x, w, stride, w.data.shape[-1] // 2), s)
        z = y if z is None else ops.add(z, y)
    if gamma is not None:
        z = ops.add(z, ops.channel_scale(x, gamma))
    return z


class PlainBlock(Module):
    """Single 3x3 conv -> BN -> ReLU."""

    def __init__(self, info: BlockInfo, rng=None):
        self.info = info
        self.conv = Conv2d(info.c_in, info.c_out, 3, info.stride, rng=rng)
        self.bn = BatchNorm2d(info.c_out)

    def forward(self, x, training):
        return self.bn.forward(self.conv.forward(x), training, relu=True)


class CslaBlock(Module):
    """Branched linear addition: sum_b s_b * conv_kxk(x) (+ gamma * identity),
    then BN and ReLU. ``branches`` lists (k, scales) pairs; the builders hand
    the block checked lists (:func:`_block_branches`, :func:`hs_branches`), so
    it checks only that the sizes are distinct, because branch k owns
    ``conv{k}`` and ``scale{k}``. Scales are constants in
    the branched counterpart and trainable in the hyper-search variant; gamma
    is always trainable. The identity branch exists iff ``info.has_identity``.
    The hyper-search model builds the :data:`BLOCK_RECIPE` branches.

    With trainable scales the block is ``folded``: it runs as one K x K conv
    whose kernel is the equivalent kernel of its branches, one tape node
    (:func:`ops.fold_kernel`) whose backward routes the kernel's gradient to
    every branch kernel, scale and gamma. The sum before BN is linear in the
    input, so this is the same map and the same gradients up to round-off.
    The constant-scale block runs its branches (:func:`branched_sum`): it is
    the independent counterpart the single-operator model is checked against,
    and the branched baseline of the training-cost comparison."""

    def __init__(self, info: BlockInfo, branches, trainable, rng=None):
        self.info = info
        self.sizes = tuple(k for k, _ in branches)
        if len(set(self.sizes)) != len(self.sizes):
            raise ConfigError(f"block {info.block_id}: branch sizes must be distinct, "
                              f"got {self.sizes}")
        # conv3, conv1, ... then scale3, scale1, ...: the parameter order
        # that optimizers and digests see
        for k in self.sizes:
            setattr(self, f"conv{k}", Conv2d(info.c_in, info.c_out, k, info.stride, rng=rng))
        for k, s in branches:
            setattr(self, f"scale{k}", ChannelScale(s, trainable))
        if info.has_identity:
            self.gamma = ChannelScale(np.ones(info.c_out), trainable=True)
        self.bn = BatchNorm2d(info.c_out)
        self.folded = trainable
        self.capture = False
        self.last_identity = None
        self.last_sum = None

    @property
    def branches(self) -> tuple:
        """The (k, current scale values) pair of every branch, in branch order."""
        return tuple((k, getattr(self, f"scale{k}").values) for k in self.sizes)

    def equivalent_kernel(self) -> np.ndarray:
        """The fold of the block's current branch kernels, scales and identity scale."""
        return equivalent_kernel(self.branches,
                                 [getattr(self, f"conv{k}").weight.data for k in self.sizes],
                                 self.gamma.values if self.info.has_identity else None)

    def forward(self, x, training):
        kernels = [getattr(self, f"conv{k}").weight for k in self.sizes]
        gamma = self.gamma.scale if self.info.has_identity else None
        if self.folded:
            w = ops.fold_kernel(kernels, [getattr(self, f"scale{k}").scale
                                          for k in self.sizes], gamma)
            z = ops.conv2d(x, w, stride=self.info.stride, padding=w.data.shape[-1] // 2)
        else:
            z = branched_sum(x, kernels, [Tensor(s) for _, s in self.branches],
                             self.info.stride, gamma)
        if self.capture and self.info.has_identity:
            # the identity path as the branched block computes it
            self.last_identity = x.data * self.gamma.values.reshape(1, -1, 1, 1)
            self.last_sum = z.data
        return self.bn.forward(z, training, relu=True)


class RepVggStyleBlock(Module):
    """A ``conv{k}`` + ``bn{k}`` pair per :data:`BLOCK_RECIPE` branch k and an
    identity BN, summed then ReLU; the conversion/quantization baseline."""

    def __init__(self, info: BlockInfo, rng=None):
        self.info = info
        self.sizes = BLOCK_RECIPE
        for k in self.sizes:
            setattr(self, f"conv{k}", Conv2d(info.c_in, info.c_out, k, info.stride, rng=rng))
            setattr(self, f"bn{k}", BatchNorm2d(info.c_out))
        if info.has_identity:
            self.bnid = BatchNorm2d(info.c_out)

    def forward(self, x, training):
        z = None
        for k in self.sizes:
            y = getattr(self, f"bn{k}").forward(getattr(self, f"conv{k}").forward(x), training)
            z = y if z is None else ops.add(z, y)
        if self.info.has_identity:
            z = ops.add(z, self.bnid.forward(x, training))
        return ops.relu(z)


class ResidualBlock(Module):
    """conv3-BN-ReLU-conv3-BN plus identity, post-add ReLU."""

    def __init__(self, info: BlockInfo, rng=None):
        self.info = info
        c = info.c_out
        self.conv_a = Conv2d(c, c, 3, 1, rng=rng)
        self.bn_a = BatchNorm2d(c)
        self.conv_b = Conv2d(c, c, 3, 1, rng=rng)
        self.bn_b = BatchNorm2d(c)
        self.capture = False
        self.last_identity = None
        self.last_sum = None

    def forward(self, x, training):
        h = self.bn_a.forward(self.conv_a.forward(x), training, relu=True)
        h = self.bn_b.forward(self.conv_b.forward(h), training)
        z = ops.add(x, h)
        if self.capture:
            self.last_identity = x.data
            self.last_sum = z.data
        return ops.relu(z)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

class Model(Module):
    """Stem conv/BN/ReLU, a flat block list, GAP + FC head."""

    def __init__(self, kind, spec, stem_conv, stem_bn, blocks, fc):
        self.kind = kind
        self.spec = spec
        self.stem_conv = stem_conv
        self.stem_bn = stem_bn
        self.blocks = blocks
        self.fc = fc

    def forward(self, x, training=False):
        """Logits of a batch; an eval forward records no tape."""
        with contextlib.nullcontext() if training else no_grad():
            t = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
            t = self.stem_bn.forward(self.stem_conv.forward(t), training, relu=True)
            for block in self.blocks:
                t = block.forward(t, training)
            return self.fc.forward(ops.global_avg_pool(t))

    def set_capture(self, flag: bool):
        for block in self.blocks:
            if hasattr(block, "capture"):
                block.capture = bool(flag)

    def gr_managed_params(self):
        """Names of the block kernels the multiplier optimizer manages."""
        if self.kind != "target":
            return []
        return [f"blocks.{i}.conv.weight" for i in range(len(self.blocks))]


def _assemble(kind, spec: ModelSpec, rng: Rng | None, make_block) -> Model:
    """The shared skeleton: stem conv + BN, ``make_block(info, rng)`` for every
    block in order, FC head, all drawn from one stream (all zero without one)."""
    stem_conv = Conv2d(3, spec.stem_channels, 3, 2, rng=rng)
    stem_bn = BatchNorm2d(spec.stem_channels)
    blocks = [make_block(info, rng) for info in block_infos(spec)]
    fc = Linear(spec.stages[-1][1], spec.num_classes, rng=rng)
    return Model(kind, spec, stem_conv, stem_bn, blocks, fc)


def _block_branches(spec: ModelSpec, scales) -> dict:
    """block_id -> branch list of every block of ``spec``, from a ScalesFile-like
    object (records with ``.branches``) or from the mapping shorthand block_id ->
    one scale vector per :data:`BLOCK_RECIPE` branch. Every list is checked by
    :func:`branch_list` and to have a 3x3 branch as its largest, the plain
    kernel's size, before anything is drawn."""
    if hasattr(scales, "records"):
        lookup = {r.block_id: r.branches for r in scales.records}
    else:
        lookup = {b: tuple(zip(BLOCK_RECIPE, v, strict=True)) for b, v in scales.items()}
    checked = {}
    for info in block_infos(spec):
        if info.block_id not in lookup:
            raise ConfigError(f"scales file has no record for block {info.block_id!r}")
        branches = branch_list(lookup[info.block_id], info.c_out, info.block_id)
        if max(k for k, _ in branches) != 3:
            raise ShapeError(f"block {info.block_id}: branches of sizes "
                             f"{[k for k, _ in branches]} do not fold into a 3x3 kernel")
        checked[info.block_id] = branches
    return checked


def build_target(spec: ModelSpec, rng: Rng | None = None) -> Model:
    """Plain stack: one 3x3 conv + BN + ReLU per block, MSRA init."""
    return _assemble("target", spec, rng,
                     lambda info, rng: PlainBlock(info, rng=rng))


def build_target_equivalent_init(spec: ModelSpec, scales, rng: Rng) -> Model:
    """Plain stack started at a freshly initialized :func:`build_csla`
    counterpart with the given constant scales: its stem, stem BN and head,
    and each block's :meth:`CslaBlock.equivalent_kernel`. From equal streams
    the two models are exact training counterparts."""
    csla = build_csla(spec, scales, rng=rng)
    model = build_target(spec)
    model.stem_conv, model.stem_bn, model.fc = csla.stem_conv, csla.stem_bn, csla.fc
    for plain, block in zip(model.blocks, csla.blocks):
        plain.conv.weight.data = block.equivalent_kernel()
    return model


def build_csla(spec: ModelSpec, scales, rng: Rng | None = None) -> Model:
    """The branched constant-scale counterpart (never trained in production;
    exists so its dynamics can be verified against the multiplier optimizer)."""
    branches = _block_branches(spec, scales)
    return _assemble("csla", spec, rng, lambda info, rng: CslaBlock(
        info, branches[info.block_id], False, rng=rng))


def hs_init_value(depth_l: int) -> float:
    """Depth-indexed init for trainable branch scales: sqrt(2 / l)."""
    if depth_l < 1:
        raise ConfigError(f"depth index must be >= 1, got {depth_l}")
    return float(np.sqrt(2.0 / depth_l))


def hs_branches(info: BlockInfo, init: str) -> tuple:
    """The :data:`BLOCK_RECIPE` branches of one block at their hyper-search
    init: every scale sqrt(2/l) with ``init="hs_init"``, or 1 with
    ``init="all_ones"`` (the control arm of the init study)."""
    if init not in ("hs_init", "all_ones"):
        raise ConfigError(f"init must be hs_init or all_ones, got {init!r}")
    vec = np.full(info.c_out, hs_init_value(info.depth_l) if init == "hs_init" else 1.0)
    return tuple((k, vec) for k in BLOCK_RECIPE)


def build_hypersearch(spec: ModelSpec, rng: Rng | None = None,
                      init: str = "hs_init") -> Model:
    """Branched model with trainable scales at :func:`hs_branches` and
    identity scales at 1."""
    return _assemble("hs", spec, rng, lambda info, rng: CslaBlock(
        info, hs_branches(info, init), trainable=True, rng=rng))


def build_repvgg(spec: ModelSpec, rng: Rng | None = None) -> Model:
    return _assemble("repvgg", spec, rng,
                     lambda info, rng: RepVggStyleBlock(info, rng=rng))


def build_resnet(spec: ModelSpec, rng: Rng | None = None) -> Model:
    """Residual reference for the identity-variance study: a residual block
    wherever a block keeps its shape, a plain block where it does not."""
    return _assemble("resnet", spec, rng, lambda info, rng: (
        ResidualBlock(info, rng=rng) if info.has_identity else PlainBlock(info, rng=rng)))


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

def _deploy_convs(spec: ModelSpec):
    """The convs of the deploy form, read from the zero skeleton of
    :func:`build_target` (no kernel is drawn or written): the stem conv, then
    one per block, each with its output side; and the FC head."""
    model = build_target(spec)
    hw, convs = spec.input_hw, []
    for conv in [model.stem_conv, *(block.conv for block in model.blocks)]:
        hw = ops.conv_output_hw(hw, hw, conv.k, conv.k, conv.stride, conv.k // 2)[0]
        convs.append((conv, hw))
    return convs, model.fc


def count_params_inference(spec: ModelSpec) -> int:
    """Deploy-form parameter count, read from the zero skeleton: every block
    folded to one biased 3x3 conv, stem conv folded with its BN, the FC head."""
    convs, fc = _deploy_convs(spec)
    return sum(c.weight.data.size + c.c_out for c, _ in convs) + count_built_params(fc)


def count_flops(spec: ModelSpec) -> int:
    """Deploy-form compute in multiply-accumulates at ``spec.input_hw``, read
    from the zero skeleton.

    Convention: one MAC counts as one FLOP; only the deploy form's convs and
    the FC head count (stem conv, one biased conv per block, FC); BN, ReLU,
    pooling and biases count zero. With it, the b1/b2/l1/l2 presets at
    224x224 land within 2% of the published 11.9/18.4/21.0/32.8 GFLOPs.
    """
    convs, fc = _deploy_convs(spec)
    return sum(hw * hw * c.weight.data.size for c, hw in convs) + fc.weight.data.size


def count_built_params(model: Module) -> int:
    """Trainable parameters of a built module; a builder's zero skeleton
    (no ``rng``) counts without drawing or writing a kernel."""
    return sum(p.data.size for _, p in model.named_parameters())


def build_multipliers(model: Model, scales) -> dict:
    """Multiplier tensors for every managed block kernel of a plain target
    model, derived on demand from a scales file (or the (s, t) shorthand)."""
    branches = _block_branches(model.spec, scales)
    return {f"blocks.{i}.conv.weight": grad_mult(branches[b.info.block_id],
                                                 b.info.has_identity, c_in=b.info.c_in)
            for i, b in enumerate(model.blocks)}
