import contextlib
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from gradrep import models, ops
from gradrep.autodiff import Tensor, grad_enabled, no_grad
from gradrep.errors import ConfigError, ShapeError
from gradrep.hypersearch import scales_from_model
from gradrep.layers import BatchNorm2d, Conv2d
from gradrep.models import (
    BLOCK_RECIPE,
    PRESETS,
    CslaBlock,
    BlockInfo,
    ModelSpec,
    PlainBlock,
    RepVggStyleBlock,
    ResidualBlock,
    block_infos,
    build_csla,
    build_hypersearch,
    build_multipliers,
    build_repvgg,
    build_resnet,
    build_target,
    build_target_equivalent_init,
    count_built_params,
    count_flops,
    count_params_inference,
    hs_init_value,
)
from gradrep.rng import Rng
from helpers import init_scales, interior_nodes

TINY = ModelSpec(stem_channels=3, stages=((1, 4), (1, 8)), num_classes=10, input_hw=32)
SMALL = ModelSpec(stem_channels=4, stages=((2, 4), (2, 8)), num_classes=10, input_hw=16)


def ones_scales(spec):
    return {i.block_id: (np.ones(i.c_out), np.ones(i.c_out)) for i in block_infos(spec)}


#: every builder that takes a branch list per block, on SMALL, by its name
SCALED_BUILDERS = {
    "build_csla": lambda scales: build_csla(SMALL, scales, rng=Rng(0)),
    "build_target_equivalent_init":
        lambda scales: build_target_equivalent_init(SMALL, scales, rng=Rng(0)),
    "build_multipliers": lambda scales: build_multipliers(build_target(SMALL), scales),
}

#: every builder kind, on SMALL, by its model kind
BUILDERS = {
    "target": lambda rng: build_target(SMALL, rng=rng),
    "csla": lambda rng: build_csla(SMALL, ones_scales(SMALL), rng=rng),
    "hs": lambda rng: build_hypersearch(SMALL, rng=rng),
    "repvgg": lambda rng: build_repvgg(SMALL, rng=rng),
    "resnet": lambda rng: build_resnet(ModelSpec(4, ((1, 4), (2, 8)), 10, 32), rng=rng),
}


class TestSpecLayout:
    def test_first_block_of_each_stage_strided(self):
        infos = block_infos(SMALL)
        strides = [i.stride for i in infos]
        assert strides == [2, 1, 2, 1]

    def test_identity_iff_shape_preserving(self):
        for info in block_infos(PRESETS["b1"]):
            assert info.has_identity == (info.c_in == info.c_out and info.stride == 1)

    def test_stride2_block_never_identity(self):
        spec = ModelSpec(8, ((2, 8),), 10, 32)  # stem width equals stage width
        infos = block_infos(spec)
        assert not infos[0].has_identity and infos[1].has_identity

    def test_identity_depth_counts_within_stage(self):
        spec = ModelSpec(4, ((4, 8), (3, 8)), 10, 32)
        infos = block_infos(spec)
        assert [i.depth_l for i in infos if i.has_identity] == [1, 2, 3, 1, 2]

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            ModelSpec(0, ((1, 4),), 10, 32)
        with pytest.raises(ConfigError):
            ModelSpec(4, (), 10, 32)
        with pytest.raises(ConfigError):
            ModelSpec.from_stages_string("2x", 4, 10, 32)

    @pytest.mark.parametrize("fields", [
        (8.0, ((1, 4),), 10, 32), (8, ((1, 4),), 10.0, 32), (8, ((1, 4),), 10, 32.5),
        (8, ((1.0, 4),), 10, 32), (8, ((1, True),), 10, 32), (True, ((1, 4),), 10, 32),
    ], ids=["float-stem", "float-classes", "fractional-hw", "float-depth",
            "bool-channels", "bool-stem"])
    def test_spec_wants_integers(self, fields):
        with pytest.raises(ConfigError, match="positive integers"):
            ModelSpec(*fields)

    def test_spec_takes_numpy_integers(self):
        spec = ModelSpec(np.int64(4), ((np.int32(1), np.int64(4)),), np.int64(10), 16)
        assert build_target(spec, rng=Rng(0)).spec == spec

    def test_stages_string_roundtrip(self):
        spec = ModelSpec.from_stages_string("4x128, 6x256", 64, 1000, 224)
        assert spec.stages == ((4, 128), (6, 256))


class TestAccounting:
    # published rows: (layers per stage fixed by preset, params M, flops G)
    ROWS = [("b1", 51.8e6, 11.9e9), ("b2", 80.3e6, 18.4e9),
            ("l1", 76.0e6, 21.0e9), ("l2", 118.1e6, 32.8e9)]

    @pytest.mark.parametrize("name,params,flops", ROWS)
    def test_preset_inference_params(self, name, params, flops):
        got = count_params_inference(PRESETS[name])
        assert abs(got - params) / params < 0.01

    @pytest.mark.parametrize("name,params,flops", ROWS)
    def test_preset_flops_at_224(self, name, params, flops):
        got = count_flops(PRESETS[name])
        assert abs(got - flops) / flops < 0.02

    def test_repvgg_train_params_b1(self):
        got = count_built_params(build_repvgg(PRESETS["b1"]))
        assert abs(got - 57.4e6) / 57.4e6 < 0.01

    def test_tiny_closed_form(self):
        # stem 3->3, blocks 3->4 and 4->8, FC 8->10, all 3x3 convs:
        conv = 3 * 3 * 9 + 4 * 3 * 9 + 8 * 4 * 9
        bn = 2 * 3 + 2 * 4 + 2 * 8
        fc = 10 * 8 + 10
        assert count_built_params(build_target(TINY)) == conv + bn + fc

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc")
    def test_paper_presets_count_without_writing_kernels(self):
        # the counts read zero skeletons, whose kernels are never written, so
        # their pages are never touched; written kernels would need 0.4-1 GB
        # per preset
        child = textwrap.dedent("""
            from gradrep.models import PRESETS, build_repvgg, count_built_params
            from gradrep.models import count_flops, count_params_inference
            for name in ("b1", "b2", "l1", "l2"):
                spec = PRESETS[name]
                count_params_inference(spec), count_flops(spec)
                count_built_params(build_repvgg(spec))
            # the peak RSS of this process image; getrusage's ru_maxrss would
            # also carry the peak of the process that started it
            with open("/proc/self/status") as fh:
                print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
        """)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
            os.path.abspath(models.__file__))))
        proc = subprocess.run([sys.executable, "-c", child], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) / 1024 < 200  # VmHWM is in KiB


class TestBuilders:
    def test_families_shape_identical_outputs(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 16, 16))
        shapes = set()
        for model in (build_target(SMALL, rng=Rng(1)),
                      build_csla(SMALL, ones_scales(SMALL), rng=Rng(1)),
                      build_hypersearch(SMALL, rng=Rng(1))):
            shapes.add(model.forward(x, training=False).shape)
        assert shapes == {(2, 10)}

    def test_forward_deterministic(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 16, 16))
        a = build_target(SMALL, rng=Rng(3)).forward(x).data
        b = build_target(SMALL, rng=Rng(3)).forward(x).data
        assert a.tobytes() == b.tobytes()

    def test_csla_missing_block_record_errors(self):
        scales = ones_scales(SMALL)
        scales.pop("s2b1")
        with pytest.raises(ConfigError) as err:
            build_csla(SMALL, scales, rng=Rng(0))
        assert "s2b1" in str(err.value)

    @pytest.mark.parametrize("build", SCALED_BUILDERS.values(), ids=SCALED_BUILDERS)
    def test_csla_channel_mismatch_errors(self, build):
        scales = ones_scales(SMALL)
        scales["s1b0"] = (np.ones(3), np.ones(3))
        with pytest.raises(ShapeError) as err:
            build(scales)
        assert "s1b0" in str(err.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("build", SCALED_BUILDERS.values(), ids=SCALED_BUILDERS)
    def test_non_finite_scale_rejected_naming_the_block(self, build, bad):
        # a builder that took it would make a model whose forward is NaN
        scales = ones_scales(SMALL)
        scales["s2b1"][1][2] = bad
        with pytest.raises(ConfigError, match="block s2b1: non-finite 1x1"):
            build(scales)

    def test_equivalent_init_rejects_branches_wider_than_the_plain_kernel(self):
        scales = init_scales(SMALL)
        scales.records[0].branches = ((5, np.ones(block_infos(SMALL)[0].c_out)),)
        with pytest.raises(ShapeError) as err:
            build_target_equivalent_init(SMALL, scales, rng=Rng(0))
        assert "s1b0" in str(err.value)

    @pytest.mark.parametrize("k", [1000000001, 1], ids=["too-wide", "all-1x1"])
    @pytest.mark.parametrize("build", SCALED_BUILDERS.values(), ids=SCALED_BUILDERS)
    def test_branch_not_filling_3x3_rejected_before_anything_is_drawn(self, build, k,
                                                                      monkeypatch):
        # the last block's one branch is wider than 3x3 (and would not fit in
        # memory) or narrower (a 1x1 fold in a padded 3x3 conv grows the output):
        # refused naming the block before the stem's kernel is drawn
        scales = init_scales(SMALL)
        last = block_infos(SMALL)[-1]
        scales.records[-1].branches = ((k, np.ones(last.c_out)),)
        monkeypatch.setattr(Rng, "gaussian", lambda self, shape: pytest.fail(f"drew {shape}"))
        with pytest.raises(ShapeError, match=rf"block {last.block_id}: branches of sizes "
                                             rf"\[{k}\] do not fold into a 3x3 kernel"):
            build(scales)

    def test_hs_scale_init_values(self):
        assert hs_init_value(2) == pytest.approx(1.0)
        assert hs_init_value(1) == pytest.approx(np.sqrt(2.0))
        assert hs_init_value(8) == pytest.approx(0.5)
        model = build_hypersearch(SMALL, rng=Rng(0))
        for block in model.blocks:
            want = hs_init_value(block.info.depth_l)
            np.testing.assert_allclose(block.scale3.values, want)
            np.testing.assert_allclose(block.scale1.values, want)
            if block.info.has_identity:
                np.testing.assert_allclose(block.gamma.values, 1.0)

    def test_recipe_blocks(self):
        # the hyper-search and three-branch blocks both follow BLOCK_RECIPE;
        # the baseline's names and their order are those its checkpoints hold
        assert all(b.sizes == BLOCK_RECIPE for b in build_hypersearch(SMALL, rng=Rng(0)).blocks)
        block = RepVggStyleBlock(BlockInfo(0, "b", 4, 4, 1, True, 1))
        assert [n for n, _ in block.named_parameters()] == [
            "conv3.weight", "bn3.gamma", "bn3.beta", "conv1.weight", "bn1.gamma",
            "bn1.beta", "bnid.gamma", "bnid.beta"]

    def test_hs_all_ones_init(self):
        model = build_hypersearch(SMALL, rng=Rng(0), init="all_ones")
        for block in model.blocks:
            np.testing.assert_array_equal(block.scale3.values, 1.0)
            np.testing.assert_array_equal(block.scale1.values, 1.0)
        with pytest.raises(ConfigError):
            build_hypersearch(SMALL, rng=Rng(0), init="ones")

    def test_hs_forward_is_the_equivalent_init_target(self):
        # the folded hyper-search block and the equivalent-init builder run
        # the one branch algebra, so from equal streams they agree bit for bit
        x = np.random.default_rng(1).normal(size=(2, 3, 16, 16))
        hs = build_hypersearch(SMALL, rng=Rng(5))
        target = build_target_equivalent_init(SMALL, scales_from_model(hs), rng=Rng(5))
        assert hs.forward(x).data.tobytes() == target.forward(x).data.tobytes()

    def test_hs_matches_csla_with_same_constants(self):
        # one conv against the branches it folds: equal up to round-off
        x = np.random.default_rng(1).normal(size=(2, 3, 16, 16))
        hs = build_hypersearch(SMALL, rng=Rng(5))
        csla = build_csla(SMALL, scales_from_model(hs), rng=Rng(5))
        want, got = csla.forward(x).data, hs.forward(x).data
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_eval_csla_equals_equivalent_init_target(self):
        # the defining property of the equivalent kernel, end to end
        x = np.random.default_rng(2).normal(size=(2, 3, 16, 16))
        rng = np.random.default_rng(3)
        scales = {
            i.block_id: (rng.uniform(0.4, 1.4, i.c_out), rng.uniform(0.4, 1.4, i.c_out))
            for i in block_infos(SMALL)
        }
        csla = build_csla(SMALL, scales, rng=Rng(11))
        target = build_target_equivalent_init(SMALL, scales, rng=Rng(11))
        np.testing.assert_allclose(
            csla.forward(x).data, target.forward(x).data, atol=1e-12, rtol=0
        )

    def test_degenerate_csla_block_is_plain_conv(self):
        # s = 1, t = 0, no identity, zeroed 1x1 kernel
        info = BlockInfo(0, "b", 3, 4, 2, False, 1)
        rng_seed = 9
        block = CslaBlock(info, ((3, np.ones(4)), (1, np.zeros(4))), False,
                          rng=Rng(rng_seed))
        block.conv1.weight.data[:] = 0.0
        plain = PlainBlock(info)
        plain.conv.weight.data = block.conv3.weight.data.copy()
        x = np.random.default_rng(4).normal(size=(2, 3, 8, 8))
        np.testing.assert_allclose(
            block.forward(Tensor(x), training=False).data,
            plain.forward(Tensor(x), training=False).data,
            atol=1e-14,
        )

    def test_repvgg_reduces_to_plain_conv_when_extras_zeroed(self):
        info = BlockInfo(0, "b", 4, 4, 1, True, 1)
        block = RepVggStyleBlock(info, rng=Rng(2))
        # main-branch BN becomes the exact identity map
        block.bn3.running_var = np.full(4, 1.0 - ops.BN_EPS)
        # zero out the 1x1 and identity contributions
        block.conv1.weight.data[:] = 0.0
        block.bnid.gamma.data[:] = 0.0
        x = np.random.default_rng(5).normal(size=(2, 4, 8, 8))
        got = block.forward(Tensor(x), training=False).data
        want = ops.relu(
            ops.conv2d(Tensor(x), Tensor(block.conv3.weight.data), 1, 1)
        ).data
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_ghost_block_without_identity_is_plain_1x1(self):
        block = CslaBlock(BlockInfo(0, "b", 4, 4, 1, False, 1), ((1, np.ones(4)),),
                          False, rng=Rng(3))
        x = np.random.default_rng(6).normal(size=(2, 4, 6, 6))
        got = block.forward(Tensor(x), training=False).data
        conv = ops.conv2d(Tensor(x), Tensor(block.conv1.weight.data))
        bn = BatchNorm2d(4)
        want = ops.relu(bn.forward(conv, training=False)).data
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_resnet_reference_structure(self):
        model = build_resnet(ModelSpec(8, ((4, 8), (6, 16), (16, 32)), 10, 32), rng=Rng(0))
        residual = [b for b in model.blocks if isinstance(b, ResidualBlock)]
        assert len(model.blocks) == 26 and len(residual) == 23

    def test_zero_residual_branch_is_identity(self):
        block = ResidualBlock(BlockInfo(0, "b", 4, 4, 1, True, 1), rng=Rng(1))
        block.conv_b.weight.data[:] = 0.0
        x = np.abs(np.random.default_rng(8).normal(size=(2, 4, 6, 6)))
        out = block.forward(Tensor(x), training=False).data
        np.testing.assert_allclose(out, x, atol=1e-14)

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
    def test_builder_without_rng_is_a_zero_skeleton(self, build):
        seeded, skeleton = build(Rng(0)), build(None)

        def layout(model):
            return [(section, name, getattr(holder, attribute).shape)
                    for section, name, holder, attribute in model.state_slots()]

        assert layout(skeleton) == layout(seeded)
        kernels = [name for name, _ in seeded.named_parameters() if name.endswith(".weight")]
        assert len(kernels) >= len(seeded.blocks) + 2  # stem, blocks, head
        drawn, zero = dict(seeded.named_parameters()), dict(skeleton.named_parameters())
        for name in kernels:
            assert np.any(drawn[name].data), name
            assert not np.any(zero[name].data), name

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
    @pytest.mark.parametrize("grad_on", [True, False])
    def test_eval_forward_records_no_tape(self, build, grad_on, monkeypatch):
        model = build(Rng(4))
        x = np.random.default_rng(4).normal(size=(2, 3, 16, 16))
        nodes, init = [], Tensor.__init__

        def counting_init(self, data, requires_grad=False, parents=(), backward=None):
            if backward is not None:
                nodes.append(backward)
            init(self, data, requires_grad, parents, backward)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        with contextlib.nullcontext() if grad_on else no_grad():
            logits = model.forward(x, training=False)
            assert grad_enabled() == grad_on
        assert nodes == [] and logits._parents == ()
        model.forward(x, training=True)
        assert len(nodes) > 0  # the spy sees a taped forward

    def test_gr_managed_params_are_block_kernels(self):
        model = build_target(SMALL, rng=Rng(0))
        names = model.gr_managed_params()
        assert names == [f"blocks.{i}.conv.weight" for i in range(4)]
        all_names = dict(model.named_parameters())
        assert set(names) <= set(all_names)


class TestTapeMemory:
    def test_plain_block_forward_holds_two_activations(self):
        # the tape keeps the conv output (BN's input) and the BN->ReLU output;
        # x-hat, the pre-ReLU output and the conv columns are not kept. The
        # 256 KiB slack covers the cached gather plan of a first call.
        block = PlainBlock(BlockInfo(0, "b", 8, 8, 1, True, 1), rng=Rng(3))
        x = Tensor(np.random.default_rng(3).normal(size=(128, 8, 16, 16)),
                   requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = block.forward(x, training=True)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 2 * out.data.nbytes + 256 * 2**10


class TestFoldedHypersearch:
    """The hyper-search block runs one conv with the folded kernel; a
    branched forward built here from the separate ops is its reference."""

    @staticmethod
    def branched_forward(model, x):
        # every branch conv, trainable scale and identity path as its own node
        t = model.stem_bn.forward(model.stem_conv.forward(Tensor(x)), True, relu=True)
        for b in model.blocks:
            z = None
            for k in b.sizes:
                y = ops.conv2d(t, getattr(b, f"conv{k}").weight, b.info.stride, k // 2)
                y = ops.channel_scale(y, getattr(b, f"scale{k}").scale)
                z = y if z is None else ops.add(z, y)
            if b.info.has_identity:
                z = ops.add(z, ops.channel_scale(t, b.gamma.scale))
            t = b.bn.forward(z, True, relu=True)
        return model.fc.forward(ops.global_avg_pool(t))

    def test_loss_and_gradients_match_the_branched_reference(self):
        x = np.random.default_rng(6).normal(size=(8, 3, 32, 32))
        labels = np.arange(8) % 10
        results = []
        for forward in (lambda m: m.forward(x, training=True),
                        lambda m: self.branched_forward(m, x)):
            model = build_hypersearch(PRESETS["desk4"], rng=Rng(6))
            loss = ops.cross_entropy(forward(model), labels, 0.1)
            loss.backward()
            results.append((loss.item(), dict(model.named_parameters())))
        (folded_loss, folded), (loss, branched) = results
        assert abs(folded_loss - loss) <= 1e-12 * abs(loss)
        for name, p in branched.items():
            diff = np.abs(folded[name].grad - p.grad).max()
            assert diff <= 1e-12 * np.abs(p.grad).max(), name

    def test_desk4_step_records_17_tape_nodes(self):
        # stem conv and BN, per block fold + conv + BN, pool, FC, loss; the
        # branched block took 33: per block two convs, two or three scales,
        # one or two adds and BN
        model = build_hypersearch(PRESETS["desk4"], rng=Rng(0))
        x = np.random.default_rng(0).normal(size=(2, 3, 32, 32))
        loss = ops.cross_entropy(model.forward(x, training=True), np.array([1, 2]))
        assert len(interior_nodes(loss)) == 17
