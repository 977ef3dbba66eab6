import numpy as np
import pytest

from gradrep import ops
from gradrep.autodiff import Parameter, Tensor, grad_enabled
from gradrep.data import gen_synthetic
from gradrep.equivlab import (
    _Pair,
    convert_model,
    convert_repvgg_block,
    fuse_bn,
    identity_variance_ratio,
    spearman,
    verify_csla_gr,
)
from gradrep.errors import ConfigError, ShapeError
from gradrep.layers import BatchNorm2d
from gradrep.models import (
    BlockInfo,
    CslaBlock,
    CslaBlockSpec,
    ModelSpec,
    PRESETS,
    RepVggStyleBlock,
    block_infos,
    build_csla,
    build_hypersearch,
    build_repvgg,
    build_resnet,
    build_target,
)
from gradrep.optim import MultiplierSgd, OptimizerConfig, dirac_kernel, embed_kernel
from gradrep.rng import Rng
from helpers import kernel_gap, train_family

PLAIN_SGD = OptimizerConfig(base_lr=0.1, momentum=0.0, weight_decay=0.0,
                            schedule="constant", warmup_epochs=0, total_epochs=1,
                            label_smoothing=0.0, batch_size=4)
HEAVY_SGD = OptimizerConfig(base_lr=0.01, momentum=0.9, weight_decay=4e-5,
                            schedule="constant", warmup_epochs=0, total_epochs=1,
                            label_smoothing=0.0, batch_size=4)


def block_c8():
    """The (3x3, 1x1, identity) block on 8 channels."""
    rng = np.random.default_rng(42)
    return CslaBlockSpec(8, 8, 1, ((3, rng.uniform(0.4, 1.4, 8)),
                                   (1, rng.uniform(0.4, 1.4, 8))), True)


def scalar_spec(alpha_a, alpha_b, c=2):
    """Two 3x3 branches with scalar scales, no identity."""
    return CslaBlockSpec(c, c, 1, ((3, np.full(c, alpha_a)), (3, np.full(c, alpha_b))),
                         False)


def ghost_spec(c, t=0.8):
    """A constant-scaled 1x1 branch plus the trainable identity scaling."""
    return CslaBlockSpec(c, c, 1, ((1, np.full(c, t)),), True)


class TestCounterpartTheorem:
    def test_scalar_two_branch_50_steps(self):
        report = verify_csla_gr(scalar_spec(0.9, 0.35), 50, PLAIN_SGD, seed=7, hw=8)
        assert report.max_output_divergence <= 1e-10
        assert report.max_kernel_divergence <= 1e-10
        assert len(report.output_divergence) == 50

    def test_full_block_momentum_decay_100_steps(self):
        report = verify_csla_gr(block_c8(), 100, HEAVY_SGD, seed=11, hw=16)
        assert report.max_output_divergence <= 1e-8
        assert report.max_kernel_divergence <= 1e-10

    def test_strided_block_without_identity(self):
        rng = np.random.default_rng(3)
        block = CslaBlockSpec(4, 8, 2, ((3, tuple(rng.uniform(0.5, 1.5, 8))),
                                        (1, tuple(rng.uniform(0.5, 1.5, 8)))), False)
        report = verify_csla_gr(block, 50, HEAVY_SGD, seed=5, hw=12)
        assert report.max_output_divergence <= 1e-8

    def test_block_with_shared_post_bn_head(self):
        report = verify_csla_gr(block_c8(), 60, HEAVY_SGD, seed=13, hw=12,
                                post_bn=True)
        assert report.max_output_divergence <= 1e-8

    def test_ghost_two_branch_case(self):
        report = verify_csla_gr(ghost_spec(8), 100, HEAVY_SGD, seed=17, hw=8,
                                post_bn=True)
        assert report.max_output_divergence <= 1e-8
        assert report.max_kernel_divergence <= 1e-10

    def test_mixed_size_branches_with_identity(self):
        # 5x5, 3x3 and 1x1 branches plus identity fold into one 5x5 kernel
        rng = np.random.default_rng(23)
        block = CslaBlockSpec(6, 6, 1, tuple((k, tuple(rng.uniform(0.4, 1.4, 6)))
                                             for k in (5, 3, 1)), True)
        report = verify_csla_gr(block, 100, HEAVY_SGD, seed=29, hw=12)
        assert report.max_output_divergence <= 1e-8
        assert report.max_kernel_divergence <= 1e-10
        for ablation in ("skip_reinit", "skip_gradmult"):
            report = verify_csla_gr(block, 11, PLAIN_SGD, seed=19, hw=12,
                                    ablation=ablation)
            assert report.divergence_at(10) > 1e-3, ablation

    @pytest.mark.parametrize("block", [
        block_c8(),
        CslaBlockSpec(4, 8, 2, ((3, np.linspace(0.5, 1.5, 8)), (1, np.full(8, 0.7))), False),
    ], ids=["identity", "strided"])
    def test_branched_side_is_the_models_constant_scale_block(self, block):
        # from one seed, the lockstep's branched side with its BN head and a
        # constant-scale CslaBlock draw the same kernels and give the same bytes
        pair = _Pair(block, 31, post_bn=True)
        info = BlockInfo(0, "b", block.c_in, block.c_out, block.stride, block.has_identity, 1)
        model_block = CslaBlock(info, block.branches, trainable=False, rng=Rng(31))
        x = Tensor(Rng(32).gaussian((4, block.c_in, 12, 12)))
        assert (pair.forward_branched(x).data.tobytes()
                == model_block.forward(x, training=True).data.tobytes())

    @pytest.mark.parametrize("ablation", ["skip_reinit", "skip_gradmult"])
    def test_either_ablation_breaks_equivalence(self, ablation):
        report = verify_csla_gr(block_c8(), 11, PLAIN_SGD, seed=19, hw=12,
                                ablation=ablation)
        assert report.divergence_at(10) > 1e-3

    def test_unknown_ablation_rejected(self):
        with pytest.raises(ConfigError):
            verify_csla_gr(block_c8(), 5, PLAIN_SGD, seed=0, ablation="skip_both")

    def test_report_io(self, tmp_path):
        report = verify_csla_gr(scalar_spec(1.0, 0.5), 5, PLAIN_SGD, seed=1, hw=8)
        csv = tmp_path / "eq.csv"
        js = tmp_path / "eq.json"
        report.write_csv(str(csv))
        report.write_json_summary(str(js))
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "step,output_div,kernel_div"
        assert len(lines) == 6

    def test_square_shim_is_the_two_branch_identity_block(self):
        s, t = np.linspace(0.5, 1.2, 4), np.full(4, 0.7)
        block = CslaBlockSpec.square(4, s, t)
        assert block == CslaBlockSpec(4, 4, 1, ((3, tuple(s)), (1, tuple(t))), True)
        assert block.s == tuple(s) and block.t == tuple(t)

    def test_block_spec_rejects_non_finite_scales(self):
        with pytest.raises(ConfigError, match="block 8->8 stride 1: non-finite 3x3"):
            CslaBlockSpec(8, 8, 1, ((3, (np.nan,) * 8),), True)

    def test_block_spec_invariant_enforced(self):
        ones = ((3, tuple(np.ones(8))), (1, tuple(np.ones(8))))
        with pytest.raises(ConfigError):
            CslaBlockSpec(4, 8, 1, ones, True)
        with pytest.raises(ConfigError):
            CslaBlockSpec(8, 8, 2, ones, True)
        with pytest.raises(ShapeError):
            CslaBlockSpec(8, 8, 1, ((2, tuple(np.ones(8))),), False)


class TestWholeNetworkCounterpart:
    """The oracle for every conv, BN or optimizer change: CSLA and the plain
    model with gradient multipliers, trained through ``train_model`` on the
    same data stream, stay exact counterparts for the whole network."""

    CFG = OptimizerConfig(base_lr=0.05, momentum=0.9, weight_decay=4e-5,
                          warmup_epochs=1, total_epochs=2, schedule="cosine",
                          label_smoothing=0.1, batch_size=64)

    def test_desk4_losses_and_kernels_agree_and_ablations_break_them(self):
        spec = PRESETS["desk4"]
        infos = block_infos(spec)
        assert any(i.stride == 2 for i in infos) and any(i.has_identity for i in infos)
        draws = Rng(5)
        scales = {i.block_id: (0.4 + draws.uniform(i.c_out), 0.4 + draws.uniform(i.c_out))
                  for i in infos}
        train_set = gen_synthetic(512, 32, 10, seed=4)
        run = dict(spec=spec, scales=scales, train_set=train_set, cfg=self.CFG, augment=True)
        csla, csla_loss = train_family("csla", **run)
        plain, plain_loss = train_family("repopt", **run)
        assert len(csla_loss) == 2
        np.testing.assert_allclose(plain_loss, csla_loss, rtol=1e-10, atol=0)
        assert kernel_gap(plain, csla) <= 1e-10
        for ablation in ("skip_reinit", "skip_gradmult"):
            ablated, _ = train_family("repopt", ablation=ablation, **run)
            assert kernel_gap(ablated, csla) > 1e-4, ablation


def eval_bn(gamma, beta, mean, var):
    """A BatchNorm2d holding the given affine parameters and running stats."""
    bn = BatchNorm2d(len(gamma))
    bn.gamma.data, bn.beta.data = np.asarray(gamma), np.asarray(beta)
    bn.running_mean, bn.running_var = np.asarray(mean), np.asarray(var)
    return bn


class TestBnFusion:
    def test_identity_bn_keeps_kernel(self):
        kernel = np.random.default_rng(0).normal(size=(4, 4, 3, 3))
        bn = eval_bn(np.ones(4), np.zeros(4), np.zeros(4), np.full(4, 1.0 - ops.BN_EPS))
        fused = fuse_bn(kernel, bn)
        np.testing.assert_allclose(fused.kernel, kernel, atol=1e-15)
        np.testing.assert_allclose(fused.bias, 0.0, atol=1e-15)

    def test_zero_gamma_zeroes_kernel(self):
        kernel = np.ones((3, 2, 3, 3))
        bn = eval_bn(np.zeros(3), np.array([1.0, 2.0, 3.0]), np.zeros(3), np.ones(3))
        fused = fuse_bn(kernel, bn)
        assert np.all(fused.kernel == 0.0)
        np.testing.assert_array_equal(fused.bias, [1.0, 2.0, 3.0])

    def test_fused_matches_eval_bn_forward(self):
        rng = np.random.default_rng(1)
        kernel = rng.normal(size=(5, 3, 3, 3))
        bn = BatchNorm2d(5)
        bn.gamma.data = rng.uniform(0.5, 1.5, 5)
        bn.beta.data = rng.normal(size=5)
        bn.running_mean = rng.normal(size=5)
        bn.running_var = rng.uniform(0.3, 2.0, 5)
        x = rng.normal(size=(2, 3, 8, 8))
        direct = bn.forward(
            ops.conv2d(Tensor(x), Tensor(kernel), 1, 1), training=False
        ).data
        fused = fuse_bn(kernel, bn)
        np.testing.assert_allclose(fused.forward(x), direct, atol=1e-12, rtol=0)

    def test_pad_1x1_embeds_center(self):
        k = np.arange(6.0).reshape(3, 2, 1, 1)
        p = embed_kernel(k, 3)
        assert p.shape == (3, 2, 3, 3)
        np.testing.assert_array_equal(p[:, :, 1, 1], k[:, :, 0, 0])
        assert p.sum() == k.sum()

    def test_dirac_kernel_is_identity_conv(self):
        x = np.random.default_rng(2).normal(size=(1, 3, 5, 5))
        out = ops.conv2d(Tensor(x), Tensor(dirac_kernel(3, 3)), 1, 1).data
        np.testing.assert_allclose(out, x, atol=1e-15)


def _trained_repvgg_block(info, seed, steps=5):
    """A block with non-trivial BN statistics (a few training steps)."""
    block = RepVggStyleBlock(info, rng=Rng(seed))
    stream = Rng(seed + 1)
    params = dict(block.named_parameters())
    from gradrep.optim import MultiplierSgd

    opt = MultiplierSgd(params, momentum=0.9)
    for _ in range(steps):
        x = Tensor(stream.gaussian((4, info.c_in, 8, 8)))
        y = block.forward(x, training=True)
        for p in params.values():
            p.grad = None
        ops.mse_loss(y, stream.gaussian(y.data.shape)).backward()
        opt.step(0.02)
    return block


def _training_divergence_after_conversion(block, steps, lr, seed, *,
                                          batch=4, hw=8) -> list:
    """Train the original three-branch block and its converted single conv
    with plain SGD on one stream; probe eval-mode outputs after each step.
    Inference equivalence holds at step 0 and is expected to break once
    training starts (the structures have different dynamics)."""
    fused = convert_repvgg_block(block)
    w = Parameter(fused.kernel.copy())
    b = Parameter(fused.bias.copy())
    stream = Rng(seed)
    probe = stream.gaussian((batch, block.info.c_in, hw, hw))
    branched_params = dict(block.named_parameters())
    opt_a = MultiplierSgd(branched_params)
    opt_b = MultiplierSgd({"w": w, "b": b})
    divergences = []

    def probe_divergence():
        ya = block.forward(Tensor(probe), training=False)
        yb = ops.conv2d(Tensor(probe), Tensor(w.data), block.info.stride, 1,
                        bias=Tensor(b.data))
        return float(np.abs(ya.data - ops.relu(yb).data).max())

    divergences.append(probe_divergence())
    for _ in range(steps):
        x = Tensor(stream.gaussian((batch, block.info.c_in, hw, hw)))
        ya = block.forward(x, training=True)
        target = stream.gaussian(ya.data.shape)
        for p in branched_params.values():
            p.grad = None
        ops.mse_loss(ya, target).backward()
        opt_a.step(lr)
        yb = ops.relu(ops.conv2d(x, w, block.info.stride, 1, bias=b))
        w.grad = None
        b.grad = None
        ops.mse_loss(yb, target).backward()
        opt_b.step(lr)
        divergences.append(probe_divergence())
    return divergences


class TestBlockConversion:
    def test_zeroed_extras_reduce_to_fused_3x3(self):
        info = BlockInfo(0, "b", 4, 4, 1, True, 1)
        block = _trained_repvgg_block(info, seed=3)
        block.conv1.weight.data[:] = 0.0
        block.bn1.gamma.data[:] = 0.0
        block.bn1.beta.data[:] = 0.0
        block.bn1.running_mean[:] = 0.0
        block.bnid.gamma.data[:] = 0.0
        block.bnid.beta.data[:] = 0.0
        block.bnid.running_mean[:] = 0.0
        merged = convert_repvgg_block(block)
        only3 = fuse_bn(block.conv3.weight.data, block.bn3)
        np.testing.assert_allclose(merged.kernel, only3.kernel, atol=1e-14)
        np.testing.assert_allclose(merged.bias, only3.bias, atol=1e-14)

    @pytest.mark.parametrize("info", [BlockInfo(0, "b", 6, 6, 1, True, 1),
                                      BlockInfo(0, "b", 4, 8, 2, False, 1)])
    def test_merge_equals_per_branch_fusion(self, info):
        # oracle: fuse each branch's BN on its own, embed the 1x1 kernel, give
        # the identity a BN-fused dirac kernel, then sum 3x3, 1x1, identity
        block = _trained_repvgg_block(info, seed=13)
        merged = convert_repvgg_block(block)
        f3 = fuse_bn(block.conv3.weight.data, block.bn3)
        f1 = fuse_bn(block.conv1.weight.data, block.bn1)
        kernel = f3.kernel + embed_kernel(f1.kernel, 3)
        bias = f3.bias + f1.bias
        if info.has_identity:
            fid = fuse_bn(dirac_kernel(info.c_out, 3), block.bnid)
            kernel = kernel + fid.kernel
            bias = bias + fid.bias
        np.testing.assert_array_equal(merged.kernel, kernel)
        np.testing.assert_array_equal(merged.bias, bias)
        assert merged.stride == info.stride

    def test_eval_equivalence_over_100_inputs(self):
        info = BlockInfo(0, "b", 6, 6, 1, True, 1)
        block = _trained_repvgg_block(info, seed=9)
        merged = convert_repvgg_block(block)
        stream = Rng(99)
        worst = 0.0
        for _ in range(100):
            x = stream.gaussian((2, 6, 8, 8))
            want = block.forward(Tensor(x), training=False).data
            got = np.maximum(merged.forward(x), 0.0)
            worst = max(worst, float(np.abs(want - got).max()))
        assert worst <= 1e-10

    def test_stride2_block_two_branches(self):
        info = BlockInfo(0, "b", 4, 8, 2, False, 1)
        block = _trained_repvgg_block(info, seed=5)
        merged = convert_repvgg_block(block)
        assert merged.stride == 2
        x = Rng(1).gaussian((2, 4, 8, 8))
        want = block.forward(Tensor(x), training=False).data
        np.testing.assert_allclose(np.maximum(merged.forward(x), 0.0), want,
                                   atol=1e-10, rtol=0)

    def test_training_breaks_equivalence_within_10_steps(self):
        info = BlockInfo(0, "b", 4, 4, 1, True, 1)
        block = _trained_repvgg_block(info, seed=21)
        div = _training_divergence_after_conversion(block, steps=10, lr=0.05, seed=33)
        assert div[0] <= 1e-10  # inference-equivalent before any update
        assert max(div[1:]) > 1e-3  # not training-equivalent

    def test_convert_whole_models(self):
        spec = ModelSpec(4, ((2, 4), (1, 8)), 10, 16)
        ds = gen_synthetic(64, 16, 10, seed=2)
        x = ds.normalized()
        for builder in (build_target, build_repvgg):
            model = builder(spec, rng=Rng(4))
            # give BN stats a short history so fusion is non-trivial
            from gradrep.optim import MultiplierSgd
            from gradrep.train import train_model
            cfg = OptimizerConfig(base_lr=0.02, momentum=0.9, weight_decay=0.0,
                                  warmup_epochs=0, total_epochs=1, batch_size=32,
                                  label_smoothing=0.0)
            opt = MultiplierSgd(dict(model.named_parameters()), momentum=0.9)
            train_model(model, opt, ds, None, cfg, Rng(5), epochs=1,
                        eval_each_epoch=False)
            fused = convert_model(model)
            want = model.forward(x, training=False).data
            got = fused.forward(x)
            np.testing.assert_allclose(got, want, atol=1e-10, rtol=0)

    def test_branched_and_residual_models_not_convertible(self):
        spec = ModelSpec(4, ((2, 4),), 10, 16)
        ones = {i.block_id: (np.ones(4), np.ones(4)) for i in block_infos(spec)}
        for model in (build_csla(spec, ones, rng=Rng(0)),
                      build_resnet(spec, rng=Rng(0))):
            with pytest.raises(ConfigError):
                convert_model(model)


class TestVarianceRatio:
    def test_spearman_closed_form(self):
        x = np.arange(6.0)
        assert spearman(x, np.exp(x)) == 1.0  # any increasing map
        assert spearman(x, -x ** 3) == -1.0
        # ties share the mean rank: ranks (1, 2, 3, 4) vs (1, 2.5, 2.5, 4)
        # give r = 4.5 / sqrt(5 * 4.5) = sqrt(0.9)
        assert spearman([1, 2, 3, 4], [0.1, 7.0, 7.0, 9.0]) == pytest.approx(
            np.sqrt(0.9), rel=1e-15)

    def test_resnet_ratio_increases_with_depth(self):
        data = Rng(123).gaussian((64, 3, 32, 32))

        def factory(seed):
            return build_resnet(ModelSpec(8, ((2, 8), (16, 16)), 10, 32), rng=Rng(seed))

        ids, per_seed, mean = identity_variance_ratio(factory, data, num_seeds=3)
        stage2 = [i for i, b in enumerate(ids) if b.startswith("s2")]
        vals = mean[stage2]
        assert len(vals) == 15
        # strongly increasing front-to-back
        assert vals[0] < vals[len(vals) // 2] < vals[-1]

    def test_zero_residual_branches_give_ratio_one(self):
        data = Rng(5).gaussian((16, 3, 16, 16))

        def factory(seed):
            model = build_resnet(ModelSpec(4, ((1, 4), (4, 4)), 10, 16), rng=Rng(seed))
            for block in model.blocks:
                if hasattr(block, "conv_b"):
                    block.conv_b.weight.data[:] = 0.0
                    block.bn_b.gamma.data[:] = 0.0
            return model

        _, per_seed, mean = identity_variance_ratio(factory, data, num_seeds=2)
        np.testing.assert_allclose(mean, 1.0, atol=1e-12)

    def test_capture_forward_records_no_tape(self, monkeypatch):
        nodes = []
        init = Tensor.__init__

        def spy(self, data, requires_grad=False, parents=(), backward=None):
            nodes.append(backward is not None)
            init(self, data, requires_grad, parents, backward)

        monkeypatch.setattr(Tensor, "__init__", spy)
        data = Rng(3).gaussian((4, 3, 16, 16))
        built = []

        def factory(seed):
            built.append(build_resnet(ModelSpec(8, ((2, 8), (16, 16)), 10, 16), rng=Rng(seed)))
            return built[-1]

        identity_variance_ratio(factory, data, num_seeds=2)
        assert nodes and sum(nodes) == 0
        assert grad_enabled()
        # batch statistics still move the running ones
        assert np.any(built[0].stem_bn.running_mean != 0.0)
        built[0].forward(data, training=True)
        assert sum(nodes) == 104  # the spy sees a taped forward

    def test_depth_indexed_init_raises_deep_ratios(self):
        spec = ModelSpec(8, ((9, 8),), 10, 32)
        data = Rng(7).gaussian((64, 3, 32, 32))

        def sqrt_factory(seed):
            return build_hypersearch(spec, rng=Rng(seed))

        def ones_factory(seed):
            return build_hypersearch(spec, rng=Rng(seed), init="all_ones")

        ids, _, mean_sqrt = identity_variance_ratio(sqrt_factory, data, 3)
        _, _, mean_ones = identity_variance_ratio(ones_factory, data, 3)
        deep = slice(len(ids) // 2, None)
        assert np.all(mean_sqrt[deep] > mean_ones[deep])
