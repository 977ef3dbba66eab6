import numpy as np
import pytest

from gradrep import ops
from gradrep.autodiff import Tensor
from gradrep.data import gen_synthetic
from gradrep.equivlab import FusedConv, InferenceModel, convert_model
from gradrep.errors import ConfigError, ShapeError
from gradrep.models import BlockInfo, RepVggStyleBlock
from gradrep.quantize import (
    KernelStats,
    SCALE_FLOOR,
    fake_quantize,
    int8_scale,
    kernel_position_stats,
    model_accuracy,
    position_stats_report,
    ptq_model,
    quantize_weights_only,
)
from gradrep.rng import Rng


def std_oracle(kernel):
    """Flat-loop population stds over explicit position lists."""
    allv, central, surrounding = [], [], []
    c_out, c_in, _, _ = kernel.shape
    for o in range(c_out):
        for i in range(c_in):
            for p in range(3):
                for q in range(3):
                    v = kernel[o, i, p, q]
                    allv.append(v)
                    if p == 1 and q == 1:
                        central.append(v)
                    else:
                        surrounding.append(v)

    def pstd(vals):
        vals = np.array(vals)
        return float(np.sqrt(((vals - vals.mean()) ** 2).mean()))

    return pstd(allv), pstd(central), pstd(surrounding)


def int8_round_trip(arr):
    """Oracle: quantize to an int8 array at scale max|x| / 127 and back."""
    scale = max(np.abs(arr).max() / 127.0, SCALE_FLOOR)
    q = np.clip(np.rint(arr / scale), -127, 127).astype(np.int8)
    return q.astype(np.float64) * scale


def round_trip(arr):
    scale = int8_scale(float(np.abs(arr).max()))
    return fake_quantize(arr, scale), scale


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_error_bounded_by_half_scale(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=rng.uniform(0.01, 10.0), size=(64, 33))
        got, scale = round_trip(x)
        assert np.abs(got - x).max() <= scale / 2 + 1e-15

    def test_all_zero_tensor_uses_floor(self):
        got, scale = round_trip(np.zeros((4, 4)))
        assert scale == SCALE_FLOOR
        assert np.all(got == 0)

    def test_plus_minus_one(self):
        got, scale = round_trip(np.array([-1.0, 1.0]))
        assert scale == pytest.approx(1.0 / 127.0)
        assert got.tolist() == [-1.0, 1.0]

    def test_quantized_range(self):
        x = np.random.default_rng(0).normal(size=1000)
        got, scale = round_trip(x)
        assert np.abs(got).max() <= 127 * scale
        steps = got / scale
        assert np.abs(steps - np.rint(steps)).max() < 1e-9

    def test_matches_int8_oracle(self):
        x = np.random.default_rng(1).normal(size=(8, 4, 3, 3))
        np.testing.assert_array_equal(round_trip(x)[0], int8_round_trip(x))


class TestPositionStats:
    def test_constant_kernel_all_zero(self):
        st = kernel_position_stats(np.full((3, 2, 3, 3), 0.7))
        assert st.std_overall == pytest.approx(0.0, abs=1e-15)
        assert st.std_central == pytest.approx(0.0, abs=1e-15)
        assert st.std_surrounding == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_diagonal_centers(self):
        kernel = np.zeros((2, 2, 3, 3))
        kernel[0, 0, 1, 1] = 1.0
        kernel[1, 1, 1, 1] = 1.0
        st = kernel_position_stats(kernel)
        assert st.std_central == pytest.approx(0.5)  # values {1, 0, 0, 1}
        assert st.std_surrounding == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_flat_loop_oracle(self, seed):
        kernel = np.random.default_rng(seed).normal(size=(4, 3, 3, 3))
        st = kernel_position_stats(kernel)
        o, c, s = std_oracle(kernel)
        assert abs(st.std_overall - o) <= 1e-12
        assert abs(st.std_central - c) <= 1e-12
        assert abs(st.std_surrounding - s) <= 1e-12

    def test_rejects_non_3x3(self):
        with pytest.raises(ShapeError):
            kernel_position_stats(np.zeros((2, 2, 1, 1)))


def identity_inference_model(c=3, layers=2):
    from gradrep.optim import dirac_kernel

    convs = [FusedConv(dirac_kernel(c, 3), np.zeros(c), 1) for _ in range(layers)]
    return InferenceModel(convs, np.eye(c), np.zeros(c))


class TestPtq:
    def test_identity_network_stays_near_identity(self):
        model = identity_inference_model()
        rng = np.random.default_rng(0)
        calib = np.abs(rng.normal(size=(8, 3, 6, 6)))
        quant = ptq_model(model, calib)
        x = np.abs(rng.normal(size=(4, 3, 6, 6)))
        got = quant.forward(x)
        want = model.forward(x)
        bound = 3.0 * max(quant.act_scales + [quant.input_scale])
        assert np.abs(got - want).max() <= bound

    def test_forward_matches_hand_written_loop(self):
        # oracle: fake-quant the input; per layer, conv with the dequantized
        # int8 kernel plus bias, ReLU, fake-quant; then GAP and the
        # dequantized FC
        rng = Rng(4)
        convs = [FusedConv(0.4 * rng.gaussian((6, 3, 3, 3)), 0.1 * rng.gaussian(6), 2),
                 FusedConv(0.3 * rng.gaussian((6, 6, 3, 3)), 0.1 * rng.gaussian(6), 1),
                 FusedConv(0.3 * rng.gaussian((8, 6, 3, 3)), 0.1 * rng.gaussian(8), 2)]
        model = InferenceModel(convs, 0.5 * rng.gaussian((4, 8)), 0.1 * rng.gaussian(4))
        quant = ptq_model(model, rng.gaussian((20, 3, 12, 12)), batch_size=8)
        x = rng.gaussian((5, 3, 12, 12))
        h = fake_quantize(x, quant.input_scale)
        for conv, scale in zip(convs, quant.act_scales):
            kernel = int8_round_trip(conv.kernel)
            h = ops.conv2d(Tensor(h), Tensor(kernel), conv.stride, 1,
                           bias=Tensor(conv.bias)).data
            h = fake_quantize(np.maximum(h, 0.0), scale)
        fc = int8_round_trip(model.fc_weight)
        want = h.mean(axis=(2, 3)) @ fc.T + model.fc_bias
        np.testing.assert_array_equal(quant.forward(x), want)

    def test_empty_calibration_rejected(self):
        model = identity_inference_model()
        with pytest.raises(ConfigError):
            ptq_model(model, np.zeros((0, 3, 6, 6)))

    def test_weights_only_roundtrip_bound(self):
        info = BlockInfo(0, "b", 4, 4, 1, True, 1)
        block = RepVggStyleBlock(info, rng=Rng(3))
        from gradrep.equivlab import convert_repvgg_block

        fused = convert_repvgg_block(block)
        model = InferenceModel([fused], np.eye(4), np.zeros(4))
        wq = quantize_weights_only(model)
        scale = int8_scale(float(np.abs(fused.kernel).max()))
        assert np.abs(wq.convs[0].kernel - fused.kernel).max() <= scale / 2

    def test_prediction_flips_bounded_by_logit_margin(self):
        # weights-only PTQ: accuracy change is bounded by the share of samples
        # whose fp logit margin is smaller than twice the measured logit shift
        ds = gen_synthetic(256, 16, 4, seed=5)
        rng = Rng(11)
        convs = [FusedConv(0.3 * rng.gaussian((8, 3, 3, 3)), np.zeros(8), 2)]
        model = InferenceModel(convs, 0.5 * rng.gaussian((4, 8)), np.zeros(4))
        wq = quantize_weights_only(model)
        x = ds.normalized()
        fp_logits = model.forward(x)
        q_logits = wq.forward(x)
        delta = np.abs(fp_logits - q_logits).max()
        sorted_logits = np.sort(fp_logits, axis=1)
        margin = sorted_logits[:, -1] - sorted_logits[:, -2]
        fp_pred = np.argmax(fp_logits, axis=1)
        q_pred = np.argmax(q_logits, axis=1)
        flipped = (fp_pred != q_pred).mean()
        assert flipped <= (margin < 2 * delta).mean() + 1e-12

    def test_merged_kernel_central_std_exceeds_surrounding(self):
        # three-branch block with BN scales drawn wider than 1: after merging,
        # the 1x1 and identity contributions concentrate at the centers
        info = BlockInfo(0, "b", 8, 8, 1, True, 1)
        block = RepVggStyleBlock(info, rng=Rng(7))
        stream = np.random.default_rng(8)
        for bn in (block.bn3, block.bn1, block.bnid):
            bn.gamma.data = stream.uniform(1.0, 3.0, 8)
            bn.running_var = stream.uniform(0.2, 1.0, 8)
            bn.running_mean = stream.normal(size=8) * 0.1
        from gradrep.equivlab import convert_repvgg_block

        merged = convert_repvgg_block(block)
        st = kernel_position_stats(merged.kernel)
        assert st.std_central > st.std_surrounding

    def test_position_stats_report_rows(self):
        model = identity_inference_model(c=2, layers=3)
        rows = position_stats_report(model)
        assert len(rows) == 3
        assert rows[0][0] == "conv0"

    def test_model_accuracy_runs(self):
        ds = gen_synthetic(64, 16, 4, seed=3)
        model = identity_inference_model()
        acc = model_accuracy(model, ds)
        assert 0.0 <= acc <= 1.0
