"""Core op tests: direct-convolution and finite-difference oracles come first,
then the tape is checked against them."""

import tracemalloc

import numpy as np
import pytest

from gradrep import ops
from gradrep.autodiff import Parameter, Tensor, grad_enabled, no_grad
from gradrep.data import gen_synthetic
from gradrep.errors import ShapeError, UsageError
from gradrep.models import BlockInfo, CslaBlock, ModelSpec, build_hypersearch, hs_branches
from gradrep.rng import Rng
from gradrep.train import evaluate
from helpers import interior_nodes, tsum, weighted_sum


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def conv2d_reference(x, w, stride=1, padding=0):
    """Direct convolution by explicit loops; the oracle the fast path must match."""
    n, c_in, h, wd = x.shape
    c_out, _, k_h, k_w = w.shape
    out_h = (h + 2 * padding - k_h) // stride + 1
    out_w = (wd + 2 * padding - k_w) // stride + 1
    xp = np.zeros((n, c_in, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    out = np.zeros((n, c_out, out_h, out_w))
    for b in range(n):
        for o in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    acc = 0.0
                    for ci in range(c_in):
                        for p in range(k_h):
                            for q in range(k_w):
                                acc += xp[b, ci, i * stride + p, j * stride + q] * w[o, ci, p, q]
                    out[b, o, i, j] = acc
    return out


def numerical_grad(loss_fn, arr, h=1e-5):
    """Central finite differences on every entry of arr (mutated in place)."""
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = loss_fn()
        flat[i] = old - h
        fm = loss_fn()
        flat[i] = old
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def assert_grad_close(analytic, numeric, rtol=1e-6, atol=1e-7):
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


#: (kernel, stride, padding) of every conv2d lowering: the 3x3 gather with and
#: without padding (stride-1 dx by gather), the 1x1 reshape and strided slice,
#: and the strided 3x3 (dx by the col2im gather)
LOWERINGS = [(3, 1, 1), (3, 1, 0), (1, 1, 0), (1, 2, 0), (3, 2, 1)]


# ---------------------------------------------------------------------------
# conv2d forward
# ---------------------------------------------------------------------------

class TestConvForward:
    def test_identity_1x1_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 5, 5))
        w = np.eye(3).reshape(3, 3, 1, 1)
        out = ops.conv2d(Tensor(x), Tensor(w), stride=1, padding=0)
        np.testing.assert_array_equal(out.data, x)

    def test_all_ones_kernel_counts_taps(self):
        v = 1.7
        x = np.full((1, 1, 6, 6), v)
        w = np.ones((1, 1, 3, 3))
        out = ops.conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
        assert out.shape == (1, 1, 6, 6)
        assert out[0, 0, 2, 3] == pytest.approx(9 * v)
        for corner in [(0, 0), (0, 5), (5, 0), (5, 5)]:
            assert out[0, 0, corner[0], corner[1]] == pytest.approx(4 * v)

    @pytest.mark.parametrize("k,stride,padding", LOWERINGS + [(3, 2, 0), (1, 1, 1)])
    @pytest.mark.parametrize("hw", [(5, 5), (5, 7)])
    def test_matches_nested_loop_oracle(self, k, stride, padding, hw):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 2) + hw)
        w = rng.normal(size=(3, 2, k, k))
        got = ops.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
        want = conv2d_reference(x, w, stride=stride, padding=padding)
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_gather_plans_keyed_by_shape_not_batch(self, monkeypatch):
        # (5, 7) and (7, 5) share every other key part; each must get its own
        # plan, and a new batch size must reuse the plan of its shape
        ops._gather_index.cache_clear()
        rng = np.random.default_rng(11)
        w = rng.normal(size=(3, 2, 3, 3))
        for n, hw in ((2, (5, 7)), (2, (7, 5)), (3, (5, 7))):
            x = rng.normal(size=(n, 2) + hw)
            got = ops.conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
            np.testing.assert_allclose(got, conv2d_reference(x, w, 1, 1), atol=1e-12, rtol=0)
        assert ops._gather_index.cache_info().currsize == 2
        # training on a batch of 5 in chunks of 2, 2 and 1 adds only the
        # backward gather of g per shape, none for the chunk sizes
        monkeypatch.setattr(ops, "_CHUNK_ELEMS", 2 * 2 * 9 * 35)
        for hw in ((5, 7), (7, 5)):
            x = Tensor(rng.normal(size=(5, 2) + hw), requires_grad=True)
            tsum(ops.conv2d(x, Parameter(w.copy()), stride=1, padding=1)).backward()
        assert [s.stop - s.start for s in ops._chunks(5, 2 * 9 * 35)[0]] == [2, 2, 1]
        assert ops._gather_index.cache_info().currsize == 4

    def test_output_shape_formula(self):
        x = Tensor(np.zeros((1, 4, 11, 9)))
        w = Tensor(np.zeros((6, 4, 3, 3)))
        out = ops.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (1, 6, (11 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)

    def test_channel_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            ops.conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 5, 3, 3))))
        assert "(1, 3, 4, 4)" in str(err.value) and "(2, 5, 3, 3)" in str(err.value)

    def test_bias_added_per_channel(self):
        x = np.ones((1, 1, 3, 3))
        w = np.zeros((2, 1, 1, 1))
        b = np.array([0.5, -1.0])
        out = ops.conv2d(Tensor(x), Tensor(w), bias=Tensor(b)).data
        assert np.all(out[0, 0] == 0.5) and np.all(out[0, 1] == -1.0)

    def test_linearity_in_input_and_kernel(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 6, 6))
        y = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        v = rng.normal(size=(4, 3, 3, 3))
        a, b = 0.37, -1.21

        def c(xx, ww):
            return ops.conv2d(Tensor(xx), Tensor(ww), stride=1, padding=1).data

        np.testing.assert_allclose(
            c(a * x + b * y, w), a * c(x, w) + b * c(y, w), atol=1e-12, rtol=0
        )
        np.testing.assert_allclose(
            c(x, a * w + b * v), a * c(x, w) + b * c(x, v), atol=1e-12, rtol=0
        )

    def test_forward_bit_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4, 8, 8))
        w = rng.normal(size=(5, 4, 3, 3))
        o1 = ops.conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
        o2 = ops.conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
        assert o1.tobytes() == o2.tobytes()


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

class TestBackward:
    def test_sum_conv_of_ones_counts_positions(self):
        # loss = sum(conv(X, W)) with X all ones: dL/dW[o,i,p,q] is the number
        # of output positions whose (p,q) tap lands inside the image.
        x = Tensor(np.ones((1, 1, 4, 4)))
        w = Parameter(np.zeros((1, 1, 3, 3)))
        out = ops.conv2d(x, w, stride=1, padding=0)
        tsum(out).backward()
        # 4x4 input, 3x3 kernel, no padding: every tap sees all 2x2=4 positions.
        np.testing.assert_array_equal(w.grad, np.full((1, 1, 3, 3), 4.0))

    def test_padding_changes_position_counts(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Parameter(np.zeros((1, 1, 3, 3)))
        out = ops.conv2d(x, w, stride=1, padding=1)
        tsum(out).backward()
        # 3x3 output grid with zero padding: the center tap always sees real
        # pixels (9), corner taps see a 2x2 window shifted inside (4), edges 6.
        np.testing.assert_array_equal(
            w.grad[0, 0], np.array([[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])
        )

    def test_unused_parameter_gets_no_gradient(self):
        x = Tensor(np.ones((1, 1, 4, 4)))
        w = Parameter(np.ones((1, 1, 3, 3)))
        w2 = Parameter(np.ones((1, 1, 3, 3)))
        tsum(ops.conv2d(x, w)).backward()
        assert w2.grad is None  # treated as exactly zero downstream

    def test_zero_weighted_branch_gradient_is_exact_zero(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 2, 4, 4)))
        w = Parameter(np.random.default_rng(1).normal(size=(2, 2, 3, 3)))
        out = ops.conv2d(x, w, padding=1)
        loss = weighted_sum(out, np.zeros_like(out.data))
        loss.backward()
        assert np.all(w.grad == 0.0)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((1, 1, 4, 4)))
        w = Parameter(np.ones((1, 1, 3, 3)))
        out = ops.conv2d(x, w)
        with pytest.raises(UsageError):
            out.backward()

    def test_backward_bit_deterministic(self):
        rng = np.random.default_rng(5)
        xd = rng.normal(size=(2, 3, 6, 6))
        wd = rng.normal(size=(4, 3, 3, 3))
        r = rng.normal(size=(2, 4, 6, 6))

        def run():
            w = Parameter(wd.copy())
            x = Tensor(xd)
            weighted_sum(ops.conv2d(x, w, padding=1), r).backward()
            return w.grad

        assert run().tobytes() == run().tobytes()

    def test_second_backward_on_released_graph_raises(self):
        x = Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
        w = Parameter(np.ones((1, 1, 3, 3)))
        hidden = ops.conv2d(x, w, padding=1)
        loss = tsum(ops.relu(hidden))
        loss.backward()
        want_w, want_x = w.grad.copy(), x.grad.copy()
        with pytest.raises(UsageError):
            loss.backward()
        # a new loss on a freed node cannot route a gradient through it
        with pytest.raises(UsageError):
            tsum(hidden).backward()
        # the failed pass added nothing to the leaves
        assert w.grad.tobytes() == want_w.tobytes()
        assert x.grad.tobytes() == want_x.tobytes()

    def test_add_hands_its_parents_separate_arrays(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        y = Tensor(np.ones((2, 3)), requires_grad=True)
        weights = np.arange(6.0).reshape(2, 3)
        weighted_sum(ops.add(x, y), weights).backward()
        assert x.grad is not y.grad
        np.testing.assert_array_equal(x.grad, weights)
        np.testing.assert_array_equal(y.grad, weights)

    def test_add_of_a_tensor_with_itself_sums_both_paths(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        weights = np.arange(6.0).reshape(2, 3)
        weighted_sum(ops.add(x, x), weights).backward()
        np.testing.assert_array_equal(x.grad, 2.0 * weights)

    def test_add_next_to_a_bn_relu_node_keeps_its_sibling_gradient(self):
        # the BN->ReLU node masks and overwrites the gradient it is handed;
        # the add's other parent must not see that
        rng = np.random.default_rng(17)
        xd = rng.normal(size=(3, 2, 4, 4))
        gd, bd = rng.normal(size=2) + 1.0, rng.normal(size=2)
        proj = rng.normal(size=(3, 2, 4, 4))

        def bn_relu(x):
            return ops.batchnorm_train(x, Parameter(gd), Parameter(bd), relu=True)[0]

        x = Tensor(xd, requires_grad=True)
        sibling = Tensor(rng.normal(size=(3, 2, 4, 4)), requires_grad=True)
        z = ops.add(bn_relu(x), sibling)
        z_leaf = Tensor(z.data.copy(), requires_grad=True)
        weighted_sum(bn_relu(z), proj).backward()
        weighted_sum(bn_relu(z_leaf), proj).backward()
        assert sibling.grad.tobytes() == z_leaf.grad.tobytes()
        x_alone = Tensor(xd, requires_grad=True)
        weighted_sum(bn_relu(x_alone), z_leaf.grad).backward()
        assert x.grad.tobytes() == x_alone.grad.tobytes()


class TestConvChunks:
    """conv2d walks the batch in sample chunks; the chunking must not show."""

    # (samples, samples per chunk): chunks of one, even chunks of two, and
    # chunks of two with a short last one
    @pytest.mark.parametrize("n,per_chunk,sizes",
                             [(5, 1, [1] * 5), (6, 2, [2, 2, 2]), (5, 2, [2, 2, 1])])
    @pytest.mark.parametrize("k,stride,padding", LOWERINGS + [(3, 2, 0), (1, 1, 1)])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_chunked_bytes_equal_one_chunk(self, monkeypatch, n, per_chunk, sizes,
                                           k, stride, padding, with_bias):
        rng = np.random.default_rng(23)
        xd = rng.normal(size=(n, 3, 5, 7))
        wd = rng.normal(size=(4, 3, k, k))
        bd = rng.normal(size=4)
        out_h, out_w = ops.conv_output_hw(5, 7, k, k, stride, padding)
        proj = rng.normal(size=(n, 4, out_h, out_w))
        per_sample = 3 * k * k * out_h * out_w

        def run(budget, chunk_sizes):
            monkeypatch.setattr(ops, "_CHUNK_ELEMS", budget)
            assert [s.stop - s.start for s in ops._chunks(n, per_sample)[0]] == chunk_sizes
            x = Tensor(xd.copy(), requires_grad=True)
            w = Parameter(wd.copy())
            b = Parameter(bd.copy()) if with_bias else None
            out = ops.conv2d(x, w, stride=stride, padding=padding, bias=b)
            weighted_sum(out, proj).backward()
            grads = (w.grad, x.grad) + ((b.grad,) if with_bias else ())
            return [a.tobytes() for a in (out.data,) + grads]

        assert run(per_chunk * per_sample, sizes) == run(n * per_sample, [n])

    def test_tape_holds_no_columns(self):
        # 128 x (8*9) x (8*8) columns span 5 chunks: 4.7 MB, none kept
        rng = np.random.default_rng(29)
        x = Tensor(rng.normal(size=(128, 8, 16, 16)), requires_grad=True)
        w = Parameter(rng.normal(size=(8, 8, 3, 3)))
        assert len(ops._chunks(128, 8 * 9 * 64)[0]) == 5
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ops.conv2d(x, w, stride=2, padding=1)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= out.data.nbytes + 64 * 2**10


class TestFiniteDifferences:
    """Central-difference checks (h=1e-5, float64) across 20+ seeds."""

    @pytest.mark.parametrize("seed", range(20))
    def test_conv_block_composite(self, seed):
        rng = np.random.default_rng(seed)
        xd = rng.normal(size=(2, 2, 5, 5))
        wd = rng.normal(size=(3, 2, 3, 3)) * 0.5
        gd = rng.normal(size=(3,)) * 0.2 + 1.0
        bd = rng.normal(size=(3,)) * 0.1
        proj = rng.normal(size=(2, 3, 5, 5))

        def build(with_grads, fused):
            x = Tensor(xd)
            w = Parameter(wd) if with_grads else Tensor(wd)
            g = Parameter(gd) if with_grads else Tensor(gd)
            b = Parameter(bd) if with_grads else Tensor(bd)
            out = ops.conv2d(x, w, stride=1, padding=1)
            # keep activations away from the relu kink so finite differences
            # stay valid
            if fused:  # BN and ReLU as one node
                out, _, _ = ops.batchnorm_train(out, g, b, relu=True)
            else:
                out = ops.relu(ops.batchnorm_train(out, g, b)[0])
            return weighted_sum(out, proj), (w, g, b)

        for fused in (False, True):
            loss, (w, g, b) = build(True, fused)
            inner = interior_nodes(loss)
            loss.backward()
            # the walk freed the interior of the tape; the leaves keep .grad
            for node in inner:
                assert node.grad is None and node._parents == ()
                assert node._backward.__closure__ is None
            for param, arr in ((w, wd), (g, gd), (b, bd)):
                num = numerical_grad(lambda: build(False, fused)[0].item(), arr)
                assert_grad_close(param.grad, num)

    @pytest.mark.parametrize("seed", range(20))
    def test_head_composite(self, seed):
        rng = np.random.default_rng(100 + seed)
        xd = rng.normal(size=(4, 3, 4, 4))
        wd = rng.normal(size=(5, 3)) * 0.4
        bd = rng.normal(size=(5,)) * 0.1
        labels = rng.integers(0, 5, size=4)

        def build(with_grads):
            x = ops.global_avg_pool(Tensor(xd))
            w = Parameter(wd) if with_grads else Tensor(wd)
            b = Parameter(bd) if with_grads else Tensor(bd)
            logits = ops.linear(x, w, b)
            return ops.cross_entropy(logits, labels, label_smoothing=0.1), (w, b)

        loss, (w, b) = build(True)
        loss.backward()
        for param, arr in ((w, wd), (b, bd)):
            num = numerical_grad(lambda: build(False)[0].item(), arr)
            assert_grad_close(param.grad, num)

    @pytest.mark.parametrize("seed", range(5))
    def test_channel_scale_and_strided_conv(self, seed):
        rng = np.random.default_rng(200 + seed)
        xd = rng.normal(size=(2, 3, 6, 6))
        sd = rng.normal(size=(4,)) + 2.0
        wd = rng.normal(size=(4, 3, 3, 3)) * 0.5
        proj = rng.normal(size=(2, 4, 3, 3))

        def build(with_grads):
            w = Parameter(wd) if with_grads else Tensor(wd)
            s = Parameter(sd) if with_grads else Tensor(sd)
            out = ops.conv2d(Tensor(xd), w, stride=2, padding=1)
            out = ops.channel_scale(out, s)
            return weighted_sum(out, proj), (w, s)

        loss, (w, s) = build(True)
        loss.backward()
        for param, arr in ((w, wd), (s, sd)):
            num = numerical_grad(lambda: build(False)[0].item(), arr)
            assert_grad_close(param.grad, num)

    @pytest.mark.parametrize("seed", range(5))
    def test_batchnorm_eval_and_mse(self, seed):
        # eval-mode BN is forward only; the gradient checked is mse_loss's,
        # at the eval-mode BN output
        rng = np.random.default_rng(300 + seed)
        xd = rng.normal(size=(3, 2, 4, 4))
        gd = rng.normal(size=(2,)) + 1.5
        bd = rng.normal(size=(2,))
        mu = rng.normal(size=(2,))
        var = rng.uniform(0.5, 2.0, size=(2,))
        tgt = rng.normal(size=(3, 2, 4, 4))
        out = ops.batchnorm_eval(Tensor(xd), Parameter(gd), Parameter(bd), mu, var)
        assert out._parents == ()
        pd = out.data.copy()
        pred = Parameter(pd.copy())
        ops.mse_loss(pred, tgt).backward()
        num = numerical_grad(lambda: ops.mse_loss(Tensor(pd), tgt).item(), pd)
        assert_grad_close(pred.grad, num)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("c_in,stride,has_identity", [(3, 1, True), (2, 2, False)],
                             ids=["identity", "strided"])
    def test_folded_block(self, seed, c_in, stride, has_identity):
        # every branch kernel, scale vector and gamma of a hyper-search block,
        # through the fold node, its one conv and the BN->ReLU node
        info = BlockInfo(0, "b", c_in, 3, stride, has_identity, 1)
        block = CslaBlock(info, hs_branches(info, "hs_init"), trainable=True, rng=Rng(seed))
        rng = np.random.default_rng(500 + seed)
        for _, p in block.named_parameters():
            p.data += 0.3 * rng.normal(size=p.data.shape)
        x = Tensor(rng.normal(size=(2, c_in, 6, 6)))
        proj = rng.normal(size=(2, 3, 6 // stride, 6 // stride))
        weighted_sum(block.forward(x, training=True), proj).backward()
        params = [p for n, p in block.named_parameters() if not n.startswith("bn.")]
        assert len(params) == 4 + has_identity

        def loss_value():
            with no_grad():
                return weighted_sum(block.forward(x, training=True), proj).item()

        for p in params:
            assert_grad_close(p.grad, numerical_grad(loss_value, p.data))

    # (3, 2, 0) adds col2im taps that would start before the first output row
    @pytest.mark.parametrize("k,stride,padding", LOWERINGS + [(3, 2, 0)])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_conv_input_gradient(self, k, stride, padding, batch):
        rng = np.random.default_rng(42 + batch)
        xd = rng.normal(size=(batch, 3, 5, 7))
        wd = rng.normal(size=(2, 3, k, k))
        out_hw = ops.conv_output_hw(5, 7, k, k, stride, padding)
        proj = rng.normal(size=(batch, 2) + out_hw)

        def loss_value():
            return weighted_sum(
                ops.conv2d(Tensor(xd), Tensor(wd), stride=stride, padding=padding), proj
            ).item()

        x = Tensor(xd.copy(), requires_grad=True)
        weighted_sum(ops.conv2d(x, Tensor(wd), stride=stride, padding=padding),
                         proj).backward()
        assert_grad_close(x.grad, numerical_grad(loss_value, xd))


# ---------------------------------------------------------------------------
# layer primitive semantics
# ---------------------------------------------------------------------------

class TestPrimitives:
    def test_channel_scale_all_ones_is_identity(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 4))
        out = ops.channel_scale(Tensor(x), Tensor(np.ones(3)))
        np.testing.assert_array_equal(out.data, x)

    def test_batchnorm_eval_unit_stats(self):
        x = np.random.default_rng(1).normal(size=(2, 3, 4, 4))
        out = ops.batchnorm_eval(
            Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), np.zeros(3), np.ones(3),
        )
        np.testing.assert_allclose(out.data, x / np.sqrt(1.0 + ops.BN_EPS), atol=1e-15)

    def test_batchnorm_eval_relu_is_relu_of_the_affine_map(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 4, 4))
        gamma, beta = rng.normal(size=3), rng.normal(size=3)
        mean, var = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        scale = (gamma * inv_std).reshape(1, 3, 1, 1)
        shift = (beta - gamma * mean * inv_std).reshape(1, 3, 1, 1)
        want = x * scale + shift
        for relu in (False, True):
            out = ops.batchnorm_eval(Tensor(x), Tensor(gamma), Tensor(beta), mean, var,
                                     relu=relu)
            expect = np.maximum(want, 0.0) if relu else want
            assert out.data.tobytes() == expect.tobytes()
        assert (want < 0).any()

    def test_batchnorm_train_normalizes(self):
        x = np.random.default_rng(2).normal(size=(8, 3, 5, 5)) * 3.0 + 1.0
        out, mu, var = ops.batchnorm_train(
            Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3))
        )
        assert np.allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
        assert np.allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-4)
        np.testing.assert_allclose(mu, x.mean(axis=(0, 2, 3)))

    @pytest.mark.parametrize("shape", [(2, 3, 4, 4), (5, 2, 3, 7), (3, 4, 1, 1),
                                       (16, 8, 8, 8)])
    @pytest.mark.parametrize("seed", range(3))
    def test_batchnorm_relu_node_bytes_equal_two_nodes(self, shape, seed):
        rng = np.random.default_rng(400 + seed)
        c = shape[1]
        xd = rng.normal(size=shape) * 2.0 + 0.5
        gd, bd = rng.normal(size=c) + 1.0, rng.normal(size=c)
        proj = rng.normal(size=shape)

        def run(fused):
            x = Tensor(xd, requires_grad=True)
            g, b = Parameter(gd), Parameter(bd)
            if fused:
                out, mu, var = ops.batchnorm_train(x, g, b, relu=True)
            else:
                out, mu, var = ops.batchnorm_train(x, g, b)
                out = ops.relu(out)
            weighted_sum(out, proj).backward()
            return [a.tobytes() for a in (out.data, mu, var, x.grad, g.grad, b.grad)]

        assert run(True) == run(False)

    def test_batchnorm_train_rejects_single_sample(self):
        with pytest.raises(UsageError):
            ops.batchnorm_train(
                Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.ones(2)), Tensor(np.zeros(2))
            )

    def test_cross_entropy_confident_correct_approaches_zero(self):
        logits = np.zeros((2, 4))
        logits[0, 1] = 50.0
        logits[1, 3] = 50.0
        loss = ops.cross_entropy(Tensor(logits), np.array([1, 3]), label_smoothing=0.0)
        assert loss.item() < 1e-12

    def test_cross_entropy_uniform_logits(self):
        loss = ops.cross_entropy(Tensor(np.zeros((3, 10))), np.array([0, 5, 9]))
        assert loss.item() == pytest.approx(np.log(10.0))

    def test_global_avg_pool(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = ops.global_avg_pool(Tensor(x))
        assert out.data[0, 0] == pytest.approx(7.5)

    def test_relu(self):
        out = ops.relu(Tensor(np.array([[-1.0, 2.0]])))
        np.testing.assert_array_equal(out.data, [[0.0, 2.0]])


class TestNoGrad:
    def test_ops_record_no_tape(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)
        w = Parameter(rng.normal(size=(4, 3, 3, 3)))
        g, b = Parameter(np.ones(4)), Parameter(np.zeros(4))

        def forward():
            out, _, _ = ops.batchnorm_train(ops.conv2d(x, w, padding=1), g, b)
            return ops.cross_entropy(ops.global_avg_pool(ops.relu(out)),
                                     np.array([0, 3]))

        taped = forward()
        with no_grad():
            assert not grad_enabled()
            bare = forward()
        assert grad_enabled()
        assert taped._parents and taped._backward is not None
        assert bare._parents == () and bare._backward is None
        assert bare.data.tobytes() == taped.data.tobytes()

    def test_state_restored_after_exception(self):
        with pytest.raises(ShapeError):
            with no_grad():
                with no_grad():
                    pass
                assert not grad_enabled()
                ops.add(Tensor(np.zeros(2)), Tensor(np.zeros(3)))
        assert grad_enabled()

    def test_evaluate_matches_eval_forward(self):
        # an eval forward records no tape, and evaluate reads its argmax
        spec = ModelSpec(4, ((1, 4), (1, 8)), 10, 16)
        model = build_hypersearch(spec, rng=Rng(2))
        handle = gen_synthetic(40, 16, 10, seed=1)
        logits = model.forward(handle.normalized(), training=False)
        assert logits._parents == () and logits._backward is None
        acc = evaluate(model, handle)
        assert acc == float((np.argmax(logits.data, axis=1) == handle.labels).mean())
