import numpy as np
import pytest

from gradrep import ops
from gradrep.autodiff import Parameter, Tensor
from gradrep.errors import ConfigError, ShapeError, UsageError
from gradrep.optim import (
    MultiplierSgd,
    OptimizerConfig,
    branch_list,
    dirac_kernel,
    embed_kernel,
    equivalent_init,
    equivalent_kernel,
    grad_mult,
    lr_schedule,
)
from helpers import weighted_sum


def block_mult(s, t, has_identity, c_in=None):
    """Multiplier of the (3x3, 1x1, identity) block."""
    return grad_mult(((3, s), (1, t)), has_identity, c_in=c_in)


def block_kernel(w_s, w_t, s, t, gamma=None):
    """Equivalent kernel of the (3x3, 1x1, identity) block."""
    return equivalent_kernel(((3, s), (1, t)), (w_s, w_t), gamma)


class TestGradMultTable:
    def test_zero_scales_with_identity(self):
        m = block_mult(np.zeros(3), np.zeros(3), has_identity=True)
        want = np.zeros((3, 3, 3, 3))
        want[np.arange(3), np.arange(3), 1, 1] = 1.0
        np.testing.assert_array_equal(m, want)

    def test_three_case_substitution(self):
        m = block_mult(np.full(2, 2.0), np.full(2, 3.0), has_identity=True)
        assert m[0, 0, 1, 1] == 14.0  # 1 + 4 + 9 on the diagonal center
        assert m[0, 1, 1, 1] == 13.0  # 4 + 9 off-diagonal center
        assert m[0, 1, 0, 2] == 4.0  # s^2 elsewhere
        assert m[1, 1, 2, 0] == 4.0

    def test_no_identity_drops_plus_one(self):
        m = block_mult(np.full(2, 2.0), np.full(2, 3.0), has_identity=False)
        assert m[0, 0, 1, 1] == 13.0

    def test_entries_nonnegative_and_diag_rule(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=6)
        t = rng.normal(size=6)
        m = block_mult(s, t, has_identity=True)
        assert np.all(m >= 0)
        idx = np.arange(6)
        np.testing.assert_allclose(
            m[idx, idx, 1, 1], (s ** 2 + t ** 2) + 1.0, atol=0, rtol=0
        )
        # per output channel, the diagonal center is its off-diagonal center + 1
        off = m[idx, (idx + 1) % 6, 1, 1]
        np.testing.assert_array_equal(m[idx, idx, 1, 1], off + 1.0)

    def test_rectangular_kernel(self):
        m = block_mult(np.ones(4), np.ones(4), has_identity=False, c_in=2)
        assert m.shape == (4, 2, 3, 3)
        with pytest.raises(ShapeError):
            block_mult(np.ones(4), np.ones(4), has_identity=True, c_in=2)

    def test_length_mismatch_rejected(self):
        # the 1x1 branch's scale vector is one longer than c_out
        with pytest.raises(ShapeError):
            block_kernel(np.ones((3, 3, 3, 3)), np.ones((3, 3, 1, 1)), np.ones(3), np.ones(4))

    def test_scalar_form(self):
        # two same-size branches with scalar scales: one scalar multiplier
        def scalar(a, b):
            m = grad_mult(((3, np.array([a])), (3, np.array([b]))), has_identity=False)
            assert np.all(m == m.flat[0])
            return m.flat[0]

        assert scalar(1.0, 0.0) == 1.0
        assert scalar(1.0, 1.0) == 2.0
        assert scalar(0.5, 0.5) == 0.5

    @pytest.mark.parametrize("sizes, has_identity, c_in", [
        ((5, 3, 1), True, None),
        ((3, 3), False, None),
        ((3, 1), False, 2),
    ], ids=["5-3-1-identity", "two-3x3", "rectangular"])
    def test_equals_the_footprint_oracle(self, sizes, has_identity, c_in):
        # sum_b s_b^2 * embed(ones of b's footprint) + dirac, bit for bit
        rng = np.random.default_rng(9)
        c = 4
        c_in = c if c_in is None else c_in
        big = max(sizes)
        branches = tuple((k, rng.uniform(-2, 2, c)) for k in sizes)
        want = sum((s ** 2)[:, None, None, None] * embed_kernel(np.ones((c, c_in, k, k)), big)
                   for k, s in branches)
        if has_identity:
            want = want + dirac_kernel(c, big)
        got = grad_mult(branches, has_identity, c_in=c_in)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_two_branch_1x1_form(self):
        m = grad_mult(((1, np.array([2.0, 3.0])),), has_identity=True)
        np.testing.assert_array_equal(m[:, :, 0, 0], [[5.0, 4.0], [9.0, 10.0]])


class TestBranchList:
    def test_checked_list_holds_float64_vectors(self):
        out = branch_list([(3, (1, 2)), (1, np.array([0.5, 1], dtype=np.float32))], 2, "b")
        assert [k for k, _ in out] == [3, 1]
        assert all(s.dtype == np.float64 and s.shape == (2,) for _, s in out)
        np.testing.assert_array_equal(out[0][1], [1.0, 2.0])

    @pytest.mark.parametrize("branches", [
        (), ((2, np.ones(2)),), ((-1, np.ones(2)),), ((3, np.ones(3)),),
        ((3, np.ones((2, 1))),),
    ], ids=["empty", "even", "negative", "length", "2-d"])
    def test_size_or_shape_is_a_shape_error_naming_the_block(self, branches):
        with pytest.raises(ShapeError, match="block s1b0: "):
            branch_list(branches, 2, "s1b0")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scale_is_a_config_error_naming_the_block(self, bad):
        with pytest.raises(ConfigError, match="block s1b0: non-finite 1x1"):
            branch_list(((3, np.ones(2)), (1, [1.0, bad])), 2, "s1b0")


class TestEquivalentInit:
    def test_pure_3x3_branch(self):
        w_s = np.random.default_rng(0).normal(size=(3, 3, 3, 3))
        w = block_kernel(w_s, np.zeros((3, 3, 1, 1)), np.ones(3), np.zeros(3))
        np.testing.assert_array_equal(w, w_s)

    def test_pure_identity_is_dirac(self):
        w = block_kernel(np.zeros((2, 2, 3, 3)), np.zeros((2, 2, 1, 1)),
                         np.zeros(2), np.zeros(2), gamma=np.ones(2))
        x = np.random.default_rng(1).normal(size=(1, 2, 5, 5))
        out = ops.conv2d(Tensor(x), Tensor(w), stride=1, padding=1)
        np.testing.assert_allclose(out.data, x, atol=1e-15)

    @pytest.mark.parametrize("has_identity", [True, False])
    def test_forward_matches_branched_sum(self, has_identity):
        # conv(x, w') must equal s*conv3(x) + t*conv1(x) (+ gamma*x).
        rng = np.random.default_rng(5)
        c = 4
        x = rng.normal(size=(2, c, 6, 6))
        w_s = rng.normal(size=(c, c, 3, 3))
        w_t = rng.normal(size=(c, c, 1, 1))
        s = rng.uniform(0.3, 1.5, size=c)
        t = rng.uniform(0.3, 1.5, size=c)
        gamma = rng.uniform(0.5, 1.5, size=c) if has_identity else None
        branched = (
            s[None, :, None, None]
            * ops.conv2d(Tensor(x), Tensor(w_s), stride=1, padding=1).data
            + t[None, :, None, None]
            * ops.conv2d(Tensor(x), Tensor(w_t), stride=1, padding=0).data
        )
        if has_identity:
            branched = branched + gamma[None, :, None, None] * x
        w = block_kernel(w_s, w_t, s, t, gamma)
        single = ops.conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
        np.testing.assert_allclose(single, branched, atol=1e-12, rtol=0)

    def test_strided_forward_matches(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 8, 8))
        w_s = rng.normal(size=(5, 3, 3, 3))
        w_t = rng.normal(size=(5, 3, 1, 1))
        s = rng.uniform(0.5, 1.5, size=5)
        t = rng.uniform(0.5, 1.5, size=5)
        branched = (
            s[None, :, None, None]
            * ops.conv2d(Tensor(x), Tensor(w_s), stride=2, padding=1).data
            + t[None, :, None, None]
            * ops.conv2d(Tensor(x), Tensor(w_t), stride=2, padding=0).data
        )
        single = ops.conv2d(
            Tensor(x), Tensor(block_kernel(w_s, w_t, s, t)), stride=2, padding=1
        ).data
        np.testing.assert_allclose(single, branched, atol=1e-12, rtol=0)

    def test_equivalent_init_shim_is_the_block_fold(self):
        rng = np.random.default_rng(8)
        w_s, w_t = rng.normal(size=(3, 3, 3, 3)), rng.normal(size=(3, 3, 1, 1))
        s, t, g = rng.uniform(0.5, 1.5, size=(3, 3))
        assert (equivalent_init(w_s, w_t, s, t, g).tobytes()
                == block_kernel(w_s, w_t, s, t, g).tobytes())

    def test_1x1_variant(self):
        rng = np.random.default_rng(7)
        w_t = rng.normal(size=(3, 3, 1, 1))
        t = rng.uniform(0.5, 1.5, size=3)
        g = rng.uniform(0.5, 1.5, size=3)
        w = equivalent_kernel(((1, t),), (w_t,), g)
        want = t[:, None] * w_t[:, :, 0, 0] + np.diag(g)
        np.testing.assert_allclose(w[:, :, 0, 0], want, atol=1e-15)


class TestMultiplierChainRuleOracle:
    """Differentiate the actual branched forward, map the branch gradients
    onto the equivalent kernel, and compare with multiplier-times-single-conv
    gradient. This is the independent oracle for the three-case table."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("has_identity", [True, False])
    def test_mapped_branch_grads_equal_masked_single_grad(self, seed, has_identity):
        rng = np.random.default_rng(seed)
        c = 3
        x = rng.normal(size=(2, c, 6, 6))
        w_s0 = rng.normal(size=(c, c, 3, 3))
        w_t0 = rng.normal(size=(c, c, 1, 1))
        s = rng.uniform(0.3, 1.6, size=c)
        t = rng.uniform(0.3, 1.6, size=c)
        proj = rng.normal(size=(2, c, 6, 6))

        # branched side
        w_s = Parameter(w_s0)
        w_t = Parameter(w_t0)
        gamma = Parameter(np.ones(c)) if has_identity else None
        z = ops.add(
            ops.channel_scale(ops.conv2d(Tensor(x), w_s, stride=1, padding=1), Tensor(s)),
            ops.channel_scale(ops.conv2d(Tensor(x), w_t, stride=1, padding=0), Tensor(t)),
        )
        if has_identity:
            z = ops.add(z, ops.channel_scale(Tensor(x), gamma))
        weighted_sum(z, proj).backward()

        combined = s[:, None, None, None] * w_s.grad
        combined[:, :, 1, 1] += t[:, None] * w_t.grad[:, :, 0, 0]
        if has_identity:
            combined[np.arange(c), np.arange(c), 1, 1] += gamma.grad

        # single-operator side
        w_prime = Parameter(
            block_kernel(w_s0, w_t0, s, t, np.ones(c) if has_identity else None)
        )
        z2 = ops.conv2d(Tensor(x), w_prime, stride=1, padding=1)
        np.testing.assert_allclose(z2.data, z.data, atol=1e-12, rtol=0)
        weighted_sum(z2, proj).backward()
        masked = block_mult(s, t, has_identity) * w_prime.grad
        np.testing.assert_allclose(combined, masked, atol=1e-10, rtol=0)


def sgd_param(values, grad):
    p = Parameter(np.array(values))
    p.grad = np.array(grad)
    return p


class TestMultiplierSgdStep:
    def test_all_ones_plain_sgd(self):
        p = sgd_param([1.0, 2.0], [0.5, -1.0])
        MultiplierSgd({"w": p}, multipliers={"w": np.ones(2)}).step(0.1)
        np.testing.assert_allclose(p.data, [1.0 - 0.05, 2.0 + 0.1])

    def test_multiplier_applied_before_decay(self):
        p = sgd_param([2.0], [1.0])
        MultiplierSgd({"w": p}, weight_decay=0.1,
                      multipliers={"w": np.array([3.0])}).step(1.0)
        # g = 3*1 + 0.1*2 = 3.2, theta = 2 - 3.2
        np.testing.assert_allclose(p.data, [-1.2])

    def test_momentum_accumulates(self):
        p = sgd_param([0.0], [1.0])
        opt = MultiplierSgd({"w": p}, momentum=0.5)
        for _ in range(2):
            opt.step(1.0)
        # v1 = 1, theta -> -1; v2 = 0.5 + 1 = 1.5, theta -> -2.5
        np.testing.assert_allclose(p.data, [-2.5])

    def test_sgd_class_validates_names_and_shapes(self):
        p = Parameter(np.zeros((2, 2)))
        with pytest.raises(UsageError):
            MultiplierSgd({"w": p}, multipliers={"nope": np.ones(1)})
        with pytest.raises(ShapeError):
            MultiplierSgd({"w": p}, multipliers={"w": np.ones(3)})
        with pytest.raises(UsageError):
            MultiplierSgd({"w": p}, managed=("w",))


class TestLrSchedule:
    def setup_method(self):
        self.cfg = OptimizerConfig(base_lr=0.4, warmup_epochs=5, total_epochs=100)

    def test_step_zero_is_zero(self):
        assert lr_schedule(self.cfg, 0, 1000) == 0.0

    def test_end_of_warmup_is_base(self):
        assert lr_schedule(self.cfg, 50, 1000) == pytest.approx(0.4)

    def test_final_step_is_zero(self):
        assert lr_schedule(self.cfg, 1000, 1000) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_decay_after_warmup(self):
        vals = [lr_schedule(self.cfg, s, 1000) for s in range(50, 1001)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_no_warmup(self):
        cfg = OptimizerConfig(base_lr=0.2, warmup_epochs=0, total_epochs=10)
        assert lr_schedule(cfg, 0, 100) == pytest.approx(0.2)

    def test_constant_schedule(self):
        cfg = OptimizerConfig(base_lr=0.3, schedule="constant")
        assert lr_schedule(cfg, 17, 100) == 0.3

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(base_lr=-1.0)
        with pytest.raises(ConfigError):
            OptimizerConfig(momentum=1.0)
        with pytest.raises(ConfigError):
            OptimizerConfig(schedule="step")

    def test_warmup_longer_than_run_rejected(self):
        # the schedule would peak at half of base_lr and never reach the cosine phase
        with pytest.raises(ConfigError, match="warmup_epochs"):
            OptimizerConfig(base_lr=0.1, warmup_epochs=20, total_epochs=10)
        cfg = OptimizerConfig(base_lr=0.1, warmup_epochs=10, total_epochs=10)
        assert lr_schedule(cfg, 100, 100) == pytest.approx(0.1)
