import math

import numpy as np
import pytest

from gradrep.errors import UsageError
from gradrep.rng import Rng, msra_init, msra_std


class TestRngDeterminism:
    def test_same_seed_same_stream(self):
        a = Rng(1234).uniform(1000)
        b = Rng(1234).uniform(1000)
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        assert Rng(1).uniform(100).tobytes() != Rng(2).uniform(100).tobytes()

    def test_state_roundtrip_resumes_stream(self):
        rng = Rng(7)
        rng.uniform(37)  # advance
        snap = rng.get_state()
        ahead = rng.uniform(100)
        rng2 = Rng(0)
        rng2.set_state(snap)
        assert rng2.uniform(100).tobytes() == ahead.tobytes()

    def test_spawn_streams_are_independent_and_stable(self):
        a1, b1 = Rng.spawn(99, 2)
        a2, b2 = Rng.spawn(99, 2)
        assert a1.uniform(50).tobytes() == a2.uniform(50).tobytes()
        assert b1.uniform(50).tobytes() == b2.uniform(50).tobytes()
        assert a1.uniform(50).tobytes() != b1.uniform(50).tobytes()


class TestDraws:
    def test_uniform_range(self):
        u = Rng(3).uniform(10000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_gaussian_moments(self):
        z = Rng(5).gaussian((200000,))
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_gaussian_odd_length(self):
        z = Rng(5).gaussian((7,))
        assert z.shape == (7,)

    @pytest.mark.parametrize("shape", [(), (1,), (7,), (6, 5), (3, 3, 9, 9)])
    def test_uniform_and_gaussian_match_the_out_of_place_formulas(self, shape):
        # the pinned formulas, one new array per operation
        n = int(np.prod(shape))
        pairs = (n + 1) // 2
        raw = np.random.PCG64(17).random_raw(2 * pairs + 3)
        u = (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        r = np.sqrt(-2.0 * np.log1p(-u[0:2 * pairs:2]))
        theta = 2.0 * math.pi * u[1:2 * pairs:2]
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        rng = Rng(17)
        assert rng.gaussian(shape).tobytes() == z[:n].tobytes()
        assert rng.uniform(3).tobytes() == u[2 * pairs:].tobytes()

    def test_permutation_is_permutation(self):
        p = Rng(11).permutation(257)
        assert sorted(p.tolist()) == list(range(257))

    def test_permutation_deterministic(self):
        assert Rng(11).permutation(64).tolist() == Rng(11).permutation(64).tolist()

    def test_integers_below_bounds(self):
        v = Rng(13).integers_below(7, 5000)
        assert v.min() >= 0 and v.max() <= 6


class TestAhead:
    @pytest.mark.parametrize("k", [1, 2, 37, 1000])
    def test_equals_the_stream_after_k_uniform_draws(self, k):
        rng = Rng(21)
        rng.uniform(5)
        jumped = rng.ahead(k)
        rng.uniform(k)
        assert jumped.uniform(50).tobytes() == rng.uniform(50).tobytes()

    @pytest.mark.parametrize("n", [1, 7, 3 * 9 * 9])
    def test_equals_the_stream_after_an_odd_gaussian_draw(self, n):
        # an odd draw takes one raw value more than it returns
        rng = Rng(22)
        jumped = rng.ahead(Rng.gaussian_draws(n))
        assert Rng.gaussian_draws(n) == n + 1
        rng.gaussian((n,))
        assert jumped.gaussian((9,)).tobytes() == rng.gaussian((9,)).tobytes()

    def test_leaves_the_source_unmoved(self):
        rng = Rng(23)
        before = rng.get_state()
        rng.ahead(12345)
        assert rng.get_state() == before
        assert rng.uniform(10).tobytes() == Rng(23).uniform(10).tobytes()

    def test_zero_is_a_copy(self):
        rng = Rng(24)
        rng.uniform(3)
        copy = rng.ahead(0)
        assert copy is not rng and copy.get_state() == rng.get_state()
        assert copy.uniform(8).tobytes() == rng.uniform(8).tobytes()
        copy.uniform(1)
        assert copy.get_state() != rng.get_state()

    def test_negative_k_raises(self):
        with pytest.raises(UsageError):
            Rng(25).ahead(-1)


class TestMsraInit:
    def test_same_seed_bit_identical(self):
        k1 = msra_init((8, 4, 3, 3), rng=Rng(42))
        k2 = msra_init((8, 4, 3, 3), rng=Rng(42))
        assert k1.tobytes() == k2.tobytes()

    def test_std_parameter_unit_shape(self):
        assert msra_std((1, 1, 1, 1)) == pytest.approx(math.sqrt(2.0))

    def test_sample_std_matches_formula(self):
        # (64, 64, 3, 3): target std sqrt(2/576) ~ 0.0589, checked per seed.
        target = math.sqrt(2.0 / (64 * 9))
        for seed in range(10):
            k = msra_init((64, 64, 3, 3), rng=Rng(seed))
            assert abs(k.std() - target) / target < 0.05

    def test_rejects_nonpositive_shape(self):
        from gradrep.errors import ShapeError

        with pytest.raises(ShapeError):
            msra_init((0, 3, 3, 3), rng=Rng(1))
