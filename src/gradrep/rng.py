"""Seedable random number generation with a pinned algorithm.

Every random draw in the package flows through :class:`Rng` so that runs are
reproducible bit-for-bit and checkpoints stay portable. The algorithm is fixed:

* bit stream: numpy's PCG64 (raw 64-bit outputs via ``random_raw``);
* uniforms: ``(raw >> 11) * 2**-53`` in ``[0, 1)``;
* Gaussians: Box-Muller on consecutive uniform pairs, cosine value first,
  sine value second, no caching of spare values between calls; a draw of
  ``n`` values takes ``2 * ceil(n / 2)`` raw outputs;
* jump-ahead: :meth:`Rng.ahead` copies the stream ``k`` raw outputs on
  (``PCG64.advance``, O(log k)), so a worker can draw any stretch of the one
  stream and get the bytes a single sequential draw would have given there;
* permutations: Fisher-Yates driven by the same uniform stream;
* sub-streams: ``numpy.random.SeedSequence(seed).spawn(...)``, one child per
  named role (model init, data order, ...).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError, UsageError

_INV_2_53 = 2.0 ** -53


class Rng:
    """PCG64-backed stream with uniform, Gaussian and permutation draws."""

    def __init__(self, seed):
        if isinstance(seed, np.random.SeedSequence):
            self._bitgen = np.random.PCG64(seed)
        else:
            self._bitgen = np.random.PCG64(int(seed))

    @staticmethod
    def spawn(seed: int, n: int) -> list["Rng"]:
        """Derive ``n`` independent named sub-streams from one run seed."""
        return [Rng(child) for child in np.random.SeedSequence(int(seed)).spawn(n)]

    def ahead(self, k: int) -> "Rng":
        """A copy of this stream ``k`` raw draws further on; this stream
        stays where it is."""
        if k < 0:
            raise UsageError(f"a stream only jumps ahead, got k = {k}")
        copy = Rng(0)
        copy._bitgen.state = self._bitgen.state
        copy._bitgen.advance(int(k))
        return copy

    @staticmethod
    def gaussian_draws(n: int) -> int:
        """Raw draws a Gaussian draw of ``n`` values takes: one uniform pair
        per two values, the odd value's partner drawn and dropped."""
        return 2 * ((n + 1) // 2)

    def uniform(self, n: int) -> np.ndarray:
        """``n`` doubles in [0, 1) from the raw 64-bit stream."""
        raw = self._bitgen.random_raw(n)
        raw >>= np.uint64(11)
        u = raw.astype(np.float64)
        u *= _INV_2_53
        return u

    def gaussian(self, shape) -> np.ndarray:
        """Standard-normal array via the Box-Muller transform, written back
        into the uniform buffer; the log, cosine and sine run on contiguous
        arrays, as vectorized math libraries may round strided ones
        differently."""
        n = int(np.prod(shape)) if shape else 1
        u = self.uniform(self.gaussian_draws(n))
        # 1 - u lies in (0, 1], so the log is finite.
        r = np.negative(u[0::2])
        np.log1p(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta = u[1::2] * (2.0 * math.pi)
        trig = np.cos(theta)
        np.multiply(r, trig, out=u[0::2])
        np.sin(theta, out=trig)
        np.multiply(r, trig, out=u[1::2])
        return u[:n].reshape(shape)

    def integers_below(self, bound: int, n: int) -> np.ndarray:
        """``n`` integers uniform on [0, bound) (floor of scaled uniforms)."""
        return np.minimum((self.uniform(n) * bound).astype(np.int64), bound - 1)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        perm = np.arange(n)
        if n < 2:
            return perm
        u = self.uniform(n - 1)
        for k, i in enumerate(range(n - 1, 0, -1)):
            j = min(int(u[k] * (i + 1)), i)
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def get_state(self) -> dict:
        """JSON-friendly snapshot of the bit-generator state."""
        st = self._bitgen.state
        return {
            "bit_generator": st["bit_generator"],
            "state": str(st["state"]["state"]),
            "inc": str(st["state"]["inc"]),
            "has_uint32": int(st["has_uint32"]),
            "uinteger": int(st["uinteger"]),
        }

    def set_state(self, snapshot: dict) -> None:
        self._bitgen.state = {
            "bit_generator": snapshot["bit_generator"],
            "state": {"state": int(snapshot["state"]), "inc": int(snapshot["inc"])},
            "has_uint32": int(snapshot["has_uint32"]),
            "uinteger": int(snapshot["uinteger"]),
        }


def msra_std(shape) -> float:
    """Init std sqrt(2 / fan_in) for a (c_out, c_in, k_h, k_w) kernel shape."""
    c_out, c_in, k_h, k_w = shape
    if min(c_out, c_in, k_h, k_w) <= 0:
        raise ShapeError(f"kernel shape must be positive, got {tuple(shape)}")
    return math.sqrt(2.0 / (c_in * k_h * k_w))


def msra_init(shape, rng: Rng) -> np.ndarray:
    """Zero-mean float64 Gaussian kernel with std sqrt(2 / (c_in*k_h*k_w)),
    drawn from ``rng`` (model builders draw all their kernels from one stream
    in a fixed order; a standalone draw passes ``Rng(seed)``)."""
    return msra_std(shape) * rng.gaussian(shape)
