"""Symmetric entry laws: exact even moments, truncated moments, samplers.

Moments are exact `Fraction`s wherever the law allows it, so the walk-sum
trace moments downstream stay exact. Samplers draw from a numpy Generator
and are only used by the Monte Carlo layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

import numpy as np


def _double_factorial_odd(m: int) -> int:
    """(2m-1)!! = (2m)! / (2^m m!)."""
    return math.factorial(2 * m) // (2**m * math.factorial(m))


def _check_scale(name: str, value) -> None:
    """A scale is a finite magnitude: a negative one would be a second
    spelling of its absolute value."""
    if not value < math.inf:  # NaN or +inf
        raise ValueError(f"{name} must be finite")
    if value < 0:
        raise ValueError(f"{name} must be >= 0")


def _signs(rng: np.random.Generator, size: int) -> np.ndarray:
    """size signs +-1.0: 2.0 * rng.integers(0, 2, size=size) - 1.0, bit for bit,
    for a 64-bit bit generator such as Philox with no 32-bit half left over
    (every new or re-keyed one).

    integers draws each entry from one 32-bit half of a 64-bit word, low
    half first, and for a range of two Lemire's bounded method keeps
    just that half's top bit, so the halves are read straight from
    ceil(size / 2) raw words. The halves are taken in little-endian order
    whatever the machine's. After an odd size the last word's high half is
    dropped where integers would keep it for the next 32-bit draw; 64-bit
    draws such as `rng.random` come out the same either way. The array is
    fresh, so callers scale it in place.
    """
    raw = rng.bit_generator.random_raw((size + 1) // 2)
    signs = 2.0 * (raw.astype("<u8", copy=False).view("<u4")[:size] >> 31)
    signs -= 1.0
    return signs


class _SampledMagnitudes:
    """The largest |a| for a law that draws its signs with its values: from the signed draw."""

    def largest_magnitude(self, rng: np.random.Generator, size: int) -> float:
        """np.abs(self.sample(rng, size)).max(), for size >= 1."""
        return np.abs(self.sample(rng, size)).max()


@dataclass(frozen=True)
class RademacherLaw(_SampledMagnitudes):
    """a = +-v with equal probability."""

    v: Fraction = Fraction(1)
    name: ClassVar[str] = "rademacher"

    def __post_init__(self):
        _check_scale("v", self.v)

    def moment(self, order: int) -> Fraction:
        if order % 2:
            return Fraction(0)
        return Fraction(self.v) ** order

    def abs_moment(self, order: float) -> float:
        return float(self.v) ** order

    def truncated_moment(self, order: int, cutoff: float) -> Fraction:
        if order % 2:
            return Fraction(0)
        return self.moment(order) if Fraction(self.v) <= Fraction(cutoff) else Fraction(0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = _signs(rng, size)
        out *= float(self.v)
        return out

    def descriptor(self) -> dict:
        return {"law": self.name, "v": str(self.v)}


@dataclass(frozen=True)
class GaussianLaw(_SampledMagnitudes):
    """Centered normal with standard deviation v."""

    v: Fraction = Fraction(1)
    name: ClassVar[str] = "gaussian"

    def __post_init__(self):
        _check_scale("v", self.v)

    def moment(self, order: int) -> Fraction:
        if order % 2:
            return Fraction(0)
        m = order // 2
        return Fraction(self.v) ** order * _double_factorial_odd(m)

    def abs_moment(self, order: float) -> float:
        """E|a|^order = v^order 2^(order/2) Gamma((order+1)/2) / sqrt(pi)."""
        return float(self.v) ** order * 2 ** (order / 2) * math.gamma((order + 1) / 2) / math.sqrt(math.pi)

    def truncated_moment(self, order: int, cutoff: float) -> float:
        """E[a^order; |a| <= cutoff] by the two-sided integration-by-parts recursion."""
        if order % 2:
            return 0.0
        sigma = float(self.v)
        if sigma == 0:  # a point mass at 0
            return 1.0 if order == 0 else 0.0
        u = cutoff / sigma
        phi_u = math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
        val = math.erf(u / math.sqrt(2))  # E[1_{|Z|<=u}]
        for m in range(1, order // 2 + 1):
            val = (2 * m - 1) * val - 2 * u ** (2 * m - 1) * phi_u
        return sigma**order * val

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = rng.standard_normal(size)
        out *= float(self.v)
        return out

    def descriptor(self) -> dict:
        return {"law": self.name, "v": str(self.v)}


@dataclass(frozen=True)
class GoeLaw(GaussianLaw):
    """Gaussian off-diagonal law whose diagonal variance is doubled downstream."""

    name: ClassVar[str] = "goe"


@dataclass(frozen=True)
class PowerTailLaw:
    """Symmetrized Pareto: |a| has density gamma x0^gamma / x^(gamma+1) on [x0, inf).

    The scale x0 is set so the variance is v^2; moments of order >= gamma
    diverge, so choose gamma above the largest moment the experiment needs.
    """

    v: float = 1.0
    gamma: float = 24.0
    name: ClassVar[str] = "power-tail"

    def __post_init__(self):
        _check_scale("v", self.v)
        if not 2 < self.gamma < math.inf:  # NaN fails both comparisons
            raise ValueError("gamma must be finite and exceed 2 for a finite variance")

    @property
    def x0(self) -> float:
        return float(self.v) * math.sqrt((self.gamma - 2) / self.gamma)

    def abs_moment(self, order: float) -> float:
        if order >= self.gamma:
            raise ValueError(f"E|a|^{order} diverges for gamma={self.gamma}")
        return self.gamma * self.x0**order / (self.gamma - order)

    def moment(self, order: int) -> float:
        if order % 2:
            return 0.0
        return self.abs_moment(order)

    def truncated_moment(self, order: int, cutoff: float) -> float:
        if order % 2:
            return 0.0
        if cutoff <= self.x0:
            return 0.0
        g, p = self.gamma, order
        if p == g:  # the limit p -> g of the general form
            return g * self.x0**g * math.log(cutoff / self.x0)
        return g * self.x0**p / (g - p) * (1 - (self.x0 / cutoff) ** (g - p))

    def largest_magnitude(self, rng: np.random.Generator, size: int) -> float:
        """np.abs(self.sample(rng, size)).max(), for size >= 1, bit for bit:
        the signs, drawn after the magnitudes, are skipped, and the map from u
        to |a| rises with u, so only the largest u goes through it. That u is
        the largest raw word's: `rng.random` maps each 64-bit word w to
        (w >> 11) 2^-53, exactly and rising with w."""
        largest = rng.bit_generator.random_raw(size).max(keepdims=True)
        return self._magnitude_of((largest >> 11) * 2.0**-53)[0]

    def _magnitude_of(self, u: np.ndarray) -> np.ndarray:
        """|a| = x0 (1 - u)^(-1/gamma) for a float array of uniforms u in [0, 1),
        computed in u's own buffer, which it overwrites and returns."""
        np.subtract(1.0, u, out=u)
        np.power(u, -1.0 / self.gamma, out=u)
        u *= self.x0
        return u

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # the signs are drawn after the magnitudes, so `largest_magnitude` may stop short of them
        mag = self._magnitude_of(rng.random(size))
        mag *= _signs(rng, size)
        return mag

    def descriptor(self) -> dict:
        return {"law": self.name, "v": repr(self.v), "gamma": repr(self.gamma)}


@dataclass(frozen=True)
class ThreePointLaw(_SampledMagnitudes):
    """a = +-spike with probability q each, else 0; heavy even moments.

    With spike=2, q=1/32 this realizes v^2 = 1/4 together with the moment
    chain 1 <= V_4 <= ... <= V_12 that the walk-weight bound assumes; at
    q=1/32 the spike 4v gives standard deviation v.
    """

    spike: Fraction = Fraction(2)
    q: Fraction = Fraction(1, 32)
    name: ClassVar[str] = "three-point"

    def __post_init__(self):
        _check_scale("spike", self.spike)
        if not 0 <= self.q <= Fraction(1, 2):  # the two spikes carry mass 2q
            raise ValueError("q must lie in [0, 1/2]")

    @property
    def v(self):
        val = 2 * self.q * Fraction(self.spike) ** 2
        num, den = val.numerator, val.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd)  # exact when the variance is a perfect square
        return math.sqrt(float(val))

    def moment(self, order: int) -> Fraction:
        if order % 2:
            return Fraction(0)
        if order == 0:  # the atom at 0 carries mass 1 - 2q
            return Fraction(1)
        return 2 * self.q * Fraction(self.spike) ** order

    def abs_moment(self, order: float) -> float:
        if order == 0:
            return 1.0
        return 2 * float(self.q) * float(self.spike) ** order

    def truncated_moment(self, order: int, cutoff: float) -> Fraction:
        """E[a^order; |a| <= cutoff], so order 0 gives the kept mass."""
        if order % 2:
            return Fraction(0)
        kept = Fraction(self.spike) <= Fraction(cutoff)
        if order == 0:  # the atom at 0 always lies inside the cutoff
            return Fraction(1) if kept else 1 - 2 * Fraction(self.q)
        return self.moment(order) if kept else Fraction(0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        out = np.zeros(size)
        q = float(self.q)
        out[u < q] = float(self.spike)
        out[(u >= q) & (u < 2 * q)] = -float(self.spike)
        return out

    def descriptor(self) -> dict:
        return {"law": self.name, "spike": str(self.spike), "q": str(self.q)}


def make_law(name: str, v: float | Fraction = 1, gamma: float = 24.0):
    name = name.lower()
    if name == "rademacher":
        return RademacherLaw(Fraction(v))
    if name == "gaussian":
        return GaussianLaw(Fraction(v))
    if name == "goe":
        return GoeLaw(Fraction(v))
    if name == "power-tail":
        return PowerTailLaw(float(v), gamma)
    if name == "three-point":
        return ThreePointLaw(spike=4 * Fraction(v))
    raise ValueError(f"unknown entry law {name!r}")
