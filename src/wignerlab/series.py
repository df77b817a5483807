"""Exact formal power series over the rationals, and the Catalan identities.

Everything here is coefficientwise-exact: no floating point, no root
extraction. The reciprocal square root of 1-4t is *defined* by its central
binomial coefficients, so all identities live in Q[[t]] truncated at a
chosen order.

The same-exit-cluster counts n_m are the binomial closed form C(2s, s-m) of
the paper's convolution (derived in `nm_count`); the convolution itself
stays in the tests as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .dyck import _dyck_halves, catalan


@dataclass(frozen=True)
class Series:
    """Truncated power series with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in self.coeffs)
        )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k <= self.order else Fraction(0)

    def truncate(self, order: int) -> "Series":
        cs = list(self.coeffs[: order + 1])
        cs += [Fraction(0)] * (order + 1 - len(cs))
        return Series(tuple(cs))

    def __add__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(tuple(self[k] + other[k] for k in range(n + 1)))

    def __sub__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(tuple(self[k] - other[k] for k in range(n + 1)))

    def __mul__(self, other):
        if isinstance(other, Series):
            n = min(self.order, other.order)
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self.coeffs[: n + 1]):
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    b = other[j]
                    if b:
                        out[i + j] += a * b
            return Series(tuple(out))
        return Series(tuple(c * Fraction(other) for c in self.coeffs))

    __rmul__ = __mul__

    def shift(self, m: int) -> "Series":
        """Multiply by t^m, keeping the truncation order."""
        cs = (Fraction(0),) * m + self.coeffs
        return Series(cs[: self.order + 1])

    def derivative(self) -> "Series":
        if self.order == 0:
            return Series((Fraction(0),))
        return Series(tuple(Fraction(k) * self.coeffs[k] for k in range(1, self.order + 1)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

def catalan_gf(order: int) -> Series:
    """phi(t) = sum_k t_k t^k."""
    return Series(tuple(Fraction(catalan(k)) for k in range(order + 1)))


def invsqrt_one_minus_4t(order: int) -> Series:
    """1/sqrt(1-4t), defined by its coefficients C(2k, k) = (k+1) t_k."""
    return Series(tuple(Fraction(comb(2 * k, k)) for k in range(order + 1)))


def one(order: int) -> Series:
    return Series((Fraction(1),) + (Fraction(0),) * order)


def check_catalan_identities(order: int) -> dict[str, bool]:
    """t*phi^2 = phi - 1 and t*phi' = 1/sqrt(1-4t) - phi, coefficientwise."""
    phi = catalan_gf(order)
    lhs1 = (phi * phi).shift(1)
    rhs1 = phi - one(order)
    # one extra order so the derivative keeps the top coefficient
    lhs2 = catalan_gf(order + 1).derivative().shift(1).truncate(order)
    rhs2 = invsqrt_one_minus_4t(order) - phi
    return {
        "t_phi_sq": (lhs1 - rhs1).is_zero(),
        "t_phi_prime": (lhs2 - rhs2).is_zero(),
    }


# ---------------------------------------------------------------------------
# Same-exit-cluster marking counts.


def n2_count(s: int) -> int:
    """Walks with exactly one 2-fold multiple edge and no other self-intersections.

    Closed form t_s (s - 3s/(s+2)); the rational must come out integral.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    val = Fraction(catalan(s)) * (Fraction(s) - Fraction(3 * s, s + 2))
    if val.denominator != 1:
        raise ArithmeticError(f"n2_count({s}) is not integral: {val}")
    return int(val)


def nm_count(m: int, s: int) -> int:
    """Number of ways to mark m edges of one exit cluster, over trees with s edges.

    The paper's convolution sum_{u+v_1+..+v_{2m-1}=s-m} (2u+1) t_u t_{v_1} ... t_{v_{2m-1}}
    is [t^(s-m)] (phi + 2t phi') phi^(2m-1) = [t^(s-m)] (phi^(2m) + (t/m) (phi^(2m))'),
    and Lagrange's [t^n] phi^k = k/(2n+k) C(2n+k, n) sums it to C(2s, s-m).
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    return comb(2 * s, s - m) if s >= m else 0


def n2_series(order: int) -> Series:
    """Generating function of n2_count: phi'(t) - 3/sqrt(1-4t) + 2 phi(t).

    Equivalently [(1-3t)/sqrt(1-4t) + (2t-1) phi(t)] / t: the closed form in
    that shape carries one spurious factor of t relative to the convolution
    definition of the counts, which the division removes (the tests pin both).
    """
    inv = invsqrt_one_minus_4t(order)
    phi = catalan_gf(order)
    phi_prime = catalan_gf(order + 1).derivative().truncate(order)
    return phi_prime - 3 * inv + 2 * phi


def nm_bound(m: int, s: int) -> int:
    """The companion inequality: nm_count(m, s) <= 2^m * s * t_s."""
    return (2**m) * s * catalan(s)


def brute_force_same_cluster_pairs(s: int, m: int = 2) -> int:
    """Oracle: sum over all plane trees with s edges of C(exit degree, m).

    Joins the Dyck search's halves height group by height group and runs the
    exit-degree stack of `dyck.exit_degree_profile` over all paths of a
    group at once: an up-step adds a child to the top vertex and pushes a
    new one, a down-step closes the top vertex. Each tree's degrees still
    come from its own steps; they are tallied by value, and C(deg, m) is
    taken once per degree. A group's arrays stay below 100 KB up to s = 10.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    firsts, heights, seconds = _dyck_halves(s)
    width = s + 2
    closed = np.zeros(s + 1, np.int64)
    for h, ends in enumerate(seconds):
        n = len(ends)
        if not n:
            continue
        starts = firsts[heights == h]
        # path i n + j is the i-th first half ending at h, then the j-th second half from h;
        # its stack row holds the child counts (at most s) of the open vertices, the root at depth 0
        stack = np.zeros(n * n * width, np.int8)
        top = np.arange(0, stack.size, width)
        for t in range(2 * s):
            up = (np.repeat(starts[:, t], n) if t < s else np.tile(ends[:, t - s], n)) > 0
            deg = stack[top]
            stack[top] = deg + up
            stack[top + 1] = 0  # the pushed child; a popped row never reads above its top
            closed += np.bincount(deg[~up], minlength=s + 1)
            top += np.where(up, 1, -1)
        closed += np.bincount(stack[::width], minlength=s + 1)
    return sum(comb(deg, m) * count for deg, count in enumerate(closed.tolist()))


def coefficient_table(order: int) -> list[dict]:
    """Exact coefficient rows for CSV emission."""
    if order < 0:
        raise ValueError("order must be >= 0")
    phi = catalan_gf(order)
    inv = invsqrt_one_minus_4t(order)
    n2 = n2_series(order)
    return [
        {
            "k": k,
            "catalan": str(phi[k]),
            "inv_sqrt_1_minus_4t": str(inv[k]),
            "n2": str(n2[k]),
        }
        for k in range(order + 1)
    ]
