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

from .dyck import _dyck_halves, catalan
from math import comb


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


def _closed_pairs(stack: list[int], steps, m: int) -> int:
    """Runs the exit-degree stack of `dyck.exit_degree_profile` over steps, in
    place, and sums C(deg, m) over the vertices the steps close."""
    total = 0
    for st in steps:
        if st == 1:
            stack[-1] += 1
            stack.append(0)
        else:
            deg = stack.pop()
            if deg >= m:
                total += comb(deg, m)
    return total


def brute_force_same_cluster_pairs(s: int, m: int = 2) -> int:
    """Oracle: sum over all plane trees with s edges of C(exit degree, m).

    Runs the exit-degree stack over each first half of the Dyck search once,
    then a copy of it over each second half that closes it, so each tree's
    degrees still come from its own steps and no path is built or joined.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    total = 0

    def visit(first, seconds) -> None:
        nonlocal total
        stack = [0]
        total += _closed_pairs(stack, first, m) * len(seconds)
        for second in seconds:
            rest = stack.copy()
            total += _closed_pairs(rest, second, m) + comb(rest[0], m)  # rest[0]: the root

    _dyck_halves(s, visit)
    return total


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
