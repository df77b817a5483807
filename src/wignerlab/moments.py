"""Exact finite-(n, s) trace moments as weighted sums over canonical walks.

The trace of the 2s-th matrix power expands into a sum over index
trajectories; grouping trajectories by their canonical walk turns it into

    E Tr A^(2s) = sum_w [ prod_(frame edges) edge_moment(passes) ] * n(n-1)...(n-|V(w)|+1).

The per-edge moment function carries the whole ensemble (entry law,
truncation, dilution and the matrix normalization), so one committed table
of walk counts by shape serves every ensemble. Walks with the same edge
profile share their weight, so `_binned` is one pass over the profiles:
it sums count * n(n-1)...(n-|V|+1) as integers into bins (nu weight for the
total, Z-part and nu weight for the census split) and adds each bin sum
times the profile's integer weight numerator, scaled to one common
denominator per call, the lcm of the profile denominators. Each bin is one
exact `Fraction` at the end, so no fraction is reduced per profile. A
float-valued spec has denominator 1, so it is multiplied and added in the
order of a profile-by-profile float sum, whose last bits can differ from a
walk-by-walk sum. A brute-force sum over all n^(2s) index tuples is kept
alongside as the oracle, in plain Fraction arithmetic: it tallies every
index tuple by its edge profile once per (n, s), independently of the walk
layer, and weights the tallies per ensemble.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import ClassVar

import numpy as np

from .dyck import catalan
from .errors import EnumerationCeilingError
from .laws import GoeLaw

#: C1 = sup over k >= 2 of 2k / (k!)^(1/k); the supremum is the k -> infinity
#: limit 2e (the sequence increases to it, not attaining it).
DEFAULT_C1 = 2 * math.e


def default_c0(v12: float) -> float:
    """Smallest admissible census threshold constant, e (1 + 8 C1^2 V12)."""
    return math.e * (1 + 8 * DEFAULT_C1 * DEFAULT_C1 * float(v12))


@dataclass(frozen=True)
class TruncationSpec:
    """Entry truncation at U_n = n^(1/eta - delta); zero out larger entries."""

    law: object
    delta: float
    delta0: float | None = None
    #: the paper's E|a|^(12 + 2 delta0) hypothesis puts the cutoff at n^(1/6 - delta)
    eta: ClassVar[float] = 6.0

    def __post_init__(self):
        if not 0 < self.delta < 1 / self.eta:
            raise ValueError("delta must lie in (0, 1/eta)")
        # the hypothesis asks for a moment beyond the twelfth: delta0 > 0
        if self.delta0 is not None and not (math.isfinite(self.delta0) and self.delta0 > 0):
            raise ValueError("delta0 must be finite and positive")

    def cutoff(self, n: int) -> float:
        return float(n) ** (1 / self.eta - self.delta)


@dataclass(frozen=True)
class MomentSpec:
    """Per-frame-edge moment function for one ensemble at one dimension n."""

    n: int
    law: object
    truncation: TruncationSpec | None = None
    dilution_c: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.dilution_c is not None and not 1 <= self.dilution_c <= self.n:
            raise ValueError("dilution concentration must satisfy 1 <= c <= n")
        if self.truncation is not None and self.truncation.law != self.law:
            raise ValueError("the truncation must be of the sampled law")

    def entry_moment(self, order: int, is_loop: bool = False):
        """Moment of the unscaled entry, truncated if configured; a GOE loop is cut after its doubling."""
        if order % 2:
            return 0
        doubled = is_loop and isinstance(self.law, GoeLaw)
        if self.truncation is not None:
            cutoff = self.truncation.cutoff(self.n)
            base = self.law.truncated_moment(order, cutoff / math.sqrt(2) if doubled else cutoff)
        else:
            base = self.law.moment(order)
        return base * 2 ** (order // 2) if doubled else base

    def edge_moment(self, order: int, is_loop: bool = False):
        """Moment of the scaled matrix entry: E[(A_ij)^order]."""
        if order % 2:
            return 0
        # an undiluted entry is a dilute one at c = n: kept surely, scaled by 1/sqrt(n)
        c = self.n if self.dilution_c is None else self.dilution_c
        base = self.entry_moment(order, is_loop)
        return base * Fraction(c, self.n) / Fraction(c) ** (order // 2)

    def descriptor(self) -> dict:
        if self.dilution_c is not None:
            kind = "dilute"
        elif self.truncation is not None:
            kind = "truncated"
        else:
            kind = "goe" if isinstance(self.law, GoeLaw) else "wigner"
        out = {"kind": kind, "n": self.n}
        out.update(self.law.descriptor())
        if self.truncation is not None:
            out["truncation"] = {
                "delta": self.truncation.delta,
                "eta": self.truncation.eta,
                "cutoff": self.truncation.cutoff(self.n),
            }
        if self.dilution_c is not None:
            out["dilution_c"] = self.dilution_c
        return out


def wigner_spec(law, n: int) -> MomentSpec:
    return MomentSpec(n, law)


def truncated_spec(trunc: TruncationSpec, n: int) -> MomentSpec:
    return MomentSpec(n, trunc.law, truncation=trunc)


def dilute_spec(law, n: int, c: int) -> MomentSpec:
    return MomentSpec(n, law, dilution_c=c)


def semicircle_moment(order: int, v):
    """Limiting normalized trace moment: v^(2k) Catalan(k) for order 2k, 0 odd.

    Exact when v is a Fraction or int, float otherwise.
    """
    if order % 2:
        return 0 if isinstance(v, (int, Fraction)) else 0.0
    k = order // 2
    cat = catalan(k)
    if isinstance(v, (int, Fraction)):
        return Fraction(v) ** (2 * k) * cat
    return float(v) ** (2 * k) * cat


def exact_text(value) -> str | None:
    """The rational string of an exact value; None for a float."""
    return str(value) if isinstance(value, (int, Fraction)) else None


@dataclass
class MomentResult:
    """Trace moment with its per-class breakdown and the four-way split."""

    n: int
    s: int
    total: object
    by_nu_weight: dict[int, object] = field(default_factory=dict)
    z_parts: dict[int, object] | None = None
    c0: float | None = None
    delta: float | None = None
    descriptor: dict = field(default_factory=dict)

    @property
    def z1_fraction(self) -> float | None:
        if not self.z_parts or float(self.total) == 0:
            return None
        return float(self.z_parts[1]) / float(self.total)

    def normalized(self) -> float:
        return float(self.total) / self.n

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "s": self.s,
            "total": float(self.total),
            "total_exact": exact_text(self.total),
            "normalized": self.normalized(),
            "by_nu_weight": {str(k): float(val) for k, val in sorted(self.by_nu_weight.items())},
        }
        if self.z_parts is not None:
            out["z_parts"] = {str(i): float(val) for i, val in sorted(self.z_parts.items())}
            out["z1_fraction"] = self.z1_fraction
            out["c0"] = self.c0
            out["delta"] = self.delta
        out["ensemble"] = self.descriptor
        return out


#: Even walks counted by shape for s = 0 up to its last s, the reach of the exact
#: layer, one (s, profile, n_vertices, max_passes, max_exit_degree, count) row per shape.
SHAPE_TABLE = Path(__file__).parent / "tables" / "walk_shapes.csv"


@lru_cache(maxsize=None)
def _walk_shapes(s: int) -> tuple[tuple[tuple, int, int, int, int], ...]:
    """Aggregated walk data: (edge profile, n_vertices, max_passes, D, count) rows.

    The edge profile is the multiset of (pass count, is_loop) over frame
    edges; together with the vertex count it determines the walk's weight
    for any ensemble, so thousands of walks collapse to a few hundred rows.
    The counts depend on neither n nor the law, so they are read from the
    committed `SHAPE_TABLE`, whose profile cell lists the pass counts with
    an L marking a loop. An s with no rows is refused with the table's last
    s as the ceiling. The tests rebuild every row from the walk search.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    prefix = f"{s},"
    rows = []
    with SHAPE_TABLE.open() as fh:
        for line in fh:
            if line.startswith(prefix):
                _s, profile, nv, maxm, d, count = line.split(",")
                edges = tuple((int(tok.rstrip("L")), tok.endswith("L")) for tok in profile.split())
                rows.append((edges, int(nv), int(maxm), int(d), int(count)))
    if not rows:  # the table is sorted by s, so its last line holds the last s
        raise EnumerationCeilingError("walk-shape table", 2 * s, 2 * int(line.split(",", 1)[0]))
    return tuple(rows)


@lru_cache(maxsize=None)
def _profile_rows(s: int) -> tuple[tuple[tuple, tuple[tuple[int, int, int, int], ...]], ...]:
    """(profile, ((n_vertices, max_passes, max_exit_degree, count), ...)) per edge profile.

    The table is sorted, so the rows of one profile are adjacent.
    """
    return tuple(
        (profile, tuple(row[1:] for row in rows))
        for profile, rows in groupby(_walk_shapes(s), key=itemgetter(0))
    )


def _binned(spec: MomentSpec, s: int, bin_of) -> dict:
    """The exact walk sum at 2s steps, split into the bins bin_of(n_vertices, max_passes, max_exit_degree) picks.

    Within one edge profile every walk has the same weight, so the integer
    sums of count * n(n-1)...(n-|V|+1) are formed per bin first. The
    profile weight is the unreduced product of its edge moments'
    numerators over the product of their denominators, each moment taken
    once per call. Every bin then sums those integer sums times the weight
    numerators, scaled to the lcm of the profile denominators, and becomes
    one Fraction at the end. A float moment has denominator 1, so a
    float-valued spec is multiplied and added in the same order as a
    profile-by-profile float sum. A profile whose falling factorials or
    weight vanish opens no bin.
    """
    falling = [math.perm(spec.n, k) for k in range(s + 2)]
    ratios: dict[tuple[int, bool], tuple] = {}  # edge -> (numerator, denominator) of its moment
    weighted = []  # (numerator, denominator, {bin: ways}) per profile of nonzero weight
    for profile, rows in _profile_rows(s):
        sums: dict = {}
        for nv, maxm, d, count in rows:
            if falling[nv]:
                key = bin_of(nv, maxm, d)
                sums[key] = sums.get(key, 0) + count * falling[nv]
        if not sums:
            continue
        num = den = 1
        for edge in profile:
            r = ratios.get(edge)
            if r is None:
                m = spec.edge_moment(*edge)
                r = ratios[edge] = (m, 1) if isinstance(m, float) else (m.numerator, m.denominator)
            num *= r[0]
            if num == 0:
                break
            den *= r[1]
        if num != 0:
            weighted.append((num, den, sums))
    lcm = math.lcm(*(den for _num, den, _sums in weighted))
    bins: dict = {}
    for num, den, sums in weighted:
        scaled = num * (lcm // den)
        for key, ways in sums.items():
            bins[key] = bins.get(key, 0) + scaled * ways
    return {key: total / lcm if isinstance(total, float) else Fraction(total, lcm) for key, total in bins.items()}


def _total(spec: MomentSpec, bins: dict):
    """The sum of the bins. With no bin open it is 0, or 0.0 for a float-valued
    spec, so that a zero total keeps the spec's exact or float label."""
    if bins:
        return sum(bins.values())
    return 0.0 if isinstance(spec.edge_moment(2), float) else 0


def exact_trace_moment(spec: MomentSpec, s: int) -> MomentResult:
    """E Tr A^(2s) as the exact weighted walk sum, binned by nu weight s + 1 - |V|."""
    by_weight = _binned(spec, s, lambda nv, _maxm, _d: s + 1 - nv)
    return MomentResult(
        n=spec.n, s=s, total=_total(spec, by_weight), by_nu_weight=by_weight, descriptor=spec.descriptor()
    )


def z_decomposition(
    spec: MomentSpec, s: int, delta: float, c0: float | None = None
) -> MomentResult:
    """Split the exact walk sum into the four census categories.

    Z1: no frame edge passed more than twice and small self-intersection
    weight; Z2/Z3: some multiple edge, split by max exit degree at n^delta;
    Z4: self-intersection weight above the threshold (strictly, so the four
    parts partition).
    """
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
    if c0 is None:
        c0 = default_c0(float(spec.entry_moment(12)))
    elif not (math.isfinite(c0) and c0 > 0):
        raise ValueError("c0 must be finite and > 0")
    n = spec.n
    threshold = c0 * s * s / n
    degree_cut = n**delta

    def bin_of(nv: int, maxm: int, d: int) -> tuple[int, int]:
        nu1 = s + 1 - nv
        if nu1 > threshold:
            return 4, nu1
        if maxm <= 2:
            return 1, nu1
        return (2 if d <= degree_cut else 3), nu1

    parts: dict[int, object] = {1: 0, 2: 0, 3: 0, 4: 0}
    by_weight: dict[int, object] = {}
    for (idx, nu1), value in _binned(spec, s, bin_of).items():
        parts[idx] = parts[idx] + value
        by_weight[nu1] = by_weight.get(nu1, 0) + value
    return MomentResult(
        n=n,
        s=s,
        total=_total(spec, by_weight),
        by_nu_weight=by_weight,
        z_parts=parts,
        c0=c0,
        delta=delta,
        descriptor=spec.descriptor(),
    )


@lru_cache(maxsize=None)
def _tuple_profiles(n: int, s: int) -> tuple[tuple[tuple, int], ...]:
    """(edge profile, tuple count) rows over all n^(2s) closed index tuples.

    A tuple's edge profile is the sorted multiset of (pass count, is_loop)
    over its distinct undirected edges; it fixes the tuple's weight for any
    ensemble, so the tuples are tallied once and weighted per spec. The
    tally runs in numpy blocks, one per first index i0, over the int8 digits
    i1..i(2s-1): an int8 pass count per undirected edge {lo, hi} (row
    lo * n + hi) and tuple, of which only the two steps at i0 differ from
    block to block. Each tuple's profile packs into one int64 key in a mixed
    radix whose digit (m, loop) counts the edges of that kind passed m
    times, which is at most 2s // m and at most the number of such edges.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0:
        return (((), n),)
    two_s = 2 * s
    digits = []  # (m, is_loop, place value, radix), in profile order
    span = 1
    for m in range(1, two_s + 1):
        for loop, edges in ((False, n * (n - 1) // 2), (True, n)):
            radix = min(two_s // m, edges) + 1
            if radix > 1:
                digits.append((m, loop, span, radix))
                span *= radix
    if span > np.iinfo(np.int64).max:
        raise ValueError(f"index-tuple tally: edge-profile keys at n={n}, s={s} exceed int64")
    place = {loop: np.zeros(two_s + 1, np.int64) for loop in (False, True)}
    for m, loop, value, _radix in digits:
        place[loop][m] = value

    rest = np.indices((n,) * (two_s - 1), dtype=np.int8).reshape(two_s - 1, -1)
    cols = np.arange(rest.shape[1])

    def step(passes, a, b) -> None:
        passes[np.minimum(a, b).astype(np.intp) * n + np.maximum(a, b), cols] += 1

    middle = np.zeros((n * n, rest.shape[1]), np.int8)
    for t in range(two_s - 2):
        step(middle, rest[t], rest[t + 1])
    counts: Counter = Counter()
    for i0 in range(n):
        passes = middle.copy()
        step(passes, i0, rest[0])
        step(passes, rest[-1], i0)
        key = np.zeros(rest.shape[1], np.int64)
        for lo in range(n):
            for hi in range(lo, n):
                key += place[lo == hi][passes[lo * n + hi]]
        keys, tallies = np.unique(key, return_counts=True)
        counts.update(dict(zip(keys.tolist(), tallies.tolist())))
    rows = []
    for key, count in counts.items():
        profile = []
        for m, loop, value, radix in digits:
            profile += [(m, loop)] * (key // value % radix)
        rows.append((tuple(profile), count))
    return tuple(sorted(rows))


def brute_force_trace_moment(spec: MomentSpec, s: int):
    """Oracle: sum E[a_{i0 i1} ... a_{i_{2s-1} i0}] over all n^(2s) index tuples, for n <= 4.

    It multiplies and adds Fraction by Fraction on purpose, so that it stays
    independent of the common-denominator integer sums of `_binned`.
    """
    if spec.n > 4:
        raise ValueError("brute force oracle limited to n <= 4")
    total = 0
    for profile, count in _tuple_profiles(spec.n, s):
        w = Fraction(1)
        for edge in profile:
            w = w * spec.edge_moment(*edge)
            if w == 0:
                break
        total = total + count * w
    return total


def trace_moment_formula_s2(spec: MomentSpec):
    """Closed form at s = 2 for undiluted specs: V4_scaled + 2 (n-1) v^4-type check."""
    v4 = spec.entry_moment(4)
    v2 = spec.entry_moment(2)
    return Fraction(v4) + 2 * (spec.n - 1) * Fraction(v2) ** 2


def truncated_moments(trunc: TruncationSpec, n: int) -> list:
    """V-hat_{2m} = E[a^{2m}; |a| <= U_n] for 2m = 2, 4, ..., 12."""
    cutoff = trunc.cutoff(n)
    return [trunc.law.truncated_moment(order, cutoff) for order in range(2, 13, 2)]


def dilute_lower_bound(law, n: int, c: int, s: int):
    """Right side of the dilute edge estimate: n m_{2s} (1 + (s-3) V4 / c)."""
    v2 = Fraction(law.moment(2))
    v4 = Fraction(law.moment(4))
    m2s = v2**s * catalan(s)
    return n * m2s * (1 + Fraction(s - 3) * v4 / c)
