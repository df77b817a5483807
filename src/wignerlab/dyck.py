"""Exact Dyck-path / plane-rooted-tree combinatorics.

Catalan numbers, exhaustive path enumeration, the chronological-run bijection
with plane rooted trees, exit-degree counts and their exponential tail bound,
and the exponential moment of the normalized maximal height of a uniform
Dyck path (computed from the exact height distribution, never by sampling).

Root-degree and exit-degree counts are closed forms (ballot numbers and
Lagrange inversion), so they have no enumeration ceiling. `_dyck_halves` is
the one search over paths and serves as their test oracle: it meets in the
middle, building every first half and every second half as numpy arrays
grouped by the height where they meet. Criterion 1 counts the paths from
the group sizes, and the same-cluster brute force joins each group into one
array of paths, so neither builds a path object. `_dyck_dfs` joins each
first half to its second halves as step tuples, and `enumerate_dyck` is its
leaf that keeps the paths.

All counts are arbitrary-precision integers; bounds that must be compared
against exact counts are returned as `Fraction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import EnumerationCeilingError

#: Ceiling on the half-length k for exhaustive path enumeration:
#: catalan(14) = 2_674_440 paths is the largest batch accepted.
DYCK_ENUMERATION_CEILING = 14


def catalan(k: int) -> int:
    """k-th Catalan number (2k)! / (k! (k+1)!), exactly."""
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    return math.comb(2 * k, k) // (k + 1)


@dataclass(frozen=True)
class DyckPath:
    """Balanced nonnegative +-1 step sequence of length 2k."""

    steps: tuple[int, ...]

    def __post_init__(self):
        height = 0
        for st in self.steps:
            if st not in (1, -1):
                raise ValueError("steps must be +1 or -1")
            height += st
            if height < 0:
                raise ValueError("prefix sums must stay nonnegative")
        if height != 0:
            raise ValueError("total sum must be zero")

    @classmethod
    def _unchecked(cls, steps: tuple[int, ...]) -> "DyckPath":
        """A path from steps known to form a Dyck path; skips `__post_init__`."""
        path = object.__new__(cls)
        path.__dict__["steps"] = steps
        return path

    @property
    def k(self) -> int:
        return len(self.steps) // 2

    def heights(self) -> tuple[int, ...]:
        """Prefix sums theta(0..2k), starting and ending at 0."""
        out = [0]
        for st in self.steps:
            out.append(out[-1] + st)
        return tuple(out)

    @property
    def max_height(self) -> int:
        return max(self.heights())

    def __str__(self) -> str:
        return "".join("U" if st == 1 else "D" for st in self.steps)


@dataclass(frozen=True)
class PlaneTree:
    """Plane rooted tree; child order is significant."""

    children: tuple["PlaneTree", ...] = ()

    @property
    def edge_count(self) -> int:
        return sum(c.edge_count + 1 for c in self.children)

    def exit_degrees(self) -> list[int]:
        """Child counts of all vertices, root first, depth-first order."""
        out = [len(self.children)]
        for c in self.children:
            out.extend(c.exit_degrees())
        return out


def _step_rows(k: int, start: np.ndarray, to_zero: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every sequence of k +-1 steps from one of the heights in start that never dips below 0.

    With to_zero, only those that end at 0. Returns (rows, end heights,
    start heights): an int8 array with one sequence per row, ordered by
    start (in the order given) and then lexicographically with up-steps
    first, and each row's end and start height. Every live row is extended
    at each step at once.
    """
    rows = np.zeros((len(start), k), np.int8)
    height = origin = start
    for t in range(k):
        # up unless the row could then no longer come down to 0; down where it is above 0
        up = height < k - t - 1 if to_zero else np.ones(len(height), bool)
        parent, down = np.nonzero(np.column_stack([up, height > 0]))
        step = 1 - 2 * down
        rows = rows[parent]
        rows[:, t] = step
        height = height[parent] + step
        origin = origin[parent]
    return rows, height, origin


def _dyck_halves(k: int) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The Dyck paths of half-length k, met in the middle, as arrays of halves.

    A path is a first half, a ballot prefix of k steps (never below 0),
    followed by a second half, k steps from the first half's end height h
    down to 0 that never dip below 0. Returns (firsts, heights, seconds):
    firsts is an int8 (n, k) array of every ballot prefix of k steps, one
    per row in lexicographic order with up-steps first, heights[i] is row
    i's end height, and seconds[h] holds the second halves from height h as
    rows in the same order. So firsts in order, each joined to every row of
    seconds[heights[i]] in order, run over the paths in the order of a
    search over whole paths.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > DYCK_ENUMERATION_CEILING:
        raise EnumerationCeilingError("enumerate_dyck", k, DYCK_ENUMERATION_CEILING)
    firsts, heights, _ = _step_rows(k, np.zeros(1, np.intp), to_zero=False)
    ends, _, origin = _step_rows(k, np.arange(k + 1), to_zero=True)
    return firsts, heights, [ends[origin == h] for h in range(k + 1)]


def _dyck_dfs(k: int, leaf) -> None:
    """Calls leaf(steps) once per Dyck path of half-length k, lexicographic with up-steps first.

    steps is the path's tuple of +-1 steps, a first half of `_dyck_halves`
    joined to one of its second halves.
    """
    firsts, heights, seconds = _dyck_halves(k)
    closing = [list(map(tuple, halves.tolist())) for halves in seconds]
    for first, h in zip(map(tuple, firsts.tolist()), heights.tolist()):
        for second in closing[h]:
            leaf(first + second)


def enumerate_dyck(k: int) -> list[DyckPath]:
    """All Dyck paths of half-length k, lexicographic with up-steps first."""
    paths: list[DyckPath] = []
    _dyck_dfs(k, lambda steps: paths.append(DyckPath(steps)))
    return paths


def dyck_to_tree(path: DyckPath) -> PlaneTree:
    """Chronological run: an up-step descends to a new child, a down-step returns."""
    stack: list[list[PlaneTree]] = [[]]
    for st in path.steps:
        if st == 1:
            stack.append([])
        else:
            kids = stack.pop()
            stack[-1].append(PlaneTree(tuple(kids)))
    return PlaneTree(tuple(stack[0]))


def tree_to_dyck(tree: PlaneTree) -> DyckPath:
    steps: list[int] = []

    def rec(node: PlaneTree) -> None:
        for c in node.children:
            steps.append(1)
            rec(c)
            steps.append(-1)

    rec(tree)
    return DyckPath(tuple(steps))


def exit_degree_profile(steps) -> list[int]:
    """Exit degrees (child counts) of the tree of a Dyck step sequence, without building it."""
    counts: list[int] = []
    stack = [0]
    for st in steps:
        if st == 1:
            stack[-1] += 1
            stack.append(0)
        else:
            counts.append(stack.pop())
    counts.append(stack.pop())
    return counts


# ---------------------------------------------------------------------------
# Exit-degree counts over trees with s edges.


def count_trees_root_degree(s: int, d: int) -> int:
    """Number of plane trees with s edges whose root has exit degree exactly d.

    The ballot number d C(2s-d, s) / (2s-d) for 1 <= d <= s.
    """
    if s < 0 or d < 0:
        raise ValueError("s and d must be nonnegative")
    if d > s:
        return 0
    if d == 0:
        return 1 if s == 0 else 0
    return d * math.comb(2 * s - d, s) // (2 * s - d)


# Trees with s edges whose exit degrees all lie in a set Omega number
# (1/(s+1)) [u^s] (sum_(i in Omega) u^i)^(s+1) by Lagrange inversion
# (Flajolet & Sedgewick, Analytic Combinatorics, I.5). Below u^(s+1) the
# degree series is 1/(1-u) minus the excluded powers, so each count expands
# into a short alternating sum of binomials.


def count_trees_with_exit_degree_ge(s: int, d: int) -> int:
    """Trees with s edges having some vertex of exit degree >= d.

    Complement of Omega = {0, ..., d-1}: [u^s] ((1 - u^d) / (1 - u))^(s+1)
    = sum_j (-1)^j C(s+1, j) C(2s - jd, s).
    """
    if s < 0 or d < 0:
        raise ValueError("s and d must be nonnegative")
    if d == 0:
        return catalan(s)
    if d > s:
        return 0
    below = sum(
        (-1) ** j * math.comb(s + 1, j) * math.comb(2 * s - j * d, s)
        for j in range(s // d + 1)
    )
    return catalan(s) - below // (s + 1)


def count_trees_with_exit_degree_eq(s: int, d: int) -> int:
    """Trees with s edges having some vertex of exit degree exactly d.

    Complement of Omega = {0, ..., s} minus {d}: [u^s] (1/(1-u) - u^d)^(s+1)
    = sum_j (-1)^j C(s+1, j) C(2s - jd - j, s - j).
    """
    if s < 0 or d < 0:
        raise ValueError("s and d must be nonnegative")
    if d == 0:
        return catalan(s)  # leaves always exist
    if d > s:
        return 0
    avoiding = sum(
        (-1) ** j * math.comb(s + 1, j) * math.comb(2 * s - j * d - j, s - j)
        for j in range(s // d + 1)
    )
    return catalan(s) - avoiding // (s + 1)


def exit_degree_tail_bound(s: int, d: int) -> Fraction:
    """(2s+1) * (3/4)^(d-2) * t_s, the exponential tail bound for exit degrees.

    Only claimed for d >= 2.
    """
    if d < 2:
        raise ValueError("the tail bound is only stated for d >= 2")
    return Fraction(2 * s + 1) * Fraction(3, 4) ** (d - 2) * catalan(s)


# ---------------------------------------------------------------------------
# Exact height distribution and the excursion functional.


@lru_cache(maxsize=8)
def _binomial_difference_row(n: int) -> tuple[int, ...]:
    """row[i] = C(n, i) - C(n, i - 1) for i = 0..n+1, one binomial held at a time."""
    row = [1] * (n + 2)
    c = 1
    for j in range(n):
        nxt = c * (n - j) // (j + 1)
        row[j + 1] = nxt - c
        c = nxt
    row[n + 1] = -c
    return tuple(row)


def paths_with_max_height_le(k: int, h: int) -> int:
    """Number of 2k-step Dyck paths with maximal height <= h.

    Exact double-reflection sum over the strip [0, h]:
        sum_j C(2k, k + j(h+2)) - C(2k, k + j(h+2) - 1).
    A term is nonzero only for 0 <= k + j(h+2) <= 2k + 1, so with the
    difference row D[i] = C(2k, i) - C(2k, i - 1), i = 0..2k+1, the sum is
    one strided slice: sum(D[k % (h+2) :: h+2]).
    """
    if h < 0:
        return 1 if k == 0 else 0
    if h >= k:
        return catalan(k)
    return sum(_binomial_difference_row(2 * k)[k % (h + 2) :: h + 2])


@lru_cache(maxsize=8)
def height_counts(k: int) -> tuple[int, ...]:
    """cnt[m] = number of 2k-step Dyck paths with maximal height exactly m.

    Index m runs 0..k; cnt[0] is 1 only for k = 0.
    """
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    if k == 0:
        return (1,)
    counts = [0] * (k + 1)
    prev = 0
    for m in range(1, k + 1):
        cur = paths_with_max_height_le(k, m)
        counts[m] = cur - prev
        prev = cur
    return tuple(counts)


def excursion_functional(k: int, tau: float) -> float:
    """Mean of exp(tau * H / sqrt(k)) over uniform 2k-step Dyck paths, H the max height.

    Exact height counts feed a log-space sum, so k of a few thousand is fine.
    Normalization is exact: the value at tau = 0 is identically 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if tau == 0:
        return 1.0
    counts = height_counts(k)
    log_tk = math.log(catalan(k))
    scale = tau / math.sqrt(k)
    return math.fsum(
        math.exp(math.log(c) - log_tk + scale * m)
        for m, c in enumerate(counts)
        if c > 0
    )


def mean_max_height(k: int) -> float:
    """Exact expected maximal height of a uniform 2k-step Dyck path."""
    counts = height_counts(k)
    num = sum(m * c for m, c in enumerate(counts))
    return float(Fraction(num, catalan(k)))
