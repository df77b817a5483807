"""Walk equivalence classes and the exact-vs-bound counting machinery.

Walks are grouped by their underlying Dyck path together with either the
self-intersection profile (nu classes, with open/simple-double refinements)
or the last-marked-passage profile (mu classes, with p-edges, double
mu-edges and layered q-edges). Each class carries a closed-form counting
bound; exhaustive enumeration provides the exact cardinalities the bounds
are checked against. Beside the class bounds sits the coloring-argument
bound on one walk's weight under a truncated ensemble. All bounds are exact
rationals so comparisons never suffer rounding; a class bound multiplies its
integer numerators and denominators and becomes one `Fraction` at the end,
so no fraction is reduced factor by factor.

The census is the one pass over the even walks of 2s steps. It takes them
from the walk search in blocks of label rows and steps through all walks of
a block at once in numpy arrays (`_walk_arrays`), from which it reads the
per-walk lemmas of the walk structure suite and the class signatures
(`_read_walks`), tallied once per distinct signature. `walks.analyze` and
the two classifiers serve single walks; with the per-walk lemma checks of
the tests they are the census's oracle.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .dyck import DyckPath
from .errors import BoundPreconditionError
from .moments import MomentSpec
from .walks import ROOT, WALK_LEMMAS, WalkAnalysis, _even_walk_blocks, _tree_max_exit_degree


class NuSignature(NamedTuple):
    """Class key: Dyck path, nu profile (k >= 2), open/double-simple counts.

    The root enters the nu profile with its +1 convention; root_kappa and
    root_open keep enough information to evaluate the counting bound with the
    root's true number of marked-arrival windows (one less than its degree).
    """

    theta: tuple[int, ...] | None
    nu: tuple[tuple[int, int], ...]
    r: int
    p: int
    d: int
    root_kappa: int = 1
    root_open: bool = False

    def nu_dict(self) -> dict[int, int]:
        return dict(self.nu)


class MuSignature(NamedTuple):
    """Class key: Dyck path, mu profile (m >= 1), p/double-mu/q-layer counts."""

    theta: tuple[int, ...] | None
    mu: tuple[tuple[int, int], ...]
    p_count: int
    double_mu: int
    q_counts: tuple[int, ...]
    r: int
    d: int
    max_kappa_nu: int

    def mu_dict(self) -> dict[int, int]:
        return dict(self.mu)


def classify_nu(an: WalkAnalysis) -> NuSignature:
    """Self-intersection signature of a walk.

    r counts simple self-intersections whose closing arrival is open; p counts
    the remaining simple ones whose two arrivals ride the same oriented edge
    (the same-orientation double edges). Open wins when both apply. One sweep
    over the vertices tallies the nu profile and r, p together.
    """
    lab = an.walk.labels
    arrivals_of, open_by = an.marked_arrivals, an.open_by_vertex
    nu: dict[int, int] = {}
    r = 0
    p = 0
    for v, kappa in an.kappa_nu.items():
        if kappa < 2:
            continue
        nu[kappa] = nu.get(kappa, 0) + 1
        if kappa != 2:
            continue
        # a simple vertex has two marked arrivals; the simple root has one, plus its +1
        arrivals = arrivals_of[v]
        if arrivals[-1] in open_by[v]:
            r += 1
        elif v != ROOT and lab[arrivals[0] - 1] == lab[arrivals[1] - 1]:
            p += 1
    root_arrivals = arrivals_of[ROOT]
    return NuSignature(
        theta=an.theta.steps if an.theta is not None else None,
        nu=tuple(sorted(nu.items())),
        r=r,
        p=p,
        d=an.max_exit_degree,
        root_kappa=an.kappa_nu.get(ROOT, 1),
        root_open=bool(root_arrivals and root_arrivals[-1] in open_by[ROOT]),
    )


def classify_mu(an: WalkAnalysis) -> MuSignature:
    """Modified signature built on the mu-structure.

    r here counts only the open simple nu-intersections realized as double
    mu-arrivals (kappa_mu = 2); an open simple vertex whose second arrival is
    a p-edge is charged to the p-window instead, which is what the counting
    bound's (mu_2 - r)! factor requires. One sweep over the vertices tallies
    the mu profile, r and the largest kappa_nu together.
    """
    kappa_nu, arrivals_of, open_by = an.kappa_nu, an.marked_arrivals, an.open_by_vertex
    mu: dict[int, int] = {}
    r = 0
    max_kappa_nu = 1
    for v, m in an.kappa_mu.items():
        mu[m] = mu.get(m, 0) + 1
        kappa = kappa_nu[v]
        if kappa > max_kappa_nu:
            max_kappa_nu = kappa
        if kappa == 2 and m == 2 and arrivals_of[v][-1] in open_by[v]:
            r += 1
    return MuSignature(
        theta=an.theta.steps if an.theta is not None else None,
        mu=tuple(sorted(mu.items())),
        p_count=len(an.p_edges),
        double_mu=an.double_mu_count,
        q_counts=tuple(map(len, an.q_layers)),
        r=r,
        d=an.max_exit_degree,
        max_kappa_nu=max_kappa_nu,
    )


# ---------------------------------------------------------------------------
# Partition counting and bounds.


def psi_bound(s: int, nu: dict[int, int]) -> tuple[Fraction, Fraction]:
    """(exact, bound) for partitioning s labelled marked instants into the nu plets.

    With P = prod (k!)^{nu_k} nu_k! and used = sum k nu_k, exact = s! / ((s - used)! P)
    and its product relaxation bound = s^used / P; exact <= bound always.
    """
    used = sum(k * c for k, c in nu.items())
    if used > s:
        raise BoundPreconditionError(f"infeasible nu profile: uses {used} > s={s}")
    plets = math.prod(math.factorial(k) ** c * math.factorial(c) for k, c in nu.items())
    return Fraction(math.factorial(s), math.factorial(s - used) * plets), Fraction(s**used, plets)


def upsilon_nu(k: int) -> int:
    """Exit-prescription bound (2k)^k used for self-intersections of degree k >= 3."""
    return (2 * k) ** k


def ss_bound(s: int, sig: NuSignature, h_theta: int) -> Fraction:
    """Counting bound for a nu class with max exit degree capped by sig.d.

    Non-root vertices get the usual window factors; the root, when it is a
    self-intersection, is unfolded to its true window count N = kappa - 1
    (partition factor s^N / N!, openness refinement for N = 1, general exit
    prescription for N >= 2), which keeps the bound valid at small s where
    folding the root into the nu profile undercounts.
    """
    nu = sig.nu_dict()
    root_simple_open = sig.root_open and sig.root_kappa == 2
    if sig.root_kappa >= 2:
        nu[sig.root_kappa] = nu.get(sig.root_kappa, 0) - 1
        if nu[sig.root_kappa] < 0:
            raise BoundPreconditionError("root degree missing from nu profile")
        if nu[sig.root_kappa] == 0:
            del nu[sig.root_kappa]
    r_nonroot = sig.r - (1 if root_simple_open else 0)
    plain = nu.get(2, 0) - r_nonroot - sig.p
    if plain < 0 or r_nonroot < 0:
        raise BoundPreconditionError("r + p exceeds nu_2")
    num = s ** (2 * plain) * (6 * s * h_theta) ** r_nonroot * (s * sig.d) ** sig.p
    den = 2**plain * math.factorial(plain) * math.factorial(r_nonroot) * math.factorial(sig.p)
    for k, c in nu.items():
        if k >= 3:
            num *= (s**k * upsilon_nu(k)) ** c
            den *= math.factorial(k) ** c * math.factorial(c)
    n_root = sig.root_kappa - 1
    if n_root == 1:
        num *= 6 * h_theta if sig.root_open else s
    elif n_root >= 2:
        num *= s**n_root * upsilon_nu(n_root + 1)
        den *= math.factorial(n_root)
    return Fraction(num, den)


def mu_bound(s: int, sig: MuSignature, k0: int) -> Fraction:
    """Counting bound for a mu class with max exit degree equal to sig.d.

    Refuses outside its hypotheses: the mu weight sum_(m>=2) (m-1) mu_m must
    not exceed (s-1)/6 and every nu self-intersection degree must be <= k0.
    """
    mu = sig.mu_dict()
    mu_weight = sum((m - 1) * c for m, c in mu.items() if m >= 2)
    if 6 * mu_weight > s - 1:
        raise BoundPreconditionError(
            f"|mu|_1 = {mu_weight} exceeds (s-1)/6 = {Fraction(s-1,6)}"
        )
    if sig.max_kappa_nu > k0:
        raise BoundPreconditionError(
            f"kappa_nu reaches {sig.max_kappa_nu} > k0 = {k0}"
        )
    h = DyckPath(sig.theta).max_height if sig.theta else 0
    mu2 = mu.get(2, 0)
    plain = mu2 - sig.r
    if plain < 0:
        raise BoundPreconditionError("r exceeds mu_2")
    d = sig.d
    pp, ppp = sig.p_count, sig.double_mu
    num = s ** (2 * plain) * (2 * s * h) ** sig.r * (s * d) ** pp * (mu_weight * d) ** ppp
    den = 2**plain * math.factorial(plain) * math.factorial(sig.r) * math.factorial(pp)
    den *= s**ppp * math.factorial(ppp)
    for m, c in mu.items():
        if 3 <= m <= k0:
            num *= s ** (m * c)
            den *= math.factorial(m) ** c * math.factorial(c)
    # the first q-layer's factor takes the p- and double mu-edge count, each later one the layer before
    prev = pp + ppp
    for qj in sig.q_counts:
        num *= (prev * d) ** qj
        den *= math.factorial(qj)
        prev = qj
    num *= upsilon_mu(sig, k0)
    return Fraction(num, den)


def upsilon_mu(sig: MuSignature, k0: int) -> int:
    """3^r (2 k0)^(4P' + |Q|) 2^(6 mu_3) prod_(m>=4) (2 k0)^(m mu_m)."""
    mu = sig.mu_dict()
    out = 3**sig.r
    out *= (2 * k0) ** (4 * sig.p_count + sum(sig.q_counts))
    out *= 2 ** (6 * mu.get(3, 0))
    for m, c in mu.items():
        if 4 <= m <= k0:
            out *= (2 * k0) ** (m * c)
    return out


@dataclass
class WeightBoundResult:
    passed: bool
    lhs: object
    rhs: object
    nu_profile: dict[int, int]
    precondition_ok: bool  # False: the chain 1 <= V4 <= ... <= V12 fails, no bound is claimed


def weight_bound_check(an: WalkAnalysis, spec: MomentSpec) -> WeightBoundResult:
    """Coloring-argument bound on the unscaled walk weight.

    Checks  prod_edges Vhat_(passes) <= v^(2s) * prod_k (4 V12 (2 U_n)^(2(k-2)))^(nu_k)
    where nu_k is the walk's self-intersection profile. The bound is claimed
    under the moment hypotheses v^2 <= 1 <= V4 <= V6 <= ... <= V12; outside
    them the check refuses rather than reporting a meaningless verdict.
    """
    if spec.truncation is None:
        raise BoundPreconditionError("weight bound is about truncated specs")
    s = an.walk.s
    cutoff = spec.truncation.cutoff(spec.n)
    v2 = Fraction(spec.law.moment(2))
    chain = [Fraction(spec.entry_moment(2 * m)) for m in range(2, 7)]
    precondition_ok = v2 <= 1 <= chain[0] and all(
        chain[i] <= chain[i + 1] for i in range(len(chain) - 1)
    )
    if not precondition_ok:
        return WeightBoundResult(
            passed=False,
            lhs=None,
            rhs=None,
            nu_profile=an.nu_profile(),
            precondition_ok=False,
        )
    lhs = Fraction(1)
    for (a, b), m in an.frame_passes.items():
        lhs *= Fraction(spec.entry_moment(m, a == b))
    v12 = chain[-1]
    rhs = v2**s
    for k, c in an.nu_profile().items():
        rhs *= (4 * v12 * Fraction(2 * cutoff) ** (2 * (k - 2))) ** c
    return WeightBoundResult(
        passed=lhs <= rhs,
        lhs=lhs,
        rhs=rhs,
        nu_profile=an.nu_profile(),
        precondition_ok=True,
    )


# ---------------------------------------------------------------------------
# Exhaustive census.


@dataclass
class ClassCensusRow:
    signature: object
    exact: int
    bound: Fraction | None
    note: str = ""

    @property
    def slack(self) -> float | None:
        if self.bound is None or self.exact == 0:
            return None
        return float(Fraction(self.bound) / self.exact)


#: Walks per kernel call: a block's arrays peak at under 2 MB up to s = 7, and
#: larger blocks ran no faster at s = 5 but raised `verify`'s peak memory.
_BLOCK = 1024


class _WalkArrays(NamedTuple):
    """The structure of W closed walks of T steps, one row per walk.

    Step and instant t = 1..T is column t - 1; a vertex is the column of its
    label (column 0 and labels a walk lacks stay empty). Each field is the
    array form of a `walks.WalkAnalysis` field, as the comments say.
    """

    marked: np.ndarray  # (W, T) bool: marked
    opened: np.ndarray  # (W, T) bool: open_instants
    bts: np.ndarray  # (W, T) bool: bts_instants
    kappa_nu: np.ndarray  # (W, V): kappa_nu, the root's +1 included
    primary: np.ndarray  # (W, V): len(marked_arrivals), the primary cells
    last_open: np.ndarray  # (W, V) bool: the last marked arrival is in open_by_vertex
    exits: np.ndarray  # (W, V): exit_degree
    nonmarked_exits: np.ndarray  # (W, V): non-marked steps leaving the vertex
    max_open: np.ndarray  # (W, V): max_open_attached
    edges: np.ndarray  # (W, V, V): marked passes of each directed edge (tail, head)
    bts_heads: np.ndarray  # (W, V): bts_heads
    imported: np.ndarray  # (W, V): len(imported_cells)
    reduced_nonmarked: np.ndarray  # (W, V): len(reduced_nonmarked_arrivals)


def _walk_arrays(labels: np.ndarray) -> _WalkArrays:
    """The structure of every walk of a (W, T + 1) label block, one step t at a time.

    Each step runs `walks.analyze`'s pass and `walks._reduce_raw`'s push and
    erasure on all W walks together; the per-vertex tallies are then counted
    from the step columns. The labels must be canonical and closed at the root.
    """
    n_walks, width = labels.shape
    n_steps = width - 1
    nv = int(labels.max()) + 1
    lab = labels.astype(np.intp)
    tails, heads = lab[:, :-1], lab[:, 1:]
    walk_v = (np.arange(n_walks) * nv)[:, None]
    # flat indices, step-major: tail and head of each step, and its frame edge
    at_tail = (walk_v + tails).T.copy()
    at_head = (walk_v + heads).T.copy()
    at_frame = ((walk_v + np.minimum(tails, heads)) * nv + np.maximum(tails, heads)).T.copy()
    odd = np.zeros(n_walks * nv * nv, bool)
    open_count = np.zeros(n_walks * nv, np.intp)
    max_open = np.zeros(n_walks * nv, np.intp)
    last_open = np.zeros(n_walks * nv, bool)
    marked = np.empty((n_steps, n_walks), bool)
    opened = np.empty((n_steps, n_walks), bool)
    # the reduction's stack: the root, then each kept step's head, mark and instant
    at_stack = np.arange(n_walks) * width
    stack_lab = np.zeros((n_walks, width), np.intp)
    stack_lab[:, 0] = lab[:, 0]
    stack_marked = np.zeros((n_walks, width), bool)
    stack_t = np.zeros((n_walks, width), np.intp)
    flat_lab, flat_marked, flat_t = stack_lab.ravel(), stack_marked.ravel(), stack_t.ravel()
    depth = np.zeros(n_walks, np.intp)
    for t in range(1, width):
        fa, fb, fe = at_tail[t - 1], at_head[t - 1], at_frame[t - 1]
        mk = ~odd[fe]
        odd[fe] = mk
        # openness is judged before this step flips anything
        op = mk & (open_count[fb] > 0)
        marked[t - 1] = mk
        opened[t - 1] = op
        last_open[fb] = np.where(mk, op, last_open[fb])
        delta = np.where(mk, 1, -1)
        open_count[fa] += delta
        max_open[fa] = np.maximum(max_open[fa], open_count[fa])
        open_count[fb] += np.where(fa != fb, delta, 0)
        max_open[fb] = np.maximum(max_open[fb], open_count[fb])
        depth += 1
        top = at_stack + depth
        flat_lab[top] = lab[:, t]
        flat_marked[top] = mk
        flat_t[top] = t
        # a marked step below the top that the top step walks back over is a backtrack: erase both
        below = at_stack + np.maximum(depth - 2, 0)
        back = (depth >= 2) & (flat_lab[top] == flat_lab[below]) & flat_marked[top - 1]
        depth -= 2 * back
    marked, opened = marked.T, opened.T

    def per_vertex(cols: np.ndarray, where: np.ndarray) -> np.ndarray:
        return np.bincount((walk_v + cols)[where], minlength=n_walks * nv).reshape(n_walks, nv)

    # position r = 1..depth of the reduced walk: its head, whether its step is
    # marked, and whether a step follows it and is marked
    pos = np.arange(1, width)
    kept = pos <= depth[:, None]
    inner = pos < depth[:, None]
    red_lab, red_marked = stack_lab[:, 1:], stack_marked[:, 1:]
    next_marked = np.zeros_like(red_marked)
    next_marked[:, :-1] = stack_marked[:, 2:]
    next_marked &= inner
    bts_at = kept & red_marked & inner & ~next_marked
    nonmarked_at = kept & ~red_marked
    bts = np.zeros((n_walks, width), bool)
    bts[np.nonzero(bts_at)[0], stack_t[:, 1:][bts_at]] = True
    primary = per_vertex(heads, marked)
    kappa_nu = primary.copy()
    kappa_nu[:, ROOT] += 1
    edges = np.bincount(
        ((walk_v + tails) * nv + heads)[marked], minlength=n_walks * nv * nv
    ).reshape(n_walks, nv, nv)
    return _WalkArrays(
        marked=marked,
        opened=opened,
        bts=bts[:, 1:],
        kappa_nu=kappa_nu,
        primary=primary,
        last_open=last_open.reshape(n_walks, nv),
        exits=per_vertex(tails, marked),
        nonmarked_exits=per_vertex(tails, ~marked),
        max_open=max_open.reshape(n_walks, nv),
        edges=edges,
        bts_heads=per_vertex(red_lab, bts_at),
        imported=per_vertex(red_lab, nonmarked_at & next_marked),
        reduced_nonmarked=per_vertex(red_lab, nonmarked_at),
    )


# 1024 holds the 626 Dyck paths of half-length k <= 7 that walks up to the ceiling project to
@lru_cache(maxsize=1024)
def _theta_steps(key: int, n_steps: int) -> tuple[int, ...] | None:
    """The Dyck path of a walk from its marked-step bits (bit t - 1 for step t); None for -1."""
    if key < 0:
        return None
    return tuple([1 if key >> i & 1 else -1 for i in range(n_steps)])


def _histogram(values: np.ndarray, size: int) -> np.ndarray:
    """Per row, how many of its entries equal 0, 1, ..., size - 1."""
    rows = values.shape[0]
    flat = (np.arange(rows)[:, None] * size + values.reshape(rows, -1)).ravel()
    return np.bincount(flat, minlength=rows * size).reshape(rows, size)


def _read_walks(wa: _WalkArrays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nine lemma verdicts and both signatures of every walk of a block.

    Returns (verdicts, nu rows, mu rows): verdicts[:, i] holds where lemma
    `walks.WALK_LEMMAS[i]` holds on the walk's analysis, and `_nu_signature`
    and `_mu_signature` turn a signature row into its class key. A walk's
    Dyck path is the integer of its marked-step bits, -1 where it has none;
    the tree link reads each path's tree once.
    """
    n_walks, n_steps = wa.marked.shape
    s = (n_steps + 1) // 2
    n_marked = wa.marked.sum(1)
    # every frame edge has even passes exactly when half the steps are marked
    dyck = 2 * n_marked == n_steps
    theta = np.where(dyck, wa.marked @ (1 << np.arange(n_steps, dtype=np.int64)), -1)
    paths, path_of = np.unique(theta, return_inverse=True)
    tree_max = np.array(
        [_tree_max_exit_degree(_theta_steps(key, n_steps)) if key >= 0 else 0 for key in paths.tolist()]
    )[path_of.reshape(-1)][:, None]
    kappa_nu, primary, edges, last_open = wa.kappa_nu, wa.primary, wa.edges, wa.last_open
    into = edges > 0
    kappa_mu = into.sum(1)
    kappa_mu[:, ROOT] += 1
    bts_total = wa.bts.sum(1)[:, None]
    # the bound on a vertex's imported cells and unfiltered reduced arrivals:
    # the BTS instants at other vertices plus its kappa_nu
    remote = bts_total - wa.bts_heads + kappa_nu
    verdicts = np.column_stack(
        [
            (n_marked == s) & (n_steps - n_marked == s),
            (kappa_mu <= kappa_nu).all(1),
            edges.sum((1, 2)) == s,
            ~(wa.bts & ~wa.opened).any(1),
            dyck & (n_marked == s),
            (
                # the mu, p and q arrivals at a vertex are all marked passes into it
                (wa.nonmarked_exits == primary)
                & (edges.sum(1) == primary)
                & (wa.max_open <= np.minimum(2 * kappa_nu, kappa_mu + wa.exits))
            ).all(1),
            ((wa.imported <= remote) & (primary + wa.imported <= 2 * kappa_nu + bts_total)).all(1),
            (wa.reduced_nonmarked <= remote).all(1),
            ~dyck | (wa.exits <= tree_max * (2 * kappa_nu + bts_total)).all(1),
        ]
    )
    simple = kappa_nu == 2
    non_root = np.arange(kappa_nu.shape[1]) != ROOT
    max_exit = wa.exits.max(1)
    # a kappa_nu or kappa_mu is at most T + 1, an edge's marked passes at most T;
    # passes[:, c] counts the directed edges with c or more marked passes, c <= T + 2
    passes = np.cumsum(_histogram(edges, n_steps + 3)[:, ::-1], 1)[:, ::-1]
    double = into & into.transpose(0, 2, 1)
    nu_rows = np.column_stack(
        [
            theta,
            _histogram(kappa_nu, n_steps + 2)[:, 2:],
            (simple & last_open).sum(1),
            # the two arrivals of a simple vertex ride one oriented edge
            (simple & ~last_open & non_root & (edges.max(1) == 2)).sum(1),
            max_exit,
            kappa_nu[:, ROOT],
            last_open[:, ROOT],
        ]
    )
    mu_rows = np.column_stack(
        [
            theta,
            # every vertex of a canonical walk has kappa_mu >= 1; 0 marks an empty column
            _histogram(kappa_mu, n_steps + 2)[:, 1:],
            passes[:, 2:],
            (double.sum((1, 2)) - double.trace(0, 1, 2)) // 2,
            (simple & (kappa_mu == 2) & last_open).sum(1),
            max_exit,
            np.maximum(kappa_nu.max(1), 1),
        ]
    )
    return verdicts, nu_rows, mu_rows


def _nu_signature(row: list[int], n_steps: int) -> NuSignature:
    """The nu class key of a `_read_walks` nu row."""
    theta, *profile, r, p, d, root_kappa, root_open = row
    return NuSignature(
        theta=_theta_steps(theta, n_steps),
        nu=tuple([(k, c) for k, c in enumerate(profile, start=2) if c]),
        r=r,
        p=p,
        d=d,
        root_kappa=root_kappa,
        root_open=bool(root_open),
    )


def _mu_signature(row: list[int], n_steps: int) -> MuSignature:
    """The mu class key of a `_read_walks` mu row."""
    theta, *rest, double_mu, r, d, max_kappa_nu = row
    profile, passes = rest[: n_steps + 1], rest[n_steps + 1 :]
    return MuSignature(
        theta=_theta_steps(theta, n_steps),
        mu=tuple([(m, c) for m, c in enumerate(profile, start=1) if c]),
        p_count=passes[0],
        double_mu=double_mu,
        # layer j holds the directed edges with j + 2 or more marked passes
        q_counts=tuple([c for c in passes[1:] if c]),
        r=r,
        d=d,
        max_kappa_nu=max_kappa_nu,
    )


def _tally(rows: np.ndarray, key, n_steps: int, counts: dict) -> None:
    """Add each distinct row's walks to counts under its key, in order of first walk."""
    order = np.lexsort(rows.T)
    ranked = rows[order]
    starts = np.flatnonzero(np.r_[True, (ranked[1:] != ranked[:-1]).any(1)])
    firsts = np.minimum.reduceat(order, starts)
    sizes = np.diff(np.r_[starts, len(order)])
    by_first = np.argsort(firsts)
    for row, size in zip(rows[firsts[by_first]].tolist(), sizes[by_first].tolist()):
        sig = key(row, n_steps)
        counts[sig] = counts.get(sig, 0) + size


@lru_cache(maxsize=None)
def _census(s: int) -> tuple[dict[NuSignature, int], dict[MuSignature, int], dict[str, int]]:
    """One pass over the even walks of 2s steps, a block of walks at a time.

    The walk search's label blocks are cut into blocks of `_BLOCK` rows;
    `_walk_arrays` and `_read_walks` turn each into lemma verdicts and class
    keys, which are tallied once per distinct key. Returns the exact nu and
    mu class sizes, keyed in order of each class's first walk in the search,
    and for each lemma of `walks.WALK_LEMMAS` the number of walks where it
    fails. No walk list is kept.
    """
    nu: dict[NuSignature, int] = {}
    mu: dict[MuSignature, int] = {}
    failures = np.zeros(len(WALK_LEMMAS), np.int64)
    for rows in _even_walk_blocks(s):
        for start in range(0, len(rows), _BLOCK):
            verdicts, nu_rows, mu_rows = _read_walks(_walk_arrays(rows[start : start + _BLOCK]))
            failures += (~verdicts).sum(0)
            _tally(nu_rows, _nu_signature, 2 * s, nu)
            _tally(mu_rows, _mu_signature, 2 * s, mu)
    return nu, mu, dict(zip(WALK_LEMMAS, failures.tolist()))


def nu_census(s: int) -> dict[NuSignature, int]:
    """Exact cardinality of every realized nu class among even walks of 2s steps."""
    return dict(_census(s)[0])


def mu_census(s: int) -> dict[MuSignature, int]:
    """Exact cardinality of every realized mu class among even walks of 2s steps."""
    return dict(_census(s)[1])


def lemma_failures(s: int) -> dict[str, int]:
    """Per lemma of `walks.WALK_LEMMAS`, how many even walks of 2s steps break it."""
    return dict(_census(s)[2])


def exact_class_size(s: int, signature: NuSignature | MuSignature) -> int:
    """Count enumerated walks matching the signature.

    A None theta in the signature matches any Dyck path (aggregate count).
    A nu signature caps the exit degree (d <= signature.d) and ignores the
    root fields; a mu signature must match in every field but max_kappa_nu.
    Formally infeasible signatures simply match nothing and count 0.
    """
    nu, mu, _ = _census(s)
    if isinstance(signature, NuSignature):
        key = (signature.nu, signature.r, signature.p)
        return sum(
            cnt
            for sig, cnt in nu.items()
            if signature.theta in (None, sig.theta)
            and (sig.nu, sig.r, sig.p) == key
            and sig.d <= signature.d
        )
    key = signature._replace(theta=None, max_kappa_nu=0)
    return sum(
        cnt
        for sig, cnt in mu.items()
        if signature.theta in (None, sig.theta)
        and sig._replace(theta=None, max_kappa_nu=0) == key
    )


def nu_domination_report(s: int) -> list[ClassCensusRow]:
    """exact <= ss_bound for every realized (theta, nu, r, p) at each realized d.

    The nu class bound caps the exit degree, so for a given key the exact
    count at cap d aggregates all walks of the key with max exit degree <= d.
    """
    by_key: dict[tuple, dict[int, int]] = {}
    for sig, cnt in nu_census(s).items():
        d_counts = by_key.setdefault(
            (sig.theta, sig.nu, sig.r, sig.p, sig.root_kappa, sig.root_open), {}
        )
        d_counts[sig.d] = d_counts.get(sig.d, 0) + cnt
    rows: list[ClassCensusRow] = []
    for (theta, nu, r, p, rk, ro), d_counts in sorted(by_key.items()):
        h = DyckPath(theta).max_height
        running = 0
        for d in sorted(d_counts):
            running += d_counts[d]
            sig = NuSignature(theta=theta, nu=nu, r=r, p=p, d=d, root_kappa=rk, root_open=ro)
            rows.append(ClassCensusRow(sig, running, ss_bound(s, sig, h)))
    return rows


def mu_domination_report(s: int, k0: int = 4) -> list[ClassCensusRow]:
    """exact <= mu_bound on every realized mu signature satisfying the hypotheses."""
    if k0 < 1:
        raise ValueError("k0 must be >= 1")
    rows: list[ClassCensusRow] = []
    for sig, cnt in sorted(mu_census(s).items(), key=lambda kv: repr(kv[0])):
        try:
            bound = mu_bound(s, sig, k0)
        except BoundPreconditionError as exc:
            rows.append(ClassCensusRow(sig, cnt, None, note=str(exc)))
            continue
        rows.append(ClassCensusRow(sig, cnt, bound))
    return rows


#: The columns of a class census row, in CSV order.
CENSUS_CSV_FIELDS = (
    "family", "s", "theta", "profile", "r", "p_or_Pp", "Ppp", "Q", "d", "exact", "bound", "slack", "note"
)


def _csv_row(family: str, s: int, row: ClassCensusRow, profile, p_or_pp, ppp="", q="") -> tuple:
    sig = row.signature
    return (
        family,
        s,
        "".join("U" if x == 1 else "D" for x in sig.theta),
        ";".join(f"{k}:{c}" for k, c in profile),
        sig.r,
        p_or_pp,
        ppp,
        q,
        sig.d,
        row.exact,
        "" if row.bound is None else str(row.bound),
        "" if row.slack is None else f"{row.slack:.6g}",
        row.note,
    )


def census_csv_tuples(s: int, k0: int = 4) -> Iterator[tuple]:
    """Flat census rows (both class families) as tuples in `CENSUS_CSV_FIELDS` order.

    Each family's report is built only when its rows are asked for, so the
    two are never held at once.
    """
    for row in nu_domination_report(s):
        yield _csv_row("nu", s, row, row.signature.nu, row.signature.p)
    for row in mu_domination_report(s, k0):
        sig = row.signature
        yield _csv_row("mu", s, row, sig.mu, sig.p_count, sig.double_mu, ";".join(str(c) for c in sig.q_counts))


def census_csv_rows(s: int, k0: int = 4) -> list[dict]:
    """Flat census rows (both class families) for CSV emission."""
    return [dict(zip(CENSUS_CSV_FIELDS, row)) for row in census_csv_tuples(s, k0)]
