"""Canonical even closed walks and their structural analysis.

A walk is a label sequence w(0..2s) in first-appearance order starting at 1.
The analysis computes everything the counting machinery needs: marked steps,
the frame multigraph with pass counts, self-intersection degrees and open
instants, the last-marked-passage (mu) classification of marked edges with
its p-edges and layered q-edges, the backtrack-erasing reduction to a fixed
point, instants of broken tree structure, and primary/imported cells.

The even walks of 2s steps come from one search, `_even_walk_blocks`: a
frontier of prefixes held in numpy arrays, each step extending every live
prefix by every allowed next label at once. It yields int8 label rows in
lexicographic order; the class census reads them in blocks, and
`enumerate_even_walks` builds one `Walk` per row.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dyck import DyckPath, exit_degree_profile
from .errors import EnumerationCeilingError

#: Ceiling on the number of steps 2s for every even-walk search: s <= 7.
WALK_ENUMERATION_CEILING = 14

ROOT = 1


@dataclass(frozen=True)
class Walk:
    """Closed label sequence in canonical first-appearance order.

    Even walks have 2s+1 labels; odd-step closed sequences are accepted too so
    that the structural analysis can be exercised on textbook fragments.
    """

    labels: tuple[int, ...]

    def __post_init__(self):
        lab = self.labels
        if not lab:
            raise ValueError("a walk has at least one label")
        if lab[0] != ROOT or lab[-1] != ROOT:
            raise ValueError("walks start and end at the root label 1")
        seen = 0
        for x in lab:
            if x < 1 or x > seen + 1:
                raise ValueError("labels must appear in first-appearance order")
            seen = max(seen, x)

    @classmethod
    def _unchecked(cls, labels: tuple[int, ...]) -> "Walk":
        """A walk from labels known to be canonical and closed at the root.

        Skips `__post_init__`: only for labels that hold by construction,
        such as a canonical relabelling of a sequence that starts and ends
        at the root.
        """
        walk = object.__new__(cls)
        walk.__dict__["labels"] = labels
        return walk

    @property
    def n_steps(self) -> int:
        return len(self.labels) - 1

    @property
    def s(self) -> int:
        return len(self.labels) // 2

    @property
    def n_vertices(self) -> int:
        return max(self.labels)

    def steps(self) -> list[tuple[int, int]]:
        lab = self.labels
        return [(lab[t - 1], lab[t]) for t in range(1, len(lab))]

    def is_even(self) -> bool:
        passes: dict[tuple[int, int], int] = {}
        for a, b in self.steps():
            e = (a, b) if a <= b else (b, a)
            passes[e] = passes.get(e, 0) + 1
        return all(m % 2 == 0 for m in passes.values())

    def to_string(self) -> str:
        return ",".join(str(x) for x in self.labels)

    @staticmethod
    def from_string(text: str) -> "Walk":
        return Walk(tuple(int(tok) for tok in text.strip().split(",")))

    @staticmethod
    def from_labels(raw: list[int] | tuple[int, ...]) -> "Walk":
        """Relabel an arbitrary closed label sequence into canonical form."""
        return Walk(_relabel(raw))


def _relabel(raw: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """The labels renumbered 1, 2, ... in order of first appearance."""
    mapping: dict[int, int] = {}
    return tuple([mapping.setdefault(x, len(mapping) + 1) for x in raw])


def _frame_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def _marked_flags(labels: tuple[int, ...]) -> list[bool]:
    """marked[t-1] for steps t = 1..len-1: odd cumulative pass count of the frame edge."""
    parity: dict[tuple[int, int], int] = {}
    out = []
    for t in range(1, len(labels)):
        e = _frame_key(labels[t - 1], labels[t])
        parity[e] = parity.get(e, 0) ^ 1
        out.append(parity[e] == 1)
    return out


@dataclass
class WalkAnalysis:
    """Full structural report for one walk (graph, mu-structure, reduction)."""

    walk: Walk
    marked: tuple[bool, ...]
    theta: DyckPath | None
    frame_passes: dict[tuple[int, int], int]
    marked_arrivals: dict[int, tuple[int, ...]]
    kappa_nu: dict[int, int]
    open_instants: tuple[int, ...]
    open_by_vertex: dict[int, tuple[int, ...]]
    exit_degree: dict[int, int]
    max_exit_degree: int
    mu_edges: dict[tuple[int, int], int]
    p_edges: dict[tuple[int, int], int]
    q_layers: tuple[tuple[int, ...], ...]
    kappa_mu: dict[int, int]
    double_mu_count: int
    reduced: Walk
    bts_instants: tuple[int, ...]
    imported_cells: dict[int, tuple[int, ...]]
    reduced_nonmarked_arrivals: dict[int, tuple[int, ...]]
    max_open_attached: dict[int, int]
    # bts_heads[v] = number of BTS instants at vertex v, indexed by label:
    # counted once per analysis from bts_instants, for the two checks that read it
    bts_heads: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lab = self.walk.labels
        heads = [0] * (self.walk.n_vertices + 1)
        for t in self.bts_instants:
            heads[lab[t]] += 1
        self.bts_heads = heads

    @property
    def bts_total(self) -> int:
        return len(self.bts_instants)

    def nu_profile(self) -> dict[int, int]:
        """nu_k = number of vertices of self-intersection degree k, k >= 2."""
        prof: dict[int, int] = {}
        for _, k in self.kappa_nu.items():
            if k >= 2:
                prof[k] = prof.get(k, 0) + 1
        return prof

    def mu_profile(self) -> dict[int, int]:
        """mu_m = number of vertices of mu-self-intersection degree m, m >= 1."""
        prof: dict[int, int] = {}
        for _, m in self.kappa_mu.items():
            prof[m] = prof.get(m, 0) + 1
        return prof


def _reduce_raw(
    labels: tuple[int, ...], marked: list[bool] | tuple[bool, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Erase marked backtracks to a fixed point, in one stack pass.

    Removes instants t where step t is marked and w(t+1) = w(t-1) (the step
    t+1 is then the non-marked closure of the same frame edge) until none
    remain. `marked` holds the walk's `_marked_flags`. Erasing a backtrack
    removes two passes of one frame edge, so no surviving step changes its
    flag, and an erasure exposes no new backtrack below the top of the
    stack. Returns (raw label sequence, surviving original step indices).
    """
    seq = [labels[0]]
    step_ids: list[int] = []
    for t in range(1, len(labels)):
        seq.append(labels[t])
        step_ids.append(t)
        if len(seq) >= 3 and seq[-1] == seq[-3] and marked[step_ids[-2] - 1]:
            del seq[-2:]
            del step_ids[-2:]
    return tuple(seq), tuple(step_ids)


def reduce_walk(walk: Walk) -> Walk:
    """Fixed point of the backtrack-erasing reduction, canonically relabeled."""
    raw, _ = _reduce_raw(walk.labels, _marked_flags(walk.labels))
    return Walk.from_labels(raw)


def analyze(walk: Walk) -> WalkAnalysis:
    """The walk's full structural report, in one pass over its steps.

    A step is marked when its frame edge's running pass count turns odd,
    as `_marked_flags` has it; per-vertex tallies live in lists indexed by
    label and become the report's dicts in label order.
    """
    lab = walk.labels
    nv = max(lab)
    marked_list: list[bool] = []
    frame_passes: dict[tuple[int, int], int] = {}
    marked_arrivals: list[list[int]] = [[] for _ in range(nv + 1)]
    exit_degree = [0] * (nv + 1)
    open_instants: list[int] = []
    open_by_vertex: list[list[int]] = [[] for _ in range(nv + 1)]
    directed_marked: dict[tuple[int, int], list[int]] = {}
    # open-edge bookkeeping: number of odd-parity frame edges at each vertex
    open_count = [0] * (nv + 1)
    max_open_attached = [0] * (nv + 1)

    a = lab[0]
    for t in range(1, len(lab)):
        b = lab[t]
        e = (a, b) if a <= b else (b, a)
        m = frame_passes.get(e, 0) + 1
        frame_passes[e] = m
        if m & 1:
            marked_list.append(True)
            # openness is judged on [0, t-1], before this step flips anything
            if open_count[b] > 0:
                open_instants.append(t)
                open_by_vertex[b].append(t)
            marked_arrivals[b].append(t)
            exit_degree[a] += 1
            directed_marked.setdefault((a, b), []).append(t)
            delta = 1
        else:
            marked_list.append(False)
            delta = -1
        open_count[a] += delta
        if open_count[a] > max_open_attached[a]:
            max_open_attached[a] = open_count[a]
        if b != a:
            open_count[b] += delta
            if open_count[b] > max_open_attached[b]:
                max_open_attached[b] = open_count[b]
        a = b
    marked = tuple(marked_list)

    # mu / p / q classification per directed edge, last marked passage first;
    # a double mu-edge is counted when the second of its two directions comes
    mu_edges: dict[tuple[int, int], int] = {}
    p_edges: dict[tuple[int, int], int] = {}
    q_layer_map: dict[int, list[int]] = {}
    mu_heads = [0] * (nv + 1)
    mu_heads[ROOT] = 1
    double_mu_count = 0
    for edge, instants in directed_marked.items():
        a, b = edge
        mu_edges[edge] = instants[-1]
        mu_heads[b] += 1
        if a != b and (b, a) in mu_edges:
            double_mu_count += 1
        if len(instants) >= 2:
            p_edges[edge] = instants[-2]
            if len(instants) > 2:
                for depth, t in enumerate(reversed(instants[:-2]), start=1):
                    q_layer_map.setdefault(depth, []).append(t)
    q_layers = ()
    if q_layer_map:
        q_layers = tuple(tuple(sorted(q_layer_map[j])) for j in sorted(q_layer_map))

    # reduction, BTS instants, cells
    raw, step_map = _reduce_raw(lab, marked)
    red_marked = [marked[t - 1] for t in step_map]
    bts: list[int] = []
    imported: list[list[int]] = [[] for _ in range(nv + 1)]
    nonmarked_red: list[list[int]] = [[] for _ in range(nv + 1)]
    for r in range(1, len(raw)):
        head = raw[r]
        if red_marked[r - 1]:
            if r < len(raw) - 1 and not red_marked[r]:
                bts.append(step_map[r - 1])
        else:
            nonmarked_red[head].append(step_map[r - 1])
            # an arrival imports exit capacity only if the walk leaves by a
            # marked step; pass-through arrivals open no new exit group
            if r < len(raw) - 1 and red_marked[r]:
                imported[head].append(step_map[r - 1])

    # every frame edge has even passes exactly when half the steps are
    # marked; each non-marked step then closes an earlier marked pass of its
    # edge, so the marked pattern is a Dyck path
    theta = None
    if 2 * marked_list.count(True) == len(marked_list):
        theta = DyckPath._unchecked(tuple([1 if m else -1 for m in marked]))

    # the per-vertex reports, in label order
    arrivals: dict[int, tuple[int, ...]] = {}
    kappa_nu: dict[int, int] = {}
    open_by: dict[int, tuple[int, ...]] = {}
    exits: dict[int, int] = {}
    kappa_mu: dict[int, int] = {}
    imported_cells: dict[int, tuple[int, ...]] = {}
    reduced_nonmarked: dict[int, tuple[int, ...]] = {}
    max_open: dict[int, int] = {}
    for v in range(1, nv + 1):
        arrivals[v] = arr = tuple(marked_arrivals[v])
        kappa_nu[v] = len(arr)
        open_by[v] = tuple(open_by_vertex[v])
        exits[v] = exit_degree[v]
        kappa_mu[v] = mu_heads[v]
        imported_cells[v] = tuple(imported[v])
        reduced_nonmarked[v] = tuple(nonmarked_red[v])
        max_open[v] = max_open_attached[v]
    kappa_nu[ROOT] += 1

    return WalkAnalysis(
        walk=walk,
        marked=marked,
        theta=theta,
        frame_passes=frame_passes,
        marked_arrivals=arrivals,
        kappa_nu=kappa_nu,
        open_instants=tuple(open_instants),
        open_by_vertex=open_by,
        exit_degree=exits,
        max_exit_degree=max(exit_degree),
        mu_edges=mu_edges,
        p_edges=p_edges,
        q_layers=q_layers,
        kappa_mu=kappa_mu,
        double_mu_count=double_mu_count,
        # the reduction keeps the first and last labels, both the root
        reduced=Walk._unchecked(_relabel(raw)),
        bts_instants=tuple(bts),
        imported_cells=imported_cells,
        reduced_nonmarked_arrivals=reduced_nonmarked,
        max_open_attached=max_open,
    )


# ---------------------------------------------------------------------------
# Enumeration.


#: Prefixes the walk search extends together: it takes each next step for a
#: chunk of at most this many rows at once. With 1,024 rows every array of a
#: step stays below 128 KB up to s = 7, and `verify`'s peak memory stayed
#: within 0.3 MB of the recursive search's; chunks of 2,048 or 4,096 rows
#: ran about 10% faster at s = 6 and 7 but raised that peak by up to 1.2 MB.
_FRONTIER_ROWS = 1_024


def _even_walk_blocks(s: int, allow_loops: bool = True) -> Iterator[np.ndarray]:
    """The canonical even closed walks of 2s steps, as blocks of label rows.

    Returns an iterator of int8 arrays of shape (W, 2s + 1), one walk's
    labels per row, over all walks in lexicographic label order. s is
    checked before any walk is built. The search is a frontier of prefixes:
    each step extends every live prefix of a chunk by every allowed next
    label at once (`_frontier`).
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    if 2 * s > WALK_ENUMERATION_CEILING:
        raise EnumerationCeilingError("even-walk enumeration", 2 * s, WALK_ENUMERATION_CEILING)
    return _frontier(s, allow_loops)


def _frontier(s: int, allow_loops: bool) -> Iterator[np.ndarray]:
    """The search behind `_even_walk_blocks`, depth-first over chunks of prefixes.

    A prefix of t steps is a label row (filled up to column t) with its
    largest label, its number of open frame edges (odd pass count) and the
    parities of its frame edges as bits of one word. A next label may be
    one past the largest while that stays <= s + 1; once the open edges equal
    the steps left, only a step that closes an open edge is allowed. Children
    are listed by parent, then by label, and the first chunk's descendants
    are finished before the next chunk is extended, so rows come out in
    lexicographic order. At 2s steps no edge is open, so each row ends at
    the root.
    """
    two_s = 2 * s
    if s == 0:
        yield np.full((1, 1), ROOT, np.int8)
        return
    # frame_bit[a, b]: the parity bit of frame edge {a, b}, labels 1..s + 1;
    # with a <= b it is bit (a - 1)(s + 1) + b - 1, below 64 up to the ceiling s = 7
    nxt = np.arange(1, s + 2, dtype=np.int8)
    lo, hi = np.minimum.outer(nxt, nxt), np.maximum.outer(nxt, nxt)
    frame_bit = np.zeros((s + 2, s + 2), np.uint64)
    frame_bit[1:, 1:] = np.uint64(1) << ((lo - 1) * (s + 1) + hi - 1).astype(np.uint64)
    # (steps taken, label rows, largest labels, open-edge counts, parity words), one chunk each
    root = np.full((1, two_s + 1), ROOT, np.int8)
    stack = [(0, root, np.ones(1, np.int8), np.zeros(1, np.intp), np.zeros(1, np.uint64))]
    while stack:
        t, labels, vmax, n_open, parity = stack.pop()
        if len(labels) > _FRONTIER_ROWS:
            rest = slice(_FRONTIER_ROWS, None)
            stack.append((t, labels[rest], vmax[rest], n_open[rest], parity[rest]))
            head = slice(_FRONTIER_ROWS)
            labels, vmax, n_open, parity = labels[head], vmax[head], n_open[head], parity[head]
        cur = labels[:, t]
        closing = n_open == two_s - t
        top = np.where(closing | (vmax > s), vmax, vmax + 1)
        bits = frame_bit[cur[:, None], nxt]
        odd = (parity[:, None] & bits) != 0
        allowed = (nxt <= top[:, None]) & (odd | ~closing[:, None])
        if not allow_loops:
            allowed &= nxt != cur[:, None]
        rows, cols = np.nonzero(allowed)
        child = labels[rows]
        child[:, t + 1] = nxt[cols]
        if t + 1 < two_s:
            closes = odd[rows, cols]
            stack.append(
                (
                    t + 1,
                    child,
                    np.maximum(vmax[rows], nxt[cols]),
                    n_open[rows] + 1 - 2 * closes,
                    parity[rows] ^ bits[rows, cols],
                )
            )
        elif len(child):
            yield child


def enumerate_even_walks(s: int, allow_loops: bool = True) -> list[Walk]:
    """All canonical even closed walks of 2s steps, in lexicographic label order."""
    return [Walk(tuple(row)) for block in _even_walk_blocks(s, allow_loops) for row in block.tolist()]


def is_tree_structure(walk: Walk) -> bool:
    """No self-intersections and no loops: the walk is a depth-first tree run.

    In an even walk the nu self-intersection degrees sum to s + 1 and each is
    at least 1, so all equal 1 exactly when there are s + 1 vertices; a loop
    step would leave at most s.
    """
    return walk.is_even() and walk.n_vertices == walk.s + 1


# ---------------------------------------------------------------------------
# Structural verifications.


def verify_vertex_ledger(an: WalkAnalysis) -> bool:
    """Whether the per-vertex in/out ledger and open-edge bounds hold.

    For every vertex: the number of non-marked exit steps equals the number of
    marked arrivals (split into mu/p/q parts), and at every instant the number
    of open attached frame edges is at most min(2 * kappa_nu, kappa_mu + exit
    degree), with the root's +1 conventions on both kappas.
    """
    lab = an.walk.labels
    nonmarked_exits = [0] * (an.walk.n_vertices + 1)
    pq_arrivals = nonmarked_exits.copy()
    for tail, marked in zip(lab, an.marked):
        if not marked:
            nonmarked_exits[tail] += 1
    for _, head in an.p_edges:
        pq_arrivals[head] += 1
    for layer in an.q_layers:
        for t in layer:
            pq_arrivals[lab[t]] += 1
    kappa_nu, kappa_mu = an.kappa_nu, an.kappa_mu
    exit_degree, max_open = an.exit_degree, an.max_open_attached
    for v, arrivals in an.marked_arrivals.items():
        count = len(arrivals)
        mu_part = kappa_mu[v] - (1 if v == ROOT else 0)
        if nonmarked_exits[v] != count or mu_part + pq_arrivals[v] != count:
            return False
        if max_open[v] > min(2 * kappa_nu[v], kappa_mu[v] + exit_degree[v]):
            return False
    return True


# 1024 holds the 626 Dyck paths of half-length k <= 7 that walks up to the ceiling project to
@lru_cache(maxsize=1024)
def _tree_max_exit_degree(steps: tuple[int, ...]) -> int:
    """Largest exit degree of the tree of a Dyck step sequence, once per path."""
    return max(exit_degree_profile(steps))


def verify_exit_degree_tree_link(an: WalkAnalysis) -> bool:
    """Whether each vertex's exit cluster splits into at most 2 kappa + L
    groups, every group living inside one exit cluster of the underlying tree;
    hence the tree has a vertex of exit degree at least
    deg_e(beta) / (2 kappa(beta) + L)."""
    if an.theta is None:
        return True
    tree_max = _tree_max_exit_degree(an.theta.steps)
    L = an.bts_total
    kappa_nu = an.kappa_nu
    for v, d in an.exit_degree.items():
        if d > tree_max * (2 * kappa_nu[v] + L):
            return False
    return True


def verify_cell_bounds(an: WalkAnalysis) -> bool:
    """Whether the imported-cell bounds J <= remote BTS + kappa and Psi <= 2 kappa + L hold."""
    L = an.bts_total
    # the remote BTS instants of v are L - heads[v]; its primary cells are its marked arrivals
    heads, kappa_nu, primary_cells = an.bts_heads, an.kappa_nu, an.marked_arrivals
    for v, imported in an.imported_cells.items():
        j = len(imported)
        kappa = kappa_nu[v]
        if j > L - heads[v] + kappa or len(primary_cells[v]) + j > 2 * kappa + L:
            return False
    return True


#: The per-walk lemmas of the walk structure suite, in report order. The
#: class census reads them for every even walk at once (`classes._read_walks`).
WALK_LEMMAS = (
    "marked/non-marked balance",
    "kappa_mu <= kappa_nu",
    "mu/p/q partition of marked steps",
    "BTS instants are open self-intersections",
    "walk projects to a Dyck path",
    "vertex in/out ledger and open-edge bounds",
    "imported-cell count bounds",
    "cells bound holds for unfiltered reduced arrivals too",
    "exit clusters fit the cell bound on the underlying tree",
)


def check_walk_lemmas(an: WalkAnalysis) -> dict[str, bool]:
    """Every per-walk lemma of the walk structure suite, by label: True where it holds.

    Six are read off the analysis here; the vertex ledger, the cell bounds
    and the exit-degree tree link are the three `verify_*` checks above. All
    nine hold on every even walk. The class census reads the same nine for
    a block of walks at once from arrays (`classes._read_walks`), and this
    per-walk reading is its test oracle.
    """
    walk = an.walk
    s = walk.s
    n_marked = an.marked.count(True)
    kappa_nu = an.kappa_nu
    mu_below_nu = True
    for v, mu in an.kappa_mu.items():
        if mu > kappa_nu[v]:
            mu_below_nu = False
            break
    n_pq = len(an.p_edges)
    for layer in an.q_layers:
        n_pq += len(layer)
    bts = an.bts_instants
    L = len(bts)
    heads = an.bts_heads
    unfiltered_ok = True
    for v, arrivals in an.reduced_nonmarked_arrivals.items():
        if len(arrivals) > L - heads[v] + kappa_nu[v]:
            unfiltered_ok = False
            break
    held = (
        n_marked == s and walk.n_steps - n_marked == s,
        mu_below_nu,
        len(an.mu_edges) + n_pq == s,
        not L or set(bts).issubset(an.open_instants),
        an.theta is not None and an.theta.k == s,
        verify_vertex_ledger(an),
        verify_cell_bounds(an),
        unfiltered_ok,
        verify_exit_degree_tree_link(an),
    )
    return dict(zip(WALK_LEMMAS, held))


# ---------------------------------------------------------------------------
# Serialization.


def report_to_dict(an: WalkAnalysis) -> dict:
    """Stable JSON-ready summary of an analysis (documented schema)."""

    def edgekey(e: tuple[int, int]) -> str:
        return f"{e[0]}->{e[1]}"

    return {
        "walk": an.walk.to_string(),
        "s": an.walk.s,
        "marked_steps": [t for t in range(1, an.walk.n_steps + 1) if an.marked[t - 1]],
        "dyck_path": str(an.theta) if an.theta is not None else None,
        "frame_passes": {f"{a}-{b}": m for (a, b), m in sorted(an.frame_passes.items())},
        "kappa_nu": {str(v): k for v, k in sorted(an.kappa_nu.items())},
        "kappa_mu": {str(v): k for v, k in sorted(an.kappa_mu.items())},
        "open_instants": list(an.open_instants),
        "exit_degree": {str(v): d for v, d in sorted(an.exit_degree.items())},
        "max_exit_degree": an.max_exit_degree,
        "mu_instants": {edgekey(e): t for e, t in sorted(an.mu_edges.items())},
        "p_instants": {edgekey(e): t for e, t in sorted(an.p_edges.items())},
        "q_layer_counts": [len(layer) for layer in an.q_layers],
        "p_count": len(an.p_edges),
        "double_mu_count": an.double_mu_count,
        "reduced_walk": an.reduced.to_string(),
        "bts_instants": list(an.bts_instants),
        "primary_cells": {str(v): list(ts) for v, ts in sorted(an.marked_arrivals.items())},
        "imported_cells": {str(v): list(ts) for v, ts in sorted(an.imported_cells.items())},
    }


def report_to_json(an: WalkAnalysis) -> str:
    return json.dumps(report_to_dict(an), sort_keys=True, indent=2)
