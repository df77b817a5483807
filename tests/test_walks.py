import csv
import json
from collections import Counter
from dataclasses import fields, replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerlab import classes, walks
from wignerlab.classes import MuSignature, NuSignature, classify_mu, classify_nu
from wignerlab.cli import GOLDEN_DIR
from wignerlab.dyck import DyckPath, catalan, exit_degree_profile
from wignerlab.errors import EnumerationCeilingError
from wignerlab.walks import (
    ROOT,
    WALK_LEMMAS,
    Walk,
    WalkAnalysis,
    _even_walk_blocks,
    _marked_flags,
    _reduce_raw,
    analyze,
    check_walk_lemmas,
    enumerate_even_walks,
    is_tree_structure,
    reduce_walk,
    report_to_dict,
    report_to_json,
    verify_exit_degree_tree_link,
    verify_vertex_ledger,
    verify_cell_bounds,
)

W14 = Walk((1, 2, 3, 4, 3, 5, 2, 3, 4, 3, 2, 5, 3, 2, 1))


def test_walk_validation():
    with pytest.raises(ValueError):
        Walk((2, 1, 2))  # does not start at 1
    with pytest.raises(ValueError):
        Walk((1, 3, 1))  # label 3 before 2
    with pytest.raises(ValueError):
        Walk((1, 2, 3))  # not closed
    assert Walk((1,)).s == 0


def test_serialization_roundtrip():
    assert Walk.from_string(W14.to_string()) == W14
    assert W14.to_string().startswith("1,2,3,4,3,5")


def test_enumeration_small():
    assert [w.to_string() for w in enumerate_even_walks(1)] == ["1,1,1", "1,2,1"]
    assert len(enumerate_even_walks(0)) == 1
    assert len(enumerate_even_walks(2)) == 8
    walks3 = enumerate_even_walks(3)
    assert len(walks3) == len(set(walks3)) == 50
    assert all(w.is_even() for w in walks3)
    # lexicographic order of label sequences
    labels = [w.labels for w in walks3]
    assert labels == sorted(labels)


def test_enumeration_ceiling():
    with pytest.raises(EnumerationCeilingError):
        enumerate_even_walks(8)


def test_walk_search_refuses_before_any_walk():
    # the search checks s when it is called, before its first block is asked for
    with pytest.raises(EnumerationCeilingError):
        _even_walk_blocks(8)
    with pytest.raises(ValueError):
        _even_walk_blocks(-1)


@lru_cache(maxsize=None)
def recursive_even_walks(s: int, allow_loops: bool) -> tuple[tuple[int, ...], ...]:
    """Oracle: the depth-first recursion over canonical even closed walks of 2s steps.

    One call per search-tree node, in lexicographic label order, with the
    pass counts of the frame edges as live state. Once the open (odd) edges
    equal the steps left, only closing steps are tried.
    """
    out = []
    labels = [ROOT]
    passes: dict[tuple[int, int], int] = {}

    def rec(t: int, cur: int, vmax: int, nopen: int) -> None:
        remaining = 2 * s - t
        if remaining == 0:
            if cur == ROOT and nopen == 0:
                out.append(tuple(labels))
            return
        closing_only = nopen == remaining
        hi = vmax + 1 if (vmax <= s and not closing_only) else vmax
        for nxt in range(1, hi + 1):
            if nxt == cur and not allow_loops:
                continue
            e = (cur, nxt) if cur <= nxt else (nxt, cur)
            m = passes.get(e, 0)
            odd = m & 1
            if closing_only and not odd:
                continue
            passes[e] = m + 1
            labels.append(nxt)
            rec(t + 1, nxt, max(nxt, vmax), nopen - 1 if odd else nopen + 1)
            labels.pop()
            if m:
                passes[e] = m
            else:
                del passes[e]

    rec(0, ROOT, 1, 0)
    return tuple(out)


def _frontier_rows(s: int, allow_loops: bool) -> list[tuple[int, ...]]:
    blocks = list(_even_walk_blocks(s, allow_loops))
    assert all(block.dtype == np.int8 and block.shape[1] == 2 * s + 1 for block in blocks)
    return [tuple(row) for block in blocks for row in block.tolist()]


@pytest.mark.parametrize("allow_loops", [True, False], ids=["loops", "no-loops"])
def test_walk_search_rows_equal_the_recursive_search(allow_loops):
    for s in range(7):
        assert _frontier_rows(s, allow_loops) == list(recursive_even_walks(s, allow_loops)), s


@pytest.mark.parametrize("rows, s_max", [(1, 5), (7, 6), (100, 6)])
def test_no_frontier_chunk_reorders_or_drops_a_walk(monkeypatch, rows, s_max):
    # a chunk of one row extends one prefix at a time: the recursion's own order
    monkeypatch.setattr(walks, "_FRONTIER_ROWS", rows)
    for allow_loops in (True, False):
        for s in range(s_max + 1):
            assert _frontier_rows(s, allow_loops) == list(recursive_even_walks(s, allow_loops)), (s, allow_loops)


def test_tree_structure_walks_match_catalan():
    # walks without self-intersections or loops biject with Dyck paths
    for s in range(7):
        trees = sum(1 for w in enumerate_even_walks(s) if is_tree_structure(w))
        assert trees == catalan(s)
    noloop = enumerate_even_walks(3, allow_loops=False)
    assert all(a != b for w in noloop for a, b in w.steps())
    assert sum(1 for w in noloop if is_tree_structure(w)) == 5


def _closed_sequences(max_steps: int) -> list[Walk]:
    """Every canonical closed label sequence of at most max_steps steps."""
    out = []

    def rec(labels: list[int], vmax: int) -> None:
        if labels[-1] == 1:
            out.append(Walk(tuple(labels)))
        if len(labels) > max_steps:
            return
        for nxt in range(1, vmax + 2):
            labels.append(nxt)
            rec(labels, max(vmax, nxt))
            labels.pop()

    rec([1], 1)
    return out


def test_enumeration_matches_goldens_and_oracle():
    # walk_counts.csv fixes how many canonical even walks there are, so
    # distinct, even and strictly increasing lists of that length are the lists
    with open(GOLDEN_DIR / "walk_counts.csv") as fh:
        golden = {int(row["s"]): row for row in csv.DictReader(fh)}
    for s in range(6):
        for allow_loops, column in ((True, "even_walks"), (False, "loopless")):
            walks = enumerate_even_walks(s, allow_loops=allow_loops)
            labels = [w.labels for w in walks]
            assert len(walks) == int(golden[s][column])
            assert all(a < b for a, b in zip(labels, labels[1:]))
            assert all(w.is_even() and w.n_steps == 2 * s for w in walks)
            assert allow_loops or all(a != b for w in walks for a, b in w.steps())
        assert sum(1 for w in enumerate_even_walks(s) if is_tree_structure(w)) == int(golden[s]["tree_walks"])
    # independent oracle: filter every canonical closed sequence of <= 6 steps
    brute = sorted(w.labels for w in _closed_sequences(6) if w.is_even())
    ours = sorted(w.labels for s in range(4) for w in enumerate_even_walks(s))
    assert ours == brute


def test_tree_structure_matches_analyzer():
    def by_analyzer(w: Walk) -> bool:
        no_loop = all(a != b for a, b in w.steps())
        return no_loop and all(k == 1 for k in analyze(w).kappa_nu.values())

    sequences = _closed_sequences(6)
    assert len(sequences) == len(set(sequences))
    assert any(not w.is_even() for w in sequences)
    for w in [*sequences, *(w for s in range(6) for w in enumerate_even_walks(s))]:
        assert is_tree_structure(w) == by_analyzer(w), w.to_string()


def test_worked_example_structure():
    an = analyze(W14)
    assert [t for t in range(1, 15) if an.marked[t - 1]] == [1, 2, 3, 5, 6, 8, 10]
    assert an.kappa_nu == {1: 1, 2: 3, 3: 1, 4: 2, 5: 1}
    assert an.open_instants == (6, 10)
    assert an.mu_profile() == {1: 4, 3: 1}
    assert len(an.p_edges) == 1
    assert an.double_mu_count == 1
    assert an.q_layers == ()
    assert an.bts_instants == (6, 10)
    assert an.marked_arrivals[3] == (2,)
    assert an.imported_cells[3] == (7,)
    assert an.exit_degree[3] == 4 and an.max_exit_degree == 4
    assert str(an.theta) == "UUUDUUDUDUDDDD" and an.theta.max_height == 4
    # reduced walk keeps the cycle structure on the three inner vertices
    assert an.reduced.to_string() == "1,2,3,4,2,3,2,4,3,2,1"


def test_definition_remark_fragments():
    an = analyze(Walk((1, 2, 2, 1)))
    assert an.kappa_nu[2] == 2
    assert an.open_instants == (2,)
    an = analyze(Walk((1, 1, 1)))
    assert an.kappa_nu[1] == 2
    assert an.open_instants == ()
    an = analyze(Walk((1, 2, 3, 1, 2, 3, 1)))
    assert an.kappa_nu[1] == 2
    assert an.open_instants == (3,)


def test_reduction_examples():
    # tree walks reduce to the trivial walk
    for s in range(5):
        for w in enumerate_even_walks(s):
            if is_tree_structure(w):
                assert reduce_walk(w) == Walk((1,))
    # idempotence
    for s in range(5):
        for w in enumerate_even_walks(s):
            red = reduce_walk(w)
            assert reduce_walk(red) == red


def test_reduction_preserves_evenness_and_closure():
    for s in range(5):
        for w in enumerate_even_walks(s):
            red = reduce_walk(w)
            assert red.labels[0] == red.labels[-1] == 1
            assert red.is_even()


def test_walks_without_bts_reduce_to_trivial():
    for s in range(5):
        for w in enumerate_even_walks(s):
            an = analyze(w)
            if not an.bts_instants:
                assert an.reduced == Walk((1,))
                assert all(len(v) == 0 for v in an.imported_cells.values())


def test_structure_invariants_exhaustive():
    for s in range(5):
        for w in enumerate_even_walks(s):
            an = analyze(w)
            marked_count = sum(an.marked)
            assert marked_count == s
            assert all(an.kappa_mu[v] <= an.kappa_nu[v] for v in range(1, an.walk.n_vertices + 1))
            assert len(an.mu_edges) + len(an.p_edges) + sum(map(len, an.q_layers)) == s
            assert set(an.bts_instants) <= set(an.open_instants)
            assert an.theta is not None and an.theta.k == s


def test_structure_checks_exhaustive():
    for s in range(5):
        for w in enumerate_even_walks(s):
            an = analyze(w)
            assert verify_vertex_ledger(an)
            assert verify_cell_bounds(an)
            assert verify_exit_degree_tree_link(an)


def test_vertex_ledger_content():
    an = analyze(W14)
    assert verify_vertex_ledger(an)
    lab = W14.labels
    nonmarked_exits = sum(1 for t, m in enumerate(an.marked) if not m and lab[t] == 4)
    assert nonmarked_exits == 2 == len(an.marked_arrivals[4])
    p_part = sum(1 for _, head in an.p_edges if head == 4)
    q_part = sum(1 for layer in an.q_layers for t in layer if lab[t] == 4)
    assert an.kappa_mu[4] == 1 and p_part == 1 and q_part == 0


def test_cell_bounds_w14_numbers():
    an = analyze(W14)
    assert verify_cell_bounds(an)
    assert len(an.imported_cells[3]) == 1
    assert an.bts_total - an.bts_heads[3] == 2
    assert an.kappa_nu[3] == 1


def test_lemma_predicates_fail_when_a_bound_breaks():
    # W14 sits on several bounds: vertex 3 has 2 open attached edges against
    # min(2 kappa_nu, kappa_mu + deg_e) = 2, and tree_max = 3 with L = 2
    an = analyze(W14)
    assert verify_lemma_checks(an)
    open_edges = replace(an, max_open_attached={**an.max_open_attached, 3: 3})
    assert not verify_vertex_ledger(open_edges)
    # vertex 2: J = 4 > remote 0 + kappa 3, while Psi = 3 + 4 <= 2 * 3 + 2
    imported = replace(an, imported_cells={**an.imported_cells, 2: (1, 6, 10, 12)})
    assert not verify_cell_bounds(imported)
    # the root: Psi = 5 > 2 * 1 + 2, while J = 0 <= remote 2 + kappa 1
    primary = replace(an, marked_arrivals={**an.marked_arrivals, 1: (1, 2, 3, 4, 5)})
    assert not verify_cell_bounds(primary)
    # vertex 3: deg_e = 13 > tree_max 3 * (2 kappa 1 + L 2)
    exits = replace(an, exit_degree={**an.exit_degree, 3: 13})
    assert not verify_exit_degree_tree_link(exits)
    # both BTS instants sit at vertex 2, so its remote count is 0 and vertex 3's is 2:
    # unfiltered reduced arrivals at 2 may reach 0 + kappa 3, at 3 may reach 2 + kappa 1
    unfiltered = "cells bound holds for unfiltered reduced arrivals too"
    for v, arrivals, holds in ((2, 3, True), (2, 4, False), (3, 3, True), (3, 4, False)):
        padded = replace(an, reduced_nonmarked_arrivals={**an.reduced_nonmarked_arrivals, v: tuple(range(arrivals))})
        assert check_walk_lemmas(padded)[unfiltered] is holds


def test_bts_heads_are_counted_once_per_analysis():
    # W14's BTS instants 6 and 10 both sit at vertex 2
    an = analyze(W14)
    assert an.bts_heads == [0, 0, 2, 0, 0, 0]
    assert an.bts_heads is an.bts_heads  # both lemma checks read the one list
    # a copy with other instants counts its own heads
    assert replace(an, bts_instants=(6, 9)).bts_heads == [0, 0, 1, 1, 0, 0]
    assert an.bts_heads == [0, 0, 2, 0, 0, 0]


def test_report_json_stable():
    payload = report_to_json(analyze(W14))
    data = json.loads(payload)
    assert data["bts_instants"] == [6, 10]
    assert data["reduced_walk"] == "1,2,3,4,2,3,2,4,3,2,1"
    assert payload == report_to_json(analyze(W14))


def test_report_dict_keys_sorted():
    d = report_to_dict(analyze(W14))
    assert d["p_count"] == 1
    assert d["mu_instants"]["3->2"] == 10


def test_open_simple_intersection_realized_on_a_p_edge():
    # vertex 3 is a simple self-intersection whose closing arrival is open,
    # yet both its arrivals ride the same oriented edge (2,3): the second one
    # is a p-edge, so its mu-degree stays 1. The analysis must keep all the
    # invariants on this shape (it can only occur from s = 7 up).
    w = Walk((1, 2, 3, 4, 2, 3, 5, 2, 3, 4, 2, 5, 3, 2, 1))
    assert w.is_even()
    an = analyze(w)
    assert an.kappa_nu[3] == 2 and an.kappa_mu[3] == 1
    assert an.marked_arrivals[3] == (2, 8)
    assert 8 in an.open_by_vertex[3]
    assert len(an.p_edges) == 1
    assert verify_lemma_checks(an)

    from wignerlab.classes import classify_mu, classify_nu

    nu_sig = classify_nu(an)
    assert nu_sig.r == 1  # open simple in the nu classification
    mu_sig = classify_mu(an)
    assert mu_sig.r == 0  # but not a double-mu window
    assert mu_sig.mu == ((1, 4), (3, 1))


def test_double_mu_edge_walk():
    # both orientations of the frame edge {1,2} carry a last marked passage
    w = Walk((1, 2, 1, 3, 2, 1, 2, 3, 1))
    assert w.is_even()
    an = analyze(w)
    assert an.double_mu_count == 1
    assert verify_lemma_checks(an)


def verify_lemma_checks(an):
    return (
        verify_vertex_ledger(an)
        and verify_cell_bounds(an)
        and verify_exit_degree_tree_link(an)
    )


def test_reduction_confluent_under_random_order():
    # erasing backtracks in any order reaches the same canonical fixed point
    import random

    def reduce_random(walk, rng):
        seq = list(walk.labels)
        while True:
            marked = _marked_flags(tuple(seq))
            candidates = [
                t
                for t in range(1, len(seq) - 1)
                if marked[t - 1] and seq[t + 1] == seq[t - 1]
            ]
            if not candidates:
                break
            t = rng.choice(candidates)
            del seq[t : t + 2]
        return Walk.from_labels(seq)

    rng = random.Random(12345)
    pool = [w for s in range(5) for w in enumerate_even_walks(s)]
    pool.append(W14)
    pool.append(Walk((1, 2, 3, 4, 2, 3, 5, 2, 3, 4, 2, 5, 3, 2, 1)))
    for w in pool:
        expected = reduce_walk(w)
        for _ in range(3):
            assert reduce_random(w, rng) == expected


def _reduce_fixed_point(labels):
    """Erase the leftmost marked backtrack, recomputing every flag, until none remain."""
    seq = list(labels)
    step_ids = list(range(1, len(labels)))
    while True:
        marked = _marked_flags(tuple(seq))
        found = -1
        for t in range(1, len(seq) - 1):
            if marked[t - 1] and seq[t + 1] == seq[t - 1]:
                found = t
                break
        if found < 0:
            break
        del seq[found : found + 2]
        del step_ids[found - 1 : found + 1]
    return tuple(seq), tuple(step_ids)


def _closed_label_sequences(steps):
    """Every canonical closed label sequence of `steps` steps, loops included."""
    out = []

    def extend(seq, top):
        if len(seq) == steps + 1:
            if seq[-1] == 1:
                out.append(tuple(seq))
            return
        for x in range(1, top + 2):
            extend(seq + [x], max(top, x))

    extend([1], 1)
    return out


def test_one_pass_reduction_matches_fixed_point():
    cases = [w.labels for s in range(7) for w in enumerate_even_walks(s)]
    cases += [lab for steps in range(9) for lab in _closed_label_sequences(steps)]
    assert len(cases) == 70_331 + 5_296
    for lab in cases:
        marked = _marked_flags(lab)
        raw, step_ids = _reduce_raw(lab, marked)
        assert (raw, step_ids) == _reduce_fixed_point(lab), lab
        # the surviving steps keep their flags, as analyze assumes
        assert [marked[t - 1] for t in step_ids] == _marked_flags(raw)


# The classifiers before their one-sweep rewrite, kept as their oracle.


def oracle_classify_nu(an):
    r = 0
    p = 0
    for v, kappa in an.kappa_nu.items():
        if kappa != 2:
            continue
        arrivals = an.marked_arrivals[v]
        closing = arrivals[-1] if arrivals else None
        if closing is not None and closing in an.open_by_vertex[v]:
            r += 1
        elif v != ROOT and len(arrivals) == 2:
            lab = an.walk.labels
            if lab[arrivals[0] - 1] == lab[arrivals[1] - 1]:
                p += 1
    theta = tuple(an.theta.steps) if an.theta is not None else None
    root_open = bool(
        an.marked_arrivals[ROOT]
        and an.marked_arrivals[ROOT][-1] in an.open_by_vertex[ROOT]
    )
    return NuSignature(
        theta=theta,
        nu=tuple(sorted((k, c) for k, c in an.nu_profile().items() if c)),
        r=r,
        p=p,
        d=an.max_exit_degree,
        root_kappa=an.kappa_nu.get(ROOT, 1),
        root_open=root_open,
    )


def oracle_classify_mu(an):
    r = 0
    for v, kappa in an.kappa_nu.items():
        if kappa != 2 or an.kappa_mu[v] != 2:
            continue
        arrivals = an.marked_arrivals[v]
        if arrivals and arrivals[-1] in an.open_by_vertex[v]:
            r += 1
    theta = tuple(an.theta.steps) if an.theta is not None else None
    return MuSignature(
        theta=theta,
        mu=tuple(sorted((m, c) for m, c in an.mu_profile().items() if c)),
        p_count=len(an.p_edges),
        double_mu=an.double_mu_count,
        q_counts=tuple(map(len, an.q_layers)),
        r=r,
        d=an.max_exit_degree,
        max_kappa_nu=max(an.kappa_nu.values(), default=1),
    )


def test_classifiers_match_their_oracles():
    cases = [w.labels for s in range(7) for w in enumerate_even_walks(s)]
    n_even = len(cases)
    cases += [lab for steps in range(9) for lab in _closed_label_sequences(steps)]
    assert n_even == 70_331
    for lab in cases:
        an = analyze(Walk(lab))
        assert classify_nu(an) == oracle_classify_nu(an), lab
        assert classify_mu(an) == oracle_classify_mu(an), lab


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=5))
def test_random_trajectory_walk_invariants(body):
    # close an arbitrary trajectory and canonicalize; analysis invariants must
    # hold whether or not the walk is even
    traj = [0] + body + [0]
    walk = Walk.from_labels(traj)
    an = analyze(walk)
    n_steps = walk.n_steps
    assert sum(an.marked) + sum(1 for m in an.marked if not m) == n_steps
    assert sum(an.frame_passes.values()) == n_steps
    for v in range(1, walk.n_vertices + 1):
        assert an.kappa_mu[v] <= an.kappa_nu[v]
    if walk.is_even():
        assert sum(an.marked) * 2 == n_steps
        assert verify_vertex_ledger(an)
        assert verify_cell_bounds(an)


def analyze_oracle(walk: Walk) -> WalkAnalysis:
    """The structural analysis pass by pass, with dict tallies and rescans."""
    lab = walk.labels
    two_s = walk.n_steps
    marked = tuple(_marked_flags(lab))

    frame_passes: dict[tuple[int, int], int] = {}
    marked_arrivals: dict[int, list[int]] = {v: [] for v in range(1, walk.n_vertices + 1)}
    exit_degree: dict[int, int] = {v: 0 for v in range(1, walk.n_vertices + 1)}
    open_instants: list[int] = []
    open_by_vertex: dict[int, list[int]] = {v: [] for v in range(1, walk.n_vertices + 1)}
    directed_marked: dict[tuple[int, int], list[int]] = {}

    parity: dict[tuple[int, int], int] = {}
    open_count: dict[int, int] = {v: 0 for v in range(1, walk.n_vertices + 1)}
    max_open_attached: dict[int, int] = {v: 0 for v in range(1, walk.n_vertices + 1)}

    for t in range(1, two_s + 1):
        a, b = lab[t - 1], lab[t]
        e = (a, b) if a <= b else (b, a)
        is_marked = marked[t - 1]
        if is_marked:
            if open_count[b] > 0:
                open_instants.append(t)
                open_by_vertex[b].append(t)
            marked_arrivals[b].append(t)
            exit_degree[a] += 1
            directed_marked.setdefault((a, b), []).append(t)
        frame_passes[e] = frame_passes.get(e, 0) + 1
        delta = 1 if frame_passes[e] % 2 == 1 else -1
        open_count[a] += delta
        if b != a:
            open_count[b] += delta
        for v in (a, b) if b != a else (a,):
            if open_count[v] > max_open_attached[v]:
                max_open_attached[v] = open_count[v]

    kappa_nu = {
        v: len(marked_arrivals[v]) + (1 if v == 1 else 0)
        for v in range(1, walk.n_vertices + 1)
    }

    mu_edges: dict[tuple[int, int], int] = {}
    p_edges: dict[tuple[int, int], int] = {}
    q_layer_map: dict[int, list[int]] = {}
    for edge, instants in directed_marked.items():
        mu_edges[edge] = instants[-1]
        if len(instants) >= 2:
            p_edges[edge] = instants[-2]
        for depth, t in enumerate(reversed(instants[:-2]), start=1):
            q_layer_map.setdefault(depth, []).append(t)
    q_layers = tuple(
        tuple(sorted(q_layer_map[j])) for j in sorted(q_layer_map)
    )

    kappa_mu: dict[int, int] = {}
    for v in range(1, walk.n_vertices + 1):
        m = sum(1 for (_, head) in mu_edges if head == v)
        kappa_mu[v] = m + (1 if v == 1 else 0)

    raw, step_map = _reduce_raw(lab, marked)
    reduced = Walk.from_labels(raw)
    red_marked = [marked[t - 1] for t in step_map]
    bts: list[int] = []
    imported: dict[int, list[int]] = {v: [] for v in range(1, walk.n_vertices + 1)}
    nonmarked_red: dict[int, list[int]] = {v: [] for v in range(1, walk.n_vertices + 1)}
    for r in range(1, len(raw)):
        head = raw[r]
        if red_marked[r - 1]:
            if r < len(raw) - 1 and not red_marked[r]:
                bts.append(step_map[r - 1])
        else:
            nonmarked_red[head].append(step_map[r - 1])
            if r < len(raw) - 1 and red_marked[r]:
                imported[head].append(step_map[r - 1])

    theta = None
    if walk.is_even():
        theta = DyckPath(tuple(1 if m else -1 for m in marked))

    return WalkAnalysis(
        walk=walk,
        marked=marked,
        theta=theta,
        frame_passes=frame_passes,
        marked_arrivals={v: tuple(ts) for v, ts in marked_arrivals.items()},
        kappa_nu=kappa_nu,
        open_instants=tuple(open_instants),
        open_by_vertex={v: tuple(ts) for v, ts in open_by_vertex.items()},
        exit_degree=exit_degree,
        max_exit_degree=max(exit_degree.values(), default=0),
        mu_edges=mu_edges,
        p_edges=p_edges,
        q_layers=q_layers,
        kappa_mu=kappa_mu,
        double_mu_count=sum(1 for a, b in mu_edges if a < b and (b, a) in mu_edges),
        reduced=reduced,
        bts_instants=tuple(bts),
        imported_cells={v: tuple(ts) for v, ts in imported.items()},
        reduced_nonmarked_arrivals={v: tuple(ts) for v, ts in nonmarked_red.items()},
        max_open_attached=max_open_attached,
    )


def assert_same_analysis(got: WalkAnalysis, want: WalkAnalysis) -> None:
    for f in fields(WalkAnalysis):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a == b and type(a) is type(b), (want.walk.to_string(), f.name)
        if isinstance(b, dict):
            assert list(a.items()) == list(b.items()), (want.walk.to_string(), f.name)
    assert got == want


def test_analyze_matches_oracle_on_every_even_walk():
    walks = [w for s in range(6) for w in enumerate_even_walks(s)]
    assert len(walks) == 5_299
    for w in walks:
        assert_same_analysis(analyze(w), analyze_oracle(w))


def _fragments() -> list[Walk]:
    """Textbook fragments and every closed label sequence of at most 8 steps, odd ones included."""
    fragments = [
        W14,
        Walk((1, 2, 3, 2, 1)),
        Walk((1, 2, 2, 1)),
        Walk((1, 1, 1)),
        Walk((1, 2, 3, 1, 2, 3, 1)),
        Walk((1, 2, 3, 4, 2, 3, 5, 2, 3, 4, 2, 5, 3, 2, 1)),
        Walk((1, 2, 1, 3, 2, 1, 2, 3, 1)),
        Walk((1, 2, 3, 1)),
        Walk((1,)),
    ]
    return fragments + [Walk(lab) for steps in range(9) for lab in _closed_label_sequences(steps)]


def test_analyze_matches_oracle_on_fragments():
    for w in _fragments():
        assert_same_analysis(analyze(w), analyze_oracle(w))
    # non-even walks project to no Dyck path
    assert analyze(Walk((1, 2, 2, 1))).theta is None
    assert analyze(Walk((1, 2, 3, 1))).theta is None
    assert report_to_json(analyze(W14)) == report_to_json(analyze_oracle(W14))


def test_analyze_builds_only_what_validation_accepts():
    # analyze skips validation on its reduced walk and its Dyck path; both
    # must equal what the validating constructors build from the same data
    walks = [w for s in range(7) for w in enumerate_even_walks(s)]
    assert len(walks) == 70_331
    for w in walks + _fragments():
        an = analyze(w)
        assert Walk(an.reduced.labels) == an.reduced
        assert (an.theta is not None) == w.is_even()
        if an.theta is not None:
            assert DyckPath(an.theta.steps) == an.theta


# Oracles: the walk lemmas with Counter tallies of the BTS heads and a
# vertex list, against the per-vertex dicts and per-label lists of walks.py.


def vertex_ledger_oracle(an):
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
    for v in list(range(1, an.walk.n_vertices + 1)):
        arrivals = len(an.marked_arrivals[v])
        mu_part = an.kappa_mu[v] - (1 if v == 1 else 0)
        if nonmarked_exits[v] != arrivals or mu_part + pq_arrivals[v] != arrivals:
            return False
        if an.max_open_attached[v] > min(2 * an.kappa_nu[v], an.kappa_mu[v] + an.exit_degree[v]):
            return False
    return True


def cell_bounds_oracle(an):
    L = an.bts_total
    heads = Counter(an.walk.labels[t] for t in an.bts_instants)
    for v in list(range(1, an.walk.n_vertices + 1)):
        j = len(an.imported_cells[v])
        kappa = an.kappa_nu[v]
        if j > L - heads[v] + kappa or len(an.marked_arrivals[v]) + j > 2 * kappa + L:
            return False
    return True


def tree_link_oracle(an):
    if an.theta is None:
        return True
    tree_max = max(exit_degree_profile(an.theta.steps))
    L = an.bts_total
    return all(d <= tree_max * (2 * an.kappa_nu[v] + L) for v, d in an.exit_degree.items())


def walk_lemmas_oracle(an):
    s = an.walk.s
    n_marked = sum(an.marked)
    verts = list(range(1, an.walk.n_vertices + 1))
    heads = Counter(an.walk.labels[t] for t in an.bts_instants)
    return {
        "marked/non-marked balance": n_marked == s and an.walk.n_steps - n_marked == s,
        "kappa_mu <= kappa_nu": all(an.kappa_mu[v] <= an.kappa_nu[v] for v in verts),
        "mu/p/q partition of marked steps": len(an.mu_edges) + len(an.p_edges) + sum(len(layer) for layer in an.q_layers) == s,
        "BTS instants are open self-intersections": set(an.bts_instants) <= set(an.open_instants),
        "walk projects to a Dyck path": an.theta is not None and an.theta.k == s,
        "vertex in/out ledger and open-edge bounds": vertex_ledger_oracle(an),
        "imported-cell count bounds": cell_bounds_oracle(an),
        "cells bound holds for unfiltered reduced arrivals too": all(
            len(an.reduced_nonmarked_arrivals[v]) <= an.bts_total - heads[v] + an.kappa_nu[v]
            for v in verts
        ),
        "exit clusters fit the cell bound on the underlying tree": tree_link_oracle(an),
    }


def assert_lemmas_match_oracles(an):
    where = an.walk.to_string()
    want = walk_lemmas_oracle(an)
    assert check_walk_lemmas(an) == want, where
    assert verify_vertex_ledger(an) is want["vertex in/out ledger and open-edge bounds"], where
    assert verify_cell_bounds(an) is want["imported-cell count bounds"], where
    assert verify_exit_degree_tree_link(an) is want["exit clusters fit the cell bound on the underlying tree"], where


def test_walk_lemmas_match_oracles_on_every_even_walk():
    count = 0
    for s in range(7):
        for w in enumerate_even_walks(s):
            assert_lemmas_match_oracles(analyze(w))
            count += 1
    assert count == 70_331


def test_walk_lemmas_match_oracles_where_they_fail():
    # odd closed sequences break the ledger and the balance, and one more
    # arrival or open edge at one vertex pushes an even walk over a bound
    for steps in range(9):
        for lab in _closed_label_sequences(steps):
            assert_lemmas_match_oracles(analyze(Walk(lab)))
    broken = 0
    for s in range(5):
        for w in enumerate_even_walks(s):
            an = analyze(w)
            for v in range(1, an.walk.n_vertices + 1):
                for name in ("imported_cells", "marked_arrivals", "reduced_nonmarked_arrivals"):
                    cells = getattr(an, name)
                    padded = replace(an, **{name: {**cells, v: cells[v] + (0,) * (1 + an.kappa_nu[v])}})
                    assert_lemmas_match_oracles(padded)
                    broken += not all(check_walk_lemmas(padded).values())
                for name in ("max_open_attached", "exit_degree"):
                    bumped = replace(an, **{name: {**getattr(an, name), v: 4 * s + 2}})
                    assert_lemmas_match_oracles(bumped)
                    broken += not all(check_walk_lemmas(bumped).values())
    assert broken > 0


# The class census reads the lemmas and the class keys of a block of walks
# from arrays (`classes._walk_arrays`, then `classes._read_walks`); the
# per-walk analysis is its oracle, intact and perturbed alike.


def _census_arrays(label_rows):
    return classes._walk_arrays(np.array(label_rows, dtype=np.int8).reshape(len(label_rows), -1))


def _census_verdicts(arrays):
    verdicts, _, _ = classes._read_walks(arrays)
    return [dict(zip(WALK_LEMMAS, held)) for held in verdicts.tolist()]


def test_census_arrays_match_the_analysis_on_closed_sequences():
    # odd and uneven sequences too, where four of the lemmas fail
    failing = Counter()
    for steps in range(9):
        seqs = _closed_label_sequences(steps)
        verdicts, nu_rows, mu_rows = classes._read_walks(_census_arrays(seqs))
        for lab, held, nu_row, mu_row in zip(seqs, verdicts.tolist(), nu_rows.tolist(), mu_rows.tolist()):
            an = analyze(Walk(lab))
            want = check_walk_lemmas(an)
            assert dict(zip(WALK_LEMMAS, held)) == want, lab
            assert classes._nu_signature(nu_row, steps) == classify_nu(an), lab
            assert classes._mu_signature(mu_row, steps) == classify_mu(an), lab
            failing.update(label for label, ok in want.items() if not ok)
            failing["sequences"] += 1
    assert failing == {
        "sequences": 5_296,
        "marked/non-marked balance": 4_802,
        "mu/p/q partition of marked steps": 4_539,
        "walk projects to a Dyck path": 4_802,
        "vertex in/out ledger and open-edge bounds": 4_802,
    }


def test_census_arrays_match_the_analysis_where_lemmas_fail():
    # the perturbations of test_walk_lemmas_match_oracles_where_they_fail, on
    # both forms, and two more that break the lemmas no sequence above breaks:
    # kappa_nu one below kappa_mu, and no open instant at all
    broken = Counter()

    def compare(arrays, analyses):
        for an, held in zip(analyses, _census_verdicts(arrays)):
            if an is not None:
                want = check_walk_lemmas(an)
                assert held == want, an.walk.to_string()
                broken.update(label for label, ok in want.items() if not ok)

    for s in range(5):
        walks_s = enumerate_even_walks(s)
        arrays = _census_arrays([w.labels for w in walks_s])
        analyses = [analyze(w) for w in walks_s]
        compare(arrays._replace(opened=np.zeros_like(arrays.opened)), [replace(an, open_instants=()) for an in analyses])
        for v in range(1, s + 2):
            at_v = [an if an.walk.n_vertices >= v else None for an in analyses]
            for name, field in (
                ("imported_cells", "imported"),
                ("marked_arrivals", "primary"),
                ("reduced_nonmarked_arrivals", "reduced_nonmarked"),
            ):
                padded = getattr(arrays, field).copy()
                padded[:, v] += 1 + arrays.kappa_nu[:, v]
                compare(
                    arrays._replace(**{field: padded}),
                    [an and replace(an, **{name: {**getattr(an, name), v: getattr(an, name)[v] + (0,) * (1 + an.kappa_nu[v])}}) for an in at_v],
                )
            for name, field in (("max_open_attached", "max_open"), ("exit_degree", "exits")):
                bumped = getattr(arrays, field).copy()
                bumped[:, v] = 4 * s + 2
                compare(
                    arrays._replace(**{field: bumped}),
                    [an and replace(an, **{name: {**getattr(an, name), v: 4 * s + 2}}) for an in at_v],
                )
            lowered = arrays.kappa_nu.copy()
            has_v = np.array([an is not None for an in at_v])
            lowered[has_v, v] = (arrays.edges[has_v, :, v] > 0).sum(1) + (v == ROOT) - 1
            compare(
                arrays._replace(kappa_nu=lowered),
                [an and replace(an, kappa_nu={**an.kappa_nu, v: an.kappa_mu[v] - 1}) for an in at_v],
            )
    assert set(WALK_LEMMAS) - set(broken) == {
        "marked/non-marked balance",
        "mu/p/q partition of marked steps",
        "walk projects to a Dyck path",
    }
