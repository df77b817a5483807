import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerlab import suites
from wignerlab.dyck import (
    DyckPath,
    _dyck_dfs,
    _dyck_halves,
    catalan,
    count_trees_root_degree,
    count_trees_with_exit_degree_eq,
    count_trees_with_exit_degree_ge,
    dyck_to_tree,
    enumerate_dyck,
    excursion_functional,
    exit_degree_profile,
    height_counts,
    exit_degree_tail_bound,
    mean_max_height,
    paths_with_max_height_le,
    tree_to_dyck,
)
from wignerlab.errors import EnumerationCeilingError


def test_catalan_values():
    assert catalan(0) == 1
    assert catalan(3) == 5
    assert catalan(10) == 16796
    assert catalan(14) == 2674440


def test_catalan_main_recurrence():
    for k in range(1, 16):
        assert catalan(k) == sum(catalan(j) * catalan(k - 1 - j) for j in range(k))


def test_enumeration_counts_and_order():
    assert [str(p) for p in enumerate_dyck(1)] == ["UD"]
    assert len(enumerate_dyck(2)) == 2
    paths5 = enumerate_dyck(5)
    assert len(paths5) == catalan(5) == 42
    assert len(set(paths5)) == 42
    # lexicographic with U before D
    keys = [tuple(0 if s == 1 else 1 for s in p.steps) for p in paths5]
    assert keys == sorted(keys)


def test_enumeration_ceiling():
    with pytest.raises(EnumerationCeilingError):
        enumerate_dyck(15)


@pytest.mark.parametrize("k", range(8))
def test_enumeration_order_matches_filtered_product(k):
    # independent oracle: every +-1 sequence of length 2k whose prefix sums
    # stay >= 0 and end at 0, in the product's order (+1 before -1)
    expected = [
        seq
        for seq in itertools.product((1, -1), repeat=2 * k)
        if sum(seq) == 0 and min(itertools.accumulate(seq, initial=0)) >= 0
    ]
    assert [p.steps for p in enumerate_dyck(k)] == expected


@pytest.mark.parametrize("k, error", [(15, EnumerationCeilingError), (-1, ValueError)])
def test_search_refuses_before_any_leaf(k, error):
    def leaf(*args):
        raise AssertionError("a leaf was called")

    with pytest.raises(error):
        _dyck_dfs(k, leaf)
    with pytest.raises(error):
        _dyck_halves(k)


def recursive_dyck_dfs(k, leaf):
    """Oracle: one recursion over whole paths with a live step list, up-steps first."""
    steps = []

    def rec(ups, downs):
        if ups == k and downs == k:
            leaf(steps)
            return
        if ups < k:
            steps.append(1)
            rec(ups + 1, downs)
            steps.pop()
        if downs < ups:
            steps.append(-1)
            rec(ups, downs + 1)
            steps.pop()

    rec(0, 0)


@pytest.mark.parametrize("k", range(14))
def test_search_matches_recursive_oracle(k):
    expected = []
    recursive_dyck_dfs(k, lambda steps: expected.append(tuple(steps)))
    seen = []
    _dyck_dfs(k, seen.append)
    assert seen == expected
    assert all(type(steps) is tuple for steps in seen)


def test_halves_count_every_path_of_the_search():
    # criterion 1 multiplies the halves' group sizes; the joined search emits every path
    for k in range(13):
        leaves = 0

        def leaf(steps):
            nonlocal leaves
            leaves += 1

        _dyck_dfs(k, leaf)
        assert suites._count_dyck_paths(k) == leaves


def test_path_validation():
    with pytest.raises(ValueError):
        DyckPath((1, 1, -1))  # unbalanced
    with pytest.raises(ValueError):
        DyckPath((-1, 1))  # dips below zero


def test_bijection_examples():
    t = dyck_to_tree(DyckPath((1, -1)))
    assert len(t.children) == 1 and t.children[0].children == ()
    chain = dyck_to_tree(DyckPath((1, 1, -1, -1)))
    assert len(chain.children) == 1 and len(chain.children[0].children) == 1
    cherry = dyck_to_tree(DyckPath((1, -1, 1, -1)))
    assert len(cherry.children) == 2


@pytest.mark.parametrize("k", range(9))
def test_bijection_roundtrip(k):
    for p in enumerate_dyck(k):
        tree = dyck_to_tree(p)
        assert tree.edge_count == k
        assert tree_to_dyck(tree) == p
        assert sorted(tree.exit_degrees()) == sorted(exit_degree_profile(p.steps))


def test_root_degree_counts():
    # brute force over trees
    for s in range(9):
        from collections import Counter

        hist = Counter(exit_degree_profile(p.steps)[-1] for p in enumerate_dyck(s))
        for d in range(s + 1):
            assert count_trees_root_degree(s, d) == hist.get(d, 0)
    assert count_trees_root_degree(2, 2) == 1  # the cherry
    assert count_trees_root_degree(5, 7) == 0


def test_root_degree_recurrence():
    for s in range(2, 41):
        assert count_trees_root_degree(s, 2) == catalan(s - 1)
        for d in range(2, s + 1):
            prev = count_trees_root_degree(s - 1, d - 2) if s >= 1 else 0
            assert count_trees_root_degree(s, d) == count_trees_root_degree(s, d - 1) - prev
    for s in range(41):
        assert sum(count_trees_root_degree(s, d) for d in range(s + 1)) == catalan(s)


def test_exit_degree_tail_counts():
    assert count_trees_with_exit_degree_ge(2, 2) == 1
    assert count_trees_with_exit_degree_eq(3, 3) == 1
    for s in range(1, 41):
        assert count_trees_with_exit_degree_ge(s, 1) == catalan(s)


def test_exit_degree_tail_bound_dominates():
    for s in range(2, 41):
        for d in range(2, s + 1):
            ge = count_trees_with_exit_degree_ge(s, d)
            eq = count_trees_with_exit_degree_eq(s, d)
            assert eq <= ge <= exit_degree_tail_bound(s, d)
    assert exit_degree_tail_bound(2, 2) == 10
    with pytest.raises(ValueError):
        exit_degree_tail_bound(4, 1)


def test_closed_forms_match_enumeration():
    from collections import Counter

    for s in range(11):
        max_hist: Counter = Counter()
        has_hist: Counter = Counter()
        root_hist: Counter = Counter()
        for p in enumerate_dyck(s):
            degrees = exit_degree_profile(p.steps)
            max_hist[max(degrees)] += 1
            has_hist.update(set(degrees))
            root_hist[degrees[-1]] += 1
        for d in range(s + 2):
            ge = sum(c for m, c in max_hist.items() if m >= d)
            assert count_trees_with_exit_degree_ge(s, d) == ge, (s, d)
            assert count_trees_with_exit_degree_eq(s, d) == has_hist[d], (s, d)
            assert count_trees_root_degree(s, d) == root_hist[d], (s, d)


def _transfer_matrix_le(k: int, h: int) -> int:
    cur = [0] * (h + 1)
    cur[0] = 1
    for _ in range(2 * k):
        nxt = [0] * (h + 1)
        for y, c in enumerate(cur):
            if not c:
                continue
            if y + 1 <= h:
                nxt[y + 1] += c
            if y - 1 >= 0:
                nxt[y - 1] += c
        cur = nxt
    return cur[0]


def test_height_counts_against_enumeration_and_transfer_matrix():
    for k in range(1, 9):
        from collections import Counter

        hist = Counter(p.max_height for p in enumerate_dyck(k))
        counts = height_counts(k)
        for m in range(1, k + 1):
            assert counts[m] == hist.get(m, 0)
    for k in (3, 10, 37, 120):
        for h in range(0, min(k, 25) + 1):
            assert paths_with_max_height_le(k, h) == _transfer_matrix_le(k, h)
    for k in (1, 5, 40, 300):
        assert sum(height_counts(k)) == catalan(k)


def test_excursion_functional_values():
    assert excursion_functional(7, 0.0) == 1.0
    expect = (math.exp(2 / math.sqrt(2)) + math.exp(1 / math.sqrt(2))) / 2
    assert excursion_functional(2, 1.0) == pytest.approx(expect, rel=1e-13)
    # brute force over all paths
    for k in (3, 6):
        for tau in (0.5, 1.7):
            brute = sum(
                math.exp(tau * p.max_height / math.sqrt(k)) for p in enumerate_dyck(k)
            ) / catalan(k)
            assert excursion_functional(k, tau) == pytest.approx(brute, rel=1e-12)


def test_excursion_monotonicity():
    taus = (0.1, 0.5, 1.0, 2.0)
    vals = [excursion_functional(80, t) for t in taus]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    ks = (50, 100, 200, 400)
    vals_k = [excursion_functional(k, 1.0) for k in ks]
    assert all(a <= b for a, b in zip(vals_k, vals_k[1:]))


def test_mean_max_height_limit():
    ratio = mean_max_height(2000) / math.sqrt(2000)
    assert abs(ratio - math.sqrt(math.pi)) / math.sqrt(math.pi) < 0.02
    # the ratio converges slowly because of the lattice offset
    # E H_k = sqrt(pi k) - 3/2 + o(1) (de Bruijn, Knuth & Rice 1972)
    errs = [abs(mean_max_height(k) - (math.sqrt(math.pi * k) - 1.5)) for k in (200, 400, 2000)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.03


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.data())
def test_random_path_heights_consistent(k, data):
    # build a random valid Dyck path step by step
    steps = []
    ups = downs = 0
    while ups + downs < 2 * k:
        can_up = ups < k
        can_down = downs < ups
        if can_up and can_down:
            step = data.draw(st.sampled_from((1, -1)))
        elif can_up:
            step = 1
        else:
            step = -1
        steps.append(step)
        ups += step == 1
        downs += step == -1
    p = DyckPath(tuple(steps))
    assert p.k == k
    heights = p.heights()
    assert heights[0] == heights[-1] == 0
    assert min(heights) >= 0
    assert p.max_height == max(heights)
    assert len(exit_degree_profile(p.steps)) == k + 1


def _double_reflection_le(k, h, row):
    """The strip count as a sum over reflections j, each term two binomials of row = C(2k, .)."""
    if h < 0:
        return 1 if k == 0 else 0
    if h >= k:
        return catalan(k)
    span = k // (h + 2) + 1
    return sum(
        (row[i] if 0 <= i <= 2 * k else 0) - (row[i - 1] if 0 < i <= 2 * k + 1 else 0)
        for i in (k + j * (h + 2) for j in range(-span, span + 1))
    )


def test_height_strip_is_the_double_reflection_sum():
    for k in [*range(61), 200, 400, 2000]:
        row = [math.comb(2 * k, i) for i in range(2 * k + 1)]
        for h in range(-1, k + 2):
            assert paths_with_max_height_le(k, h) == _double_reflection_le(k, h, row), (k, h)


def test_height_counts_refuse_a_negative_k():
    with pytest.raises(ValueError, match="nonnegative"):
        height_counts(-1)
    assert height_counts(0) == (1,)
