from fractions import Fraction
from math import comb

import pytest

from wignerlab import dyck, series, suites
from wignerlab.dyck import catalan
from wignerlab.series import (
    Series,
    brute_force_same_cluster_pairs,
    catalan_gf,
    check_catalan_identities,
    coefficient_table,
    invsqrt_one_minus_4t,
    n2_count,
    n2_series,
    nm_bound,
    nm_count,
)


def n2_closed_form_shifted(order: int) -> Series:
    """(1-3t)/sqrt(1-4t) + (2t-1) phi(t), which equals t * n2_series(t)."""
    inv = invsqrt_one_minus_4t(order)
    phi = catalan_gf(order)
    one_minus_3t = Series((Fraction(1), Fraction(-3)) + (Fraction(0),) * (order - 1))
    two_t_minus_1 = Series((Fraction(-1), Fraction(2)) + (Fraction(0),) * (order - 1))
    return one_minus_3t * inv + two_t_minus_1 * phi


def test_series_arithmetic_exact():
    a = Series((Fraction(1), Fraction(2), Fraction(3)))
    b = Series((Fraction(0), Fraction(1), Fraction(1)))
    assert (a + b).coeffs == (Fraction(1), Fraction(3), Fraction(4))
    assert (a * b).coeffs == (Fraction(0), Fraction(1), Fraction(3))
    assert a.shift(1).coeffs == (Fraction(0), Fraction(1), Fraction(2))
    assert a.derivative().coeffs == (Fraction(2), Fraction(6))


def test_catalan_identities_to_order_40():
    ids = check_catalan_identities(40)
    assert ids["t_phi_sq"] and ids["t_phi_prime"]


def test_invsqrt_coefficients():
    inv = invsqrt_one_minus_4t(12)
    assert inv[3] == 20 == 4 * catalan(3)
    for k in range(13):
        assert inv[k] == (k + 1) * catalan(k)


def test_phi_constant_term():
    assert catalan_gf(5)[0] == 1


def test_n2_counts():
    assert n2_count(0) == 0 and n2_count(1) == 0
    assert n2_count(2) == 1
    assert n2_count(3) == 6
    for s in range(11):
        assert n2_count(s) == brute_force_same_cluster_pairs(s)


def test_oracles_build_no_dyck_path(monkeypatch):
    # criterion 1's counts and the same-cluster brute force read arrays of steps
    def no_paths(steps):
        raise AssertionError("a DyckPath was built")

    monkeypatch.setattr(dyck, "DyckPath", no_paths)
    with pytest.raises(AssertionError):
        dyck.enumerate_dyck(1)
    assert suites.criterion_1_catalan().passed
    for s in range(11):
        assert brute_force_same_cluster_pairs(s) == n2_count(s)


def test_brute_force_matches_tree_exit_degrees():
    # each tree's degrees from its built PlaneTree, not from the stack run over all paths at once
    for s in range(10):
        degrees = [dyck.dyck_to_tree(p).exit_degrees() for p in dyck.enumerate_dyck(s)]
        for m in range(5):
            expected = sum(comb(d, m) for tree in degrees for d in tree if d >= m)
            assert brute_force_same_cluster_pairs(s, m) == expected


def test_brute_force_refuses_negative_m(monkeypatch):
    def no_search(k):
        raise AssertionError("the Dyck search started")

    monkeypatch.setattr(series, "_dyck_halves", no_search)
    with pytest.raises(ValueError, match="m must be >= 0"):
        brute_force_same_cluster_pairs(4, -1)


def test_n2_series_and_shifted_closed_form():
    ns = n2_series(12)
    for s in range(13):
        assert ns[s] == n2_count(s)
    shifted = n2_closed_form_shifted(12)
    assert shifted[0] == 0
    for k in range(12):
        assert shifted[k + 1] == ns[k]


def test_nm_counts():
    for s in range(2, 11):
        assert nm_count(2, s) == n2_count(s)
    assert nm_count(3, 3) == 1
    for m, s_max in ((3, 8), (4, 8), (5, 10)):
        for s in range(m, s_max + 1):
            assert nm_count(m, s) == brute_force_same_cluster_pairs(s, m)


def convolution_nm(m: int, s: int) -> int:
    """The paper's n_m: sum_(u+v_1+..+v_(2m-1)=s-m) (2u+1) t_u t_(v_1) ... t_(v_(2m-1)), in integers."""
    if s < m:
        return 0
    order = s - m
    prod = [(2 * u + 1) * catalan(u) for u in range(order + 1)]
    for _ in range(2 * m - 1):
        prod = [sum(prod[i] * catalan(j - i) for i in range(j + 1)) for j in range(order + 1)]
    return prod[order]


def test_nm_count_is_the_convolution():
    for m in range(2, 7):
        for s in range(15):
            assert nm_count(m, s) == convolution_nm(m, s), (m, s)


def test_nm_bound():
    for m in range(2, 6):
        for s in range(m, 13):
            assert nm_count(m, s) <= nm_bound(m, s)


def test_coefficient_table():
    rows = coefficient_table(6)
    assert rows[3]["catalan"] == "5"
    assert rows[3]["inv_sqrt_1_minus_4t"] == "20"
    assert rows[3]["n2"] == "6"


def test_n2_integrality_guard():
    # the closed form must be integral for every s; spot a large one
    assert isinstance(n2_count(40), int)
