import ast
import inspect
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from wignerlab import classes
from wignerlab.classes import (
    MuSignature,
    NuSignature,
    census_csv_rows,
    classify_mu,
    classify_nu,
    exact_class_size,
    lemma_failures,
    mu_bound,
    mu_census,
    mu_domination_report,
    nu_census,
    nu_domination_report,
    psi_bound,
    ss_bound,
    weight_bound_check,
)
from wignerlab.errors import BoundPreconditionError
from wignerlab.walks import (
    Walk,
    analyze,
    enumerate_even_walks,
    verify_cell_bounds,
    verify_exit_degree_tree_link,
    verify_vertex_ledger,
)

W14 = Walk((1, 2, 3, 4, 3, 5, 2, 3, 4, 3, 2, 5, 3, 2, 1))


def test_walk_checks_take_one_analysis():
    # each check reads the walk as an.walk, so no walk can meet the analysis of another
    checks = (verify_vertex_ledger, verify_cell_bounds, verify_exit_degree_tree_link, classify_nu, classify_mu)
    assert {check.__name__: list(inspect.signature(check).parameters) for check in checks} == {
        check.__name__: ["an"] for check in checks
    }
    assert list(inspect.signature(weight_bound_check).parameters) == ["an", "spec"]
    src = Path(classes.__file__).parent
    takes_analysis = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and "analysis" in [arg.arg for arg in node.args.args]
    ]
    assert not takes_analysis


def test_psi_examples():
    assert psi_bound(3, {}) == (Fraction(1), Fraction(1))
    assert psi_bound(3, {2: 1}) == (Fraction(3), Fraction(9, 2))
    assert psi_bound(4, {2: 2}) == (Fraction(3), Fraction(32))


def test_psi_exact_below_bound():
    for s in range(1, 9):
        for nu in ({2: 1}, {2: 2}, {3: 1}, {2: 1, 3: 1}):
            if sum(k * c for k, c in nu.items()) > s:
                continue
            exact, bound = psi_bound(s, nu)
            assert exact <= bound


def test_psi_infeasible_raises():
    with pytest.raises(BoundPreconditionError):
        psi_bound(3, {2: 2})


def test_classify_examples():
    sig = classify_nu(analyze(Walk((1, 2, 2, 1))))
    assert sig.nu == ((2, 1),) and sig.r == 1 and sig.p == 0

    sig14 = classify_nu(analyze(W14))
    assert sig14.nu == ((2, 1), (3, 1))
    assert sig14.r == 0 and sig14.p == 1  # the double edge 3->4 is same-oriented

    mu14 = classify_mu(analyze(W14))
    assert mu14.mu == ((1, 4), (3, 1))
    assert mu14.p_count == 1 and mu14.double_mu == 1 and mu14.q_counts == ()
    assert mu14.r == 0

    tree = classify_nu(analyze(Walk((1, 2, 3, 2, 1))))
    assert tree.nu == () and tree.r == 0 and tree.p == 0


def test_ss_bound_spot_values():
    # nu_2 = 1 open: the 6 s H factor
    sig = NuSignature(theta=(1, 1, 1, -1, -1, -1), nu=((2, 1),), r=1, p=0, d=2)
    assert ss_bound(3, sig, h_theta=3) == Fraction(6 * 3 * 3)
    # empty profile gives 1
    sig0 = NuSignature(theta=(1, -1), nu=(), r=0, p=0, d=1)
    assert ss_bound(1, sig0, h_theta=1) == 1


def test_mu_bound_spot_values():
    sig = MuSignature(
        theta=(1,) * 7 + (-1,) * 7 + (1, -1) * 3,
        mu=((1, 5), (2, 1)),
        p_count=0,
        double_mu=0,
        q_counts=(),
        r=1,
        d=2,
        max_kappa_nu=2,
    )
    # mu_2 = 1 with r = 1: factor 2 s H times Upsilon 3^r
    s = 13
    assert mu_bound(s, sig, k0=4) == Fraction(2 * s * DyckH(sig.theta) * 3)


def DyckH(theta):
    h = best = 0
    for st in theta:
        h += st
        best = max(best, h)
    return best


def test_mu_bound_all_zero_signature():
    sig = MuSignature(
        theta=(1, -1) * 3, mu=((1, 4),), p_count=0, double_mu=0, q_counts=(), r=0, d=1,
        max_kappa_nu=1,
    )
    assert mu_bound(3, sig, k0=4) == 1


def test_mu_bound_refusals():
    sig = MuSignature(
        theta=(1, -1), mu=((2, 1),), p_count=0, double_mu=0, q_counts=(), r=0, d=1, max_kappa_nu=2
    )
    with pytest.raises(BoundPreconditionError):
        mu_bound(1, sig, k0=4)  # |mu|_1 = 1 > (s-1)/6 = 0
    sig2 = MuSignature(
        theta=None, mu=((1, 3),), p_count=0, double_mu=0, q_counts=(), r=0, d=2, max_kappa_nu=9
    )
    with pytest.raises(BoundPreconditionError):
        mu_bound(20, sig2, k0=4)  # kappa_nu cap exceeded


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_domination_exhaustive(s):
    for row in nu_domination_report(s):
        assert row.bound is None or row.exact <= row.bound, row.signature
    for row in mu_domination_report(s, k0=4):
        assert row.bound is None or row.exact <= row.bound, row.signature


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_census_partitions_walks(s):
    total = len(enumerate_even_walks(s))
    assert sum(nu_census(s).values()) == total
    assert sum(mu_census(s).values()) == total


def test_exact_class_size_examples():
    # the aggregated no-self-intersection class collects the tree walks
    sig = NuSignature(theta=None, nu=(), r=0, p=0, d=4)
    assert exact_class_size(4, sig) == 14
    # an infeasible profile matches nothing
    sig_bad = NuSignature(theta=None, nu=((2, 3),), r=0, p=0, d=4)
    assert exact_class_size(4, sig_bad) == 0
    # the worked walk's mu class is realized (witness membership)
    mu14 = classify_mu(analyze(W14))
    assert mu14.mu == ((1, 4), (3, 1))  # nonempty class by witness


# The per-walk loops the census replaced, kept as its oracle.


def oracle_census(s):
    nu, mu = {}, {}
    for walk in enumerate_even_walks(s):
        an = analyze(walk)
        sig = classify_nu(an)
        nu[sig] = nu.get(sig, 0) + 1
        sig = classify_mu(an)
        mu[sig] = mu.get(sig, 0) + 1
    return nu, mu


def oracle_class_size(s, signature):
    total = 0
    for walk in enumerate_even_walks(s):
        if isinstance(signature, NuSignature):
            sig = classify_nu(analyze(walk))
            if (
                (signature.theta is None or sig.theta == signature.theta)
                and sig.nu == signature.nu
                and sig.r == signature.r
                and sig.p == signature.p
                and sig.d <= signature.d
            ):
                total += 1
        else:
            sig = classify_mu(analyze(walk))
            if (
                (signature.theta is None or sig.theta == signature.theta)
                and sig.mu == signature.mu
                and sig.p_count == signature.p_count
                and sig.double_mu == signature.double_mu
                and sig.q_counts == signature.q_counts
                and sig.r == signature.r
                and sig.d == signature.d
            ):
                total += 1
    return total


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_census_matches_per_walk_oracle(s):
    nu, mu = oracle_census(s)
    assert nu_census(s) == nu
    assert mu_census(s) == mu


def oracle_lemma_failures(s):
    """Walks breaking each lemma, from the per-walk loops of tests/test_walks.py."""
    failures = dict.fromkeys(
        [
            "marked/non-marked balance",
            "kappa_mu <= kappa_nu",
            "mu/p/q partition of marked steps",
            "BTS instants are open self-intersections",
            "walk projects to a Dyck path",
            "vertex in/out ledger and open-edge bounds",
            "imported-cell count bounds",
            "cells bound holds for unfiltered reduced arrivals too",
            "exit clusters fit the cell bound on the underlying tree",
        ],
        0,
    )
    for w in enumerate_even_walks(s):
        an = analyze(w)
        held = [
            sum(an.marked) == s and w.n_steps - sum(an.marked) == s,
            all(an.kappa_mu[v] <= an.kappa_nu[v] for v in an.vertices),
            len(an.mu_edges) + len(an.p_edges) + sum(an.q_counts) == s,
            set(an.bts_instants) <= set(an.open_instants),
            an.theta is not None and an.theta.k == s,
            verify_vertex_ledger(an),
            verify_cell_bounds(an),
            all(len(an.reduced_nonmarked_arrivals[v]) <= an.bts_remote(v) + an.kappa_nu[v] for v in an.vertices),
            verify_exit_degree_tree_link(an),
        ]
        for label, ok in zip(failures, held):
            failures[label] += not ok
    return failures


@pytest.mark.parametrize("s", range(6))
def test_census_lemma_tallies_match_per_walk_oracle(s):
    expected = oracle_lemma_failures(s)
    assert lemma_failures(s) == expected
    assert not any(expected.values())


def test_census_returns_fresh_dicts():
    nu_census(2).clear()
    mu_census(2).clear()
    lemma_failures(2).clear()
    assert len(lemma_failures(2)) == 9
    assert sum(nu_census(2).values()) == sum(mu_census(2).values()) == len(enumerate_even_walks(2))


def test_exact_class_size_matches_oracle():
    s = 4
    nu_sigs = list(nu_census(s))[::40]
    mu_sigs = list(mu_census(s))[::40]
    samples = [
        NuSignature(theta=None, nu=(), r=0, p=0, d=4),
        NuSignature(theta=None, nu=((2, 3),), r=0, p=0, d=4),
        classify_mu(analyze(enumerate_even_walks(s)[-1])),
    ]
    for sig in nu_sigs:
        # wildcard theta, a tighter exit-degree cap, and root fields ignored
        samples += [
            replace(sig, theta=None),
            replace(sig, d=sig.d - 1),
            replace(sig, root_kappa=sig.root_kappa + 1, root_open=not sig.root_open),
        ]
    for sig in mu_sigs:
        # wildcard theta, max_kappa_nu ignored, and a mismatching exit degree
        samples += [replace(sig, theta=None), replace(sig, max_kappa_nu=9), replace(sig, d=sig.d + 1)]
    assert len(samples) == 42
    sizes = []
    for sig in samples:
        sizes.append(exact_class_size(s, sig))
        assert sizes[-1] == oracle_class_size(s, sig), sig
    assert sizes[:2] == [14, 0] and max(sizes) > 1


def test_census_analyzes_each_walk_once(monkeypatch):
    s = 4
    mu_sig = classify_mu(analyze(enumerate_even_walks(s)[-1]))
    analyzed = []
    real = classes.analyze
    monkeypatch.setattr(classes, "analyze", lambda walk: analyzed.append(walk) or real(walk))
    classes._census.cache_clear()
    nu_census(s)
    mu_census(s)
    nu_domination_report(s)
    mu_domination_report(s)
    census_csv_rows(s)
    assert exact_class_size(s, NuSignature(theta=None, nu=(), r=0, p=0, d=4)) == 14
    assert exact_class_size(s, mu_sig) >= 1
    assert len(analyzed) == len(enumerate_even_walks(s)) == 433
