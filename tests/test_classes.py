import ast
import hashlib
import inspect
import math
from fractions import Fraction
from pathlib import Path

import pytest

from wignerlab import classes, cli, walks
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
    upsilon_mu,
    upsilon_nu,
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


def ss_bound_oracle(s, sig, h_theta):
    """ss_bound multiplied out Fraction by Fraction, one factor at a time."""
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
    out = Fraction(s**2, 2) ** plain / math.factorial(plain)
    out *= Fraction(6 * s * h_theta) ** r_nonroot / math.factorial(r_nonroot)
    out *= Fraction(s * sig.d) ** sig.p / math.factorial(sig.p)
    for k, c in nu.items():
        if k >= 3:
            out *= Fraction(s**k * upsilon_nu(k), math.factorial(k)) ** c / math.factorial(c)
    n_root = sig.root_kappa - 1
    if n_root == 1:
        out *= Fraction(6 * h_theta) if sig.root_open else Fraction(s)
    elif n_root >= 2:
        out *= Fraction(s**n_root, math.factorial(n_root)) * upsilon_nu(n_root + 1)
    return out


def mu_bound_oracle(s, sig, k0):
    """mu_bound multiplied out Fraction by Fraction, its hypothesis compared in Fractions."""
    mu = sig.mu_dict()
    mu_weight = sum((m - 1) * c for m, c in mu.items() if m >= 2)
    if Fraction(mu_weight) > Fraction(s - 1, 6):
        raise BoundPreconditionError(f"|mu|_1 = {mu_weight} exceeds (s-1)/6 = {Fraction(s-1,6)}")
    if sig.max_kappa_nu > k0:
        raise BoundPreconditionError(f"kappa_nu reaches {sig.max_kappa_nu} > k0 = {k0}")
    h = DyckH(sig.theta) if sig.theta else 0
    plain = mu.get(2, 0) - sig.r
    if plain < 0:
        raise BoundPreconditionError("r exceeds mu_2")
    d = sig.d
    out = Fraction(s**2, 2) ** plain / math.factorial(plain)
    out *= Fraction(2 * s * h) ** sig.r / math.factorial(sig.r)
    for m, c in mu.items():
        if 3 <= m <= k0:
            out *= Fraction(s**m, math.factorial(m)) ** c / math.factorial(c)
    pp, ppp = sig.p_count, sig.double_mu
    out *= Fraction(s * d) ** pp / math.factorial(pp)
    out *= Fraction(mu_weight * d, s) ** ppp / math.factorial(ppp)
    q = sig.q_counts
    if q:
        out *= Fraction((pp + ppp) * d) ** q[0] / math.factorial(q[0])
        for j in range(1, len(q)):
            out *= Fraction(q[j - 1] * d) ** q[j] / math.factorial(q[j])
    out *= upsilon_mu(sig, k0)
    return out


def bound_or_refusal(bound, *args):
    try:
        return bound(*args)
    except BoundPreconditionError as exc:
        return f"refused: {exc}"


@pytest.mark.parametrize("s", range(6))
def test_class_bounds_match_fraction_oracles(s):
    # every census signature at its own s, and at s = 25, where far fewer
    # mu classes are refused; k0 = 2 also refuses on kappa_nu
    for sig in nu_census(s):
        h = DyckH(sig.theta)
        for at in (s, 25):
            got = bound_or_refusal(ss_bound, at, sig, h)
            assert got == bound_or_refusal(ss_bound_oracle, at, sig, h)
            assert isinstance(got, (Fraction, str))
    for sig in mu_census(s):
        for at, k0 in ((s, 4), (25, 4), (25, 2)):
            got = bound_or_refusal(mu_bound, at, sig, k0)
            assert got == bound_or_refusal(mu_bound_oracle, at, sig, k0)
            assert isinstance(got, (Fraction, str))


def test_mu_bound_matches_fraction_oracle_on_deep_q_layers():
    # no census signature with s <= 5 has q-layers that differ from the
    # p- and double mu-edge count, so each layer's own factor is checked here
    for q_counts in ((3,), (1, 2), (2, 1, 3), (4, 4, 1, 2)):
        for p_count, double_mu in ((0, 0), (2, 1), (3, 0)):
            sig = MuSignature(
                theta=(1, 1, -1, 1, -1, -1), mu=((1, 3), (2, 1), (3, 1)), p_count=p_count,
                double_mu=double_mu, q_counts=q_counts, r=1, d=3, max_kappa_nu=3,
            )
            for at in (19, 40):
                assert mu_bound(at, sig, 4) == mu_bound_oracle(at, sig, 4)


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


@pytest.mark.parametrize("s", range(7))
def test_census_matches_per_walk_oracle(s):
    # equal keys in equal order, with Python-int fields: the repr orders the mu rows
    nu, mu = oracle_census(s)
    assert list(nu_census(s).items()) == list(nu.items())
    assert list(mu_census(s).items()) == list(mu.items())
    assert repr(nu_census(s)) == repr(nu)
    assert repr(mu_census(s)) == repr(mu)


@pytest.mark.parametrize("block", [1, 100, 433])
def test_census_blocks_keep_the_order_of_first_walks(block, monkeypatch):
    # 433 walks at s = 4: one block per walk, five blocks with a short last one, one full block
    monkeypatch.setattr(classes, "_BLOCK", block)
    classes._census.cache_clear()
    try:
        nu, mu, failures = classes._census(4)
    finally:
        classes._census.cache_clear()
    want_nu, want_mu = oracle_census(4)
    assert list(nu.items()) == list(want_nu.items())
    assert list(mu.items()) == list(want_mu.items())
    assert failures == oracle_lemma_failures(4)


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
            all(an.kappa_mu[v] <= an.kappa_nu[v] for v in range(1, w.n_vertices + 1)),
            len(an.mu_edges) + len(an.p_edges) + sum(len(layer) for layer in an.q_layers) == s,
            set(an.bts_instants) <= set(an.open_instants),
            an.theta is not None and an.theta.k == s,
            verify_vertex_ledger(an),
            verify_cell_bounds(an),
            all(
                len(an.reduced_nonmarked_arrivals[v]) <= an.bts_total - an.bts_heads[v] + an.kappa_nu[v]
                for v in range(1, w.n_vertices + 1)
            ),
            verify_exit_degree_tree_link(an),
        ]
        for label, ok in zip(failures, held):
            failures[label] += not ok
    return failures


@pytest.mark.parametrize("s", range(7))
def test_census_lemma_tallies_match_per_walk_oracle(s):
    expected = oracle_lemma_failures(s)
    assert lemma_failures(s) == expected
    assert not any(expected.values())


def test_tree_link_reads_each_dyck_path_once(monkeypatch):
    # the exit-degree tree link memoizes the tree of each Dyck path: C_5 = 42 at s = 5
    calls = []
    real = walks.exit_degree_profile
    monkeypatch.setattr(walks, "exit_degree_profile", lambda steps: calls.append(steps) or real(steps))
    walks._tree_max_exit_degree.cache_clear()
    classes._census.cache_clear()
    try:
        failures = lemma_failures(5)
    finally:
        walks._tree_max_exit_degree.cache_clear()
        classes._census.cache_clear()
    assert len(calls) == len(set(calls)) == 42
    assert failures == oracle_lemma_failures(5)


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
            sig._replace(theta=None),
            sig._replace(d=sig.d - 1),
            sig._replace(root_kappa=sig.root_kappa + 1, root_open=not sig.root_open),
        ]
    for sig in mu_sigs:
        # wildcard theta, max_kappa_nu ignored, and a mismatching exit degree
        samples += [sig._replace(theta=None), sig._replace(max_kappa_nu=9), sig._replace(d=sig.d + 1)]
    assert len(samples) == 42
    sizes = []
    for sig in samples:
        sizes.append(exact_class_size(s, sig))
        assert sizes[-1] == oracle_class_size(s, sig), sig
    assert sizes[:2] == [14, 0] and max(sizes) > 1


def test_census_searches_each_depth_once(monkeypatch):
    # one walk search per s, no per-walk analysis or classifier, and every
    # reader of the census shares its cache
    s = 4
    mu_sig = classify_mu(analyze(enumerate_even_walks(s)[-1]))
    per_walk = {"analyze": 0, "check_walk_lemmas": 0, "classify_nu": 0, "classify_mu": 0}
    for module in (walks, classes):
        for name in per_walk:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _counted(per_walk, name, getattr(module, name)))
    searches = []
    real = classes._even_walk_blocks
    monkeypatch.setattr(classes, "_even_walk_blocks", lambda s, *args: searches.append(s) or real(s, *args))
    classes._census.cache_clear()
    nu_census(s)
    mu_census(s)
    lemma_failures(s)
    nu_domination_report(s)
    mu_domination_report(s)
    census_csv_rows(s)
    assert exact_class_size(s, NuSignature(theta=None, nu=(), r=0, p=0, d=4)) == 14
    assert exact_class_size(s, mu_sig) >= 1
    assert searches == [s]
    assert per_walk == dict.fromkeys(per_walk, 0)
    assert sum(nu_census(s).values()) == sum(mu_census(s).values()) == 433


def _counted(counts, name, fn):
    def wrapper(an):
        counts[name] += 1
        return fn(an)

    return wrapper


def test_census_validates_no_walk(monkeypatch):
    # the walk search's labels are canonical, so the census leaf skips
    # Walk.__post_init__, and analyze's reduced walk is relabelled canonically
    calls = []
    real = Walk.__post_init__
    monkeypatch.setattr(Walk, "__post_init__", lambda self: calls.append(self) or real(self))
    classes._census.cache_clear()
    try:
        nu, mu, failures = classes._census(4)
    finally:
        classes._census.cache_clear()
    assert calls == []
    assert sum(nu.values()) == sum(mu.values()) == 433
    assert set(failures.values()) == {0}
    Walk((1, 2, 1))
    assert len(calls) == 1  # the public constructor still validates


# sha256 of each census CSV text: the mu rows sort by their signature's repr,
# so a change to that repr reorders them and moves these digests
CENSUS_CSV_SHA256 = {
    1: "2402891ccee1c1044a52e7e7199d2445ab14ef2a0008ce85c1565a3b3d609a03",
    2: "3d017728ed7d4c13a035639eb5c1c55fbd50807c1f1b4072f05465d489af94b8",
    3: "65f9c60132337af1d0a4ec8ea5ca49cb06d5e13665cdda7ab460bc41e76c60c0",
    4: "307e66511ec14d9aeab8828e5140f28975a473720a1dc442ea73ec337c1f4e06",
    5: "988472fb18d88da0c1a6fb5f688606c77a4543fbef600c2c170a29d51e9f339e",
}


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_census_rows_keep_their_order(s):
    text = cli._rows_to_csv(census_csv_rows(s))
    assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_CSV_SHA256[s]
    nu, mu = nu_census(s), mu_census(s)
    for sig in [*nu, *mu]:
        copy = sig._replace()
        assert copy == sig and hash(copy) == hash(sig)
    # equal keys hash equal, so an empty intersection means no nu key equals a mu key
    assert not set(nu) & set(mu)
    assert all(repr(sig).startswith("NuSignature(theta=") for sig in nu)
    assert all(repr(sig).startswith("MuSignature(theta=") for sig in mu)
