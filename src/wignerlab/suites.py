"""Shared verification suites behind the acceptance tests and `verify`.

Each suite returns a SuiteResult whose checks are (name, ok, detail) rows;
the CLI prints one line per criterion and exits nonzero on any failure, the
test suite asserts on the same objects. The walk suites 4 and 6 read the
class census (`classes._census`), one array pass per s over the even walks
that gives both the per-walk lemma tallies and the class sizes; suite 4
also checks the worked example's lemmas on its own analysis.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps

import numpy as np

from . import classes as cls
from . import dyck, moments, series
from .laws import GaussianLaw, GoeLaw, RademacherLaw, ThreePointLaw
from .errors import EnumerationCeilingError
from .walks import WALK_ENUMERATION_CEILING, Walk, analyze, check_walk_lemmas

W14 = Walk((1, 2, 3, 4, 3, 5, 2, 3, 4, 3, 2, 5, 3, 2, 1))


@dataclass
class SuiteResult:
    name: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    elapsed: float = 0.0

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append((label, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[tuple[str, str]]:
        return [(label, detail) for label, ok, detail in self.checks if not ok]

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({len(self.checks)} checks, {self.elapsed:.1f}s)"


def _timed(fn):
    @wraps(fn)
    def wrapper(*args, **kwargs) -> SuiteResult:
        t0 = time.perf_counter()
        res = fn(*args, **kwargs)
        res.elapsed = time.perf_counter() - t0
        return res

    return wrapper


def _count_dyck_paths(k: int) -> int:
    """Paths of the Dyck search at half-length k: the sum over heights h of
    first halves ending at h times second halves from h, with no path joined."""
    _, heights, seconds = dyck._dyck_halves(k)
    firsts_at = np.bincount(heights, minlength=k + 1).tolist()
    return sum(n_firsts * len(halves) for n_firsts, halves in zip(firsts_at, seconds))


@_timed
def criterion_1_catalan() -> SuiteResult:
    res = SuiteResult("1 catalan suite")
    k_max = 12
    ok = all(
        dyck.catalan(k) == sum(dyck.catalan(j) * dyck.catalan(k - 1 - j) for j in range(k))
        for k in range(1, k_max + 1)
    )
    res.add("main recurrence", ok)
    res.add(
        "enumeration counts",
        all(_count_dyck_paths(k) == dyck.catalan(k) for k in range(k_max + 1)),
    )
    res.add(
        "root degree 2 equals t_(s-1)",
        all(dyck.count_trees_root_degree(s, 2) == dyck.catalan(s - 1) for s in range(2, k_max + 1)),
    )
    rec_ok = True
    for s in range(1, k_max + 1):
        for d in range(2, s + 1):
            lhs = dyck.count_trees_root_degree(s, d)
            rhs = dyck.count_trees_root_degree(s, d - 1) - dyck.count_trees_root_degree(s - 1, d - 2)
            rec_ok = rec_ok and lhs == rhs
    res.add("root-degree recurrence", rec_ok)
    res.add(
        "root degrees sum to t_s",
        all(
            sum(dyck.count_trees_root_degree(s, d) for d in range(0, s + 1)) == dyck.catalan(s)
            for s in range(k_max + 1)
        ),
    )
    return res


@_timed
def criterion_2_exit_degree_tail() -> SuiteResult:
    res = SuiteResult("2 exit-degree tail bound")
    worst = None
    ok = True
    for s in range(2, 13):
        for d in range(2, s + 1):
            exact_ge = dyck.count_trees_with_exit_degree_ge(s, d)
            exact_eq = dyck.count_trees_with_exit_degree_eq(s, d)
            bound = dyck.exit_degree_tail_bound(s, d)
            if exact_ge > bound or exact_eq > exact_ge:
                ok = False
                worst = (s, d, exact_ge, bound)
    res.add("exact <= (2s+1)(3/4)^(d-2) t_s", ok, detail=str(worst) if worst else "")
    return res


@_timed
def criterion_3_genfun() -> SuiteResult:
    res = SuiteResult("3 generating-function identities")
    order, nm_s = 40, 12
    inv, n2 = series.invsqrt_one_minus_4t(order), series.n2_series(nm_s)
    ids = series.check_catalan_identities(order)
    res.add("t phi^2 = phi - 1", ids["t_phi_sq"])
    res.add("t phi' = invsqrt - phi", ids["t_phi_prime"])
    res.add(
        "invsqrt coefficients (k+1) t_k",
        all(
            inv[k] == (k + 1) * dyck.catalan(k)
            for k in range(order + 1)
        ),
    )
    res.add(
        "n2 closed form integral and matches brute force",
        all(series.n2_count(s) == series.brute_force_same_cluster_pairs(s) for s in range(11)),
    )
    res.add(
        "n2 series matches counts",
        all(n2[s] == series.n2_count(s) for s in range(nm_s + 1)),
    )
    res.add(
        "nm convolution agrees with n2 at m=2",
        all(series.nm_count(2, s) == series.n2_count(s) for s in range(2, nm_s + 1)),
    )
    res.add(
        "nm bound 2^m s t_s",
        all(
            series.nm_count(m, s) <= series.nm_bound(m, s)
            for m in range(2, 6)
            for s in range(m, nm_s + 1)
        ),
    )
    return res


@_timed
def criterion_4_walk_structure(s_max: int = 5) -> SuiteResult:
    res = SuiteResult("4 walk structure suite")
    # the worked example (s = 7) through the per-walk checks, then every even
    # walk with s <= s_max through the class census
    failures = {label: int(not held) for label, held in check_walk_lemmas(analyze(W14)).items()}
    for s in range(s_max + 1):
        for label, count in cls.lemma_failures(s).items():
            failures[label] += count
    for label, count in failures.items():
        res.add(label, count == 0, f"failing walks: {count}" if count else "")
    return res


@_timed
def criterion_5_worked_example() -> SuiteResult:
    res = SuiteResult("5 worked example walk")
    an = analyze(W14)
    res.add("kappa_nu(a2) = 3", an.kappa_nu[2] == 3)
    res.add("kappa_nu(a4) = 2", an.kappa_nu[4] == 2)
    res.add("open instants {6, 10}", an.open_instants == (6, 10))
    res.add("BTS instants {6, 10}", an.bts_instants == (6, 10))
    res.add(
        "mu class mu1=4 mu2=0 mu3=1",
        an.mu_profile() == {1: 4, 3: 1},
    )
    res.add("one p-edge, no q-edges", len(an.p_edges) == 1 and an.q_layers == ())
    res.add("one double mu-edge", an.double_mu_count == 1)
    res.add("a3 primary cell at t=2", an.marked_arrivals[3] == (2,))
    res.add("a3 imported cell at t=7", an.imported_cells[3] == (7,))
    return res


@_timed
def criterion_6_class_bounds(s_max: int = 5, k0: int = 4) -> SuiteResult:
    res = SuiteResult("6 class-bound domination")
    nu_ok = mu_ok = census_ok = True
    nu_detail = mu_detail = ""
    for s in range(1, s_max + 1):
        # the committed shape table counts the walks independently of the census
        total = sum(row[-1] for row in moments._walk_shapes(s))
        census_ok &= sum(cls.nu_census(s).values()) == total
        census_ok &= sum(cls.mu_census(s).values()) == total
        for row in cls.nu_domination_report(s):
            if row.bound is not None and row.exact > row.bound:
                nu_ok = False
                nu_detail = f"s={s} {row.signature}"
        for row in cls.mu_domination_report(s, k0):
            if row.bound is not None and row.exact > row.bound:
                mu_ok = False
                mu_detail = f"s={s} {row.signature}"
    res.add("nu classes: exact <= bound", nu_ok, nu_detail)
    res.add("mu classes: exact <= bound", mu_ok, mu_detail)
    res.add("class sizes partition the walk census", census_ok)
    psi3 = cls.psi_bound(3, {2: 1})
    psi4 = cls.psi_bound(4, {2: 2})
    res.add(
        "psi examples",
        psi3 == (Fraction(3), Fraction(9, 2)) and psi4 == (Fraction(3), Fraction(32)),
    )
    return res


@_timed
def criterion_7_moment_oracle() -> SuiteResult:
    res = SuiteResult("7 trace-moment oracle equivalence")
    rad = RademacherLaw(Fraction(1, 2))
    gau = GaussianLaw(Fraction(1, 2))
    goe = GoeLaw(Fraction(1, 2))
    trunc = moments.TruncationSpec(ThreePointLaw(), delta=0.05)
    specs = []
    for n in range(1, 5):
        specs.append((f"wigner-rademacher n={n}", moments.wigner_spec(rad, n)))
        specs.append((f"wigner-gaussian n={n}", moments.wigner_spec(gau, n)))
        specs.append((f"goe n={n}", moments.wigner_spec(goe, n)))
        specs.append((f"truncated n={n}", moments.truncated_spec(trunc, n)))
        for c in (1, max(1, n // 2), n):
            specs.append((f"dilute n={n} c={c}", moments.dilute_spec(rad, n, c)))
    ok = True
    detail = ""
    for label, spec in specs:
        for s in range(1, 5):
            walk_sum = moments.exact_trace_moment(spec, s).total
            brute = moments.brute_force_trace_moment(spec, s)
            if walk_sum != brute:
                ok = False
                detail = f"{label} s={s}: {walk_sum} != {brute}"
    res.add("walk sum equals index-tuple brute force (exact)", ok, detail)
    res.add(
        "n=1 collapses to V_2s",
        all(
            moments.exact_trace_moment(moments.wigner_spec(rad, 1), s).total
            == rad.moment(2 * s)
            for s in range(1, 5)
        ),
    )
    res.add(
        "s=2 closed form V4 + 2(n-1) v^4",
        all(
            moments.exact_trace_moment(moments.wigner_spec(rad, n), 2).total
            == moments.trace_moment_formula_s2(moments.wigner_spec(rad, n))
            for n in range(1, 10)
        ),
    )
    return res


@_timed
def criterion_10_excursion() -> SuiteResult:
    res = SuiteResult("10 excursion functional")
    res.add(
        "B_k(0) = 1 exactly",
        all(dyck.excursion_functional(k, 0.0) == 1.0 for k in (1, 7, 50, 400)),
    )
    taus = (0.25, 0.5, 1.0, 2.0, 3.0)
    res.add(
        "strictly increasing in tau",
        all(
            dyck.excursion_functional(100, a) < dyck.excursion_functional(100, b)
            for a, b in zip(taus, taus[1:])
        ),
    )
    res.add(
        "nondecreasing in k",
        all(
            dyck.excursion_functional(k1, 1.0) <= dyck.excursion_functional(k2, 1.0)
            for k1, k2 in ((50, 100), (100, 200), (200, 400))
        ),
    )
    # Criterion 10 as stated. It is red at tau=2: the maximal height has the
    # lattice offset E H_k = sqrt(pi k) - 3/2 + o(1), so B_k(tau) falls short of
    # its limit by about exp(-3 tau / (2 sqrt k)) and the raw gap is ~0.03 tau.
    # tests/test_acceptance.py checks the offset-corrected form against the limit.
    for tau in (0.5, 1.0, 2.0):
        b200 = dyck.excursion_functional(200, tau)
        b400 = dyck.excursion_functional(400, tau)
        rel = abs(b400 - b200) / b400
        res.add(
            f"stabilization at tau={tau}: |B400-B200| <= 0.05 B400",
            rel <= 0.05,
            f"relative gap {rel:.4f}",
        )
    ratio = dyck.mean_max_height(2000) / math.sqrt(2000)
    rel = abs(ratio - math.sqrt(math.pi)) / math.sqrt(math.pi)
    res.add("mean height ratio at k=2000 within 2% of sqrt(pi)", rel <= 0.02, f"rel {rel:.4f}")
    return res


@_timed
def criterion_11_dilute() -> SuiteResult:
    res = SuiteResult("11 dilute lower bound")
    law = GaussianLaw(Fraction(1, 2))
    ok = True
    detail = ""
    for s in (3, 4, 5):
        for n in (40, 80):
            for c in (5, 10, 20):
                total = moments.exact_trace_moment(moments.dilute_spec(law, n, c), s).total
                bound = moments.dilute_lower_bound(law, n, c, s)
                if total < bound:
                    ok = False
                    detail = f"s={s} n={n} c={c}: {float(total):.4f} < {float(bound):.4f}"
    res.add("exact dilute moment >= n m_2s (1 + (s-3) V4 / c)", ok, detail)
    return res


def run_verify_suites(max_halfsteps: int = 5, k0: int = 4) -> list[SuiteResult]:
    """The identity/bound suites behind `verify` (the exact, seedless criteria).

    max_halfsteps is the largest s of the walk suites 4 and 6. It runs from 1
    up to the walk ceiling (2s <= 14) and is refused outside, before any suite;
    so is a k0, suite 6's cap on kappa_nu, below 1.
    """
    if max_halfsteps < 1:
        raise ValueError("max_halfsteps must be >= 1")
    if 2 * max_halfsteps > WALK_ENUMERATION_CEILING:
        raise EnumerationCeilingError("walk suites", 2 * max_halfsteps, WALK_ENUMERATION_CEILING)
    if k0 < 1:
        raise ValueError("k0 must be >= 1")
    return [
        criterion_1_catalan(),
        criterion_2_exit_degree_tail(),
        criterion_3_genfun(),
        criterion_4_walk_structure(s_max=max_halfsteps),
        criterion_5_worked_example(),
        criterion_6_class_bounds(s_max=max_halfsteps, k0=k0),
        criterion_7_moment_oracle(),
        criterion_10_excursion(),
        criterion_11_dilute(),
    ]
