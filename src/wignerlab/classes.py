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

The census is the one loop over the even walks of 2s steps: it streams them
from the walk search, analyzes each once, and from that analysis tallies the
class signatures and checks the per-walk lemmas of the walk structure suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .dyck import DyckPath
from .errors import BoundPreconditionError
from .moments import MomentSpec
from .walks import ROOT, Walk, WalkAnalysis, _even_walk_dfs, analyze, check_walk_lemmas


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


@lru_cache(maxsize=None)
def _census(s: int) -> tuple[dict[NuSignature, int], dict[MuSignature, int], dict[str, int]]:
    """One pass over the even walks of 2s steps, streamed from the walk search.

    Each walk is analyzed once. Returns the exact nu and mu class sizes and,
    for each lemma of `walks.check_walk_lemmas`, the number of walks where it
    fails. No walk list is kept.
    """
    nu: dict[NuSignature, int] = {}
    mu: dict[MuSignature, int] = {}
    failures: dict[str, int] = {}

    def leaf(labels, *_):
        # the search's labels are canonical and closed at the root
        an = analyze(Walk._unchecked(tuple(labels)))
        sig_nu = classify_nu(an)
        nu[sig_nu] = nu.get(sig_nu, 0) + 1
        sig_mu = classify_mu(an)
        mu[sig_mu] = mu.get(sig_mu, 0) + 1
        for label, held in check_walk_lemmas(an).items():
            failures[label] = failures.get(label, 0) + (not held)

    _even_walk_dfs(s, True, leaf)
    return nu, mu, failures


def nu_census(s: int) -> dict[NuSignature, int]:
    """Exact cardinality of every realized nu class among even walks of 2s steps."""
    return dict(_census(s)[0])


def mu_census(s: int) -> dict[MuSignature, int]:
    """Exact cardinality of every realized mu class among even walks of 2s steps."""
    return dict(_census(s)[1])


def lemma_failures(s: int) -> dict[str, int]:
    """Per lemma of `walks.check_walk_lemmas`, how many even walks of 2s steps break it."""
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


def _csv_row(family: str, s: int, row: ClassCensusRow, profile, p_or_pp, ppp="", q="") -> dict:
    sig = row.signature
    return {
        "family": family,
        "s": s,
        "theta": "".join("U" if x == 1 else "D" for x in sig.theta),
        "profile": ";".join(f"{k}:{c}" for k, c in profile),
        "r": sig.r,
        "p_or_Pp": p_or_pp,
        "Ppp": ppp,
        "Q": q,
        "d": sig.d,
        "exact": row.exact,
        "bound": "" if row.bound is None else str(row.bound),
        "slack": "" if row.slack is None else f"{row.slack:.6g}",
        "note": row.note,
    }


def census_csv_rows(s: int, k0: int = 4) -> list[dict]:
    """Flat census rows (both class families) for CSV emission."""
    out = [_csv_row("nu", s, row, row.signature.nu, row.signature.p) for row in nu_domination_report(s)]
    for row in mu_domination_report(s, k0):
        sig = row.signature
        q = ";".join(str(c) for c in sig.q_counts)
        out.append(_csv_row("mu", s, row, sig.mu, sig.p_count, sig.double_mu, q))
    return out
