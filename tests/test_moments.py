import inspect
import math
import os
import subprocess
import sys
import tomllib
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from wignerlab import mc, moments
from wignerlab.classes import weight_bound_check
from wignerlab.laws import (
    GaussianLaw,
    GoeLaw,
    PowerTailLaw,
    RademacherLaw,
    ThreePointLaw,
)
from wignerlab.moments import (
    DEFAULT_C1,
    MomentSpec,
    TruncationSpec,
    brute_force_trace_moment,
    default_c0,
    dilute_lower_bound,
    dilute_spec,
    exact_trace_moment,
    semicircle_moment,
    trace_moment_formula_s2,
    truncated_moments,
    truncated_spec,
    wigner_spec,
    _tuple_profiles,
    _walk_shapes,
    z_decomposition,
)
from wignerlab.errors import EnumerationCeilingError
from wignerlab.mc import EnsembleConfig, SampleStats, sample_stats
from wignerlab.suites import criterion_7_moment_oracle
from wignerlab.walks import WALK_ENUMERATION_CEILING, _even_walk_blocks, analyze, enumerate_even_walks


@dataclass(frozen=True)
class CustomMomentLaw:
    """Ensemble defined only by a finite list of even moments (no sampler)."""

    even_moments: tuple  # index m -> E a^(2m), starting at m=1
    name: str = "custom"

    @property
    def v(self) -> float:
        return math.sqrt(float(self.even_moments[0]))

    def moment(self, order: int):
        if order % 2:
            return 0
        if order == 0:
            return 1
        m = order // 2
        if m > len(self.even_moments):
            raise ValueError(f"moment of order {order} not supplied")
        return self.even_moments[m - 1]

    def truncated_moment(self, order: int, cutoff: float):
        raise ValueError("custom moment lists do not support truncation")

    def descriptor(self) -> dict:
        return {"law": self.name, "moments": [str(m) for m in self.even_moments]}


def quadrature_moment(density, order: int, cutoff: float) -> float:
    """E[a^order; |a| <= cutoff] for a symmetric density, by adaptive quadrature."""
    if order % 2:
        return 0.0
    val, _err = integrate.quad(
        lambda x: 2 * x**order * density(x), 0, cutoff, epsrel=1e-12, limit=200
    )
    return val


RAD = RademacherLaw(Fraction(1, 2))
GAU = GaussianLaw(Fraction(1, 2))
GOE = GoeLaw(Fraction(1, 2))


def test_semicircle_moments():
    v = Fraction(1, 2)
    assert semicircle_moment(2, v) == v**2
    assert semicircle_moment(4, v) == 2 * v**4
    assert semicircle_moment(5, v) == 0
    assert semicircle_moment(6, Fraction(1)) == 5


def test_entry_moments():
    assert RAD.moment(4) == Fraction(1, 16)
    assert GAU.moment(4) == 3 * Fraction(1, 16)
    assert GAU.moment(6) == 15 * Fraction(1, 64)
    spec = wigner_spec(GOE, 3)
    assert spec.entry_moment(2, is_loop=True) == 2 * Fraction(1, 4)
    assert spec.entry_moment(2, is_loop=False) == Fraction(1, 4)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_oracle_equivalence_wigner(n, s):
    for law in (RAD, GAU):
        spec = wigner_spec(law, n)
        assert exact_trace_moment(spec, s).total == brute_force_trace_moment(spec, s)


def test_oracle_equivalence_other_ensembles():
    goe = wigner_spec(GOE, 3)
    assert exact_trace_moment(goe, 2).total == brute_force_trace_moment(goe, 2)
    dil = dilute_spec(RademacherLaw(Fraction(1)), 3, 2)
    assert exact_trace_moment(dil, 3).total == brute_force_trace_moment(dil, 3)
    trunc = truncated_spec(TruncationSpec(ThreePointLaw(), delta=0.05), 3)
    assert exact_trace_moment(trunc, 2).total == brute_force_trace_moment(trunc, 2)


def test_single_site_collapse():
    for s in (1, 2, 3, 4):
        assert exact_trace_moment(wigner_spec(RAD, 1), s).total == RAD.moment(2 * s)


def test_s1_trace_is_n_v_squared():
    for n in (2, 7, 30):
        assert exact_trace_moment(wigner_spec(RAD, n), 1).total == n * Fraction(1, 4)


def test_s2_closed_form():
    for n in range(1, 12):
        spec = wigner_spec(RAD, n)
        expect = trace_moment_formula_s2(spec)
        assert exact_trace_moment(spec, 2).total == expect
        assert expect == RAD.moment(4) + 2 * (n - 1) * Fraction(1, 16)
    assert exact_trace_moment(wigner_spec(RAD, 2), 2).total == Fraction(3, 16)


def test_odd_moments_vanish():
    # symmetric laws kill every odd edge moment; the full index-tuple sum for
    # an odd power must vanish identically
    from itertools import product

    spec = wigner_spec(RAD, 3)
    assert spec.edge_moment(3) == 0
    for power in (1, 3, 5):
        total = 0
        for tup in product(range(3), repeat=power):
            closed = tup + (tup[0],)
            passes = {}
            for t in range(power):
                a, b = closed[t], closed[t + 1]
                e = (a, b) if a <= b else (b, a)
                passes[e] = passes.get(e, 0) + 1
            w = Fraction(1)
            for (a, b), m in passes.items():
                w *= spec.edge_moment(m, a == b)
                if w == 0:
                    break
            total += w
        assert total == 0


def test_semicircle_convergence_rate():
    v = Fraction(1, 2)
    for s in (2, 3, 4):
        err = {}
        for n in (50, 100, 200):
            total = exact_trace_moment(wigner_spec(RAD, n), s).total
            err[n] = abs(Fraction(total, n) - semicircle_moment(2 * s, v))
        assert 1.4 <= float(err[50] / err[100]) <= 2.6
        assert 1.4 <= float(err[100] / err[200]) <= 2.6


def test_z_decomposition_parts_sum():
    spec = wigner_spec(RAD, 50)
    res = z_decomposition(spec, 3, delta=0.1)
    assert sum(res.z_parts.values()) == res.total
    assert res.total == exact_trace_moment(spec, 3).total
    assert res.z1_fraction >= 0.9


def test_z_decomposition_s1_small_n():
    # at s = 1 no multiple edges exist; with the threshold above 1 both walks
    # (including the loop walk, a root self-intersection) land in Z1
    res = z_decomposition(wigner_spec(RAD, 2), 1, delta=0.1)
    assert res.z_parts[1] == res.total
    assert res.z_parts[2] == res.z_parts[3] == res.z_parts[4] == 0


def test_default_constants():
    assert DEFAULT_C1 == pytest.approx(2 * math.e)
    # C1 really is the supremum of 2k / (k!)^(1/k): increasing toward 2e
    seq = [2 * k * math.exp(-math.lgamma(k + 1) / k) for k in range(2, 2000)]
    assert all(x < DEFAULT_C1 for x in seq)
    assert seq[-1] > DEFAULT_C1 - 0.02
    assert all(b > a for a, b in zip(seq, seq[1:]))
    assert default_c0(1.0) == pytest.approx(math.e * (1 + 8 * 4 * math.e**2))


def test_truncated_moments_rademacher():
    tr = TruncationSpec(RademacherLaw(Fraction(1)), delta=0.05)
    for n in (10, 100):
        vals = truncated_moments(tr, n)
        assert all(v == 1 for v in vals)


def test_truncated_moments_gaussian_quadrature_and_mc():
    law = GaussianLaw(Fraction(1))
    cutoff = 2.0
    closed = law.truncated_moment(2, cutoff)
    quad = quadrature_moment(
        lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), 2, cutoff
    )
    assert closed == pytest.approx(quad, rel=1e-10)
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    sample = rng.standard_normal(10_000_000)
    est = np.mean(np.where(np.abs(sample) <= cutoff, sample**2, 0.0))
    se = np.std(np.where(np.abs(sample) <= cutoff, sample**2, 0.0)) / math.sqrt(len(sample))
    assert abs(est - closed) <= 3 * se
    # higher orders against quadrature
    for order in (4, 6, 8):
        q = quadrature_moment(
            lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), order, cutoff
        )
        assert law.truncated_moment(order, cutoff) == pytest.approx(q, rel=1e-10)


def test_truncated_moments_monotone_in_n():
    law = PowerTailLaw(v=1.0, gamma=24.0)
    tr = TruncationSpec(law, delta=0.05, delta0=0.5)
    prev = None
    for n in (20, 80, 320, 1280):
        vals = truncated_moments(tr, n)
        assert all(v <= law.moment(2 * (i + 1)) + 1e-12 for i, v in enumerate(vals))
        if prev is not None:
            assert all(b >= a - 1e-15 for a, b in zip(prev, vals))
        prev = vals
    # power-tail closed form against quadrature
    x0, g = law.x0, law.gamma
    for order in (2, 6, 12):
        q = quadrature_moment(
            lambda x: 0.5 * g * x0**g / x ** (g + 1) if x >= x0 else 0.0, order, 5.0
        )
        assert law.truncated_moment(order, 5.0) == pytest.approx(q, rel=1e-9)


def test_order_zero_moments_of_every_law():
    # E[a^0] = E|a|^0 = 1, and E[a^0; |a| <= U] = P(|a| <= U)
    laws = (
        RademacherLaw(Fraction(1, 2)),
        GaussianLaw(Fraction(1, 2)),
        GoeLaw(Fraction(1, 2)),
        PowerTailLaw(v=1.0, gamma=24.0),
        ThreePointLaw(),
    )
    for law in laws:
        assert law.moment(0) == 1
        assert law.abs_moment(0) == 1
        assert law.truncated_moment(0, 100.0) == pytest.approx(1)
    assert RademacherLaw(Fraction(1, 2)).truncated_moment(0, 0.25) == 0
    assert GaussianLaw(Fraction(1)).truncated_moment(0, 1.0) == pytest.approx(math.erf(1 / math.sqrt(2)))
    power = PowerTailLaw(v=1.0, gamma=24.0)
    assert power.truncated_moment(0, power.x0 / 2) == 0
    assert power.truncated_moment(0, 2 * power.x0) == pytest.approx(1 - 2.0**-24)
    three = ThreePointLaw()  # spike 2 with mass 2q = 1/16
    assert three.moment(0) == three.truncated_moment(0, 2.0) == 1
    assert three.truncated_moment(0, 1.0) == Fraction(15, 16)
    assert all(type(m) is Fraction for m in (three.moment(0), three.truncated_moment(0, 1.0)))
    # even orders >= 2 keep their values
    assert [three.moment(k) for k in (2, 4)] == [Fraction(1, 4), Fraction(1)]
    assert three.truncated_moment(2, 2.0) == Fraction(1, 4) and three.truncated_moment(2, 1.0) == 0
    assert three.abs_moment(2) == 0.25


def test_power_tail_moment_condition():
    law = PowerTailLaw(v=1.0, gamma=24.0)
    assert law.abs_moment(13) < math.inf  # 12 + 2 delta0 with delta0 = 0.5
    assert law.moment(2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        law.abs_moment(25)


def test_truncated_power_tail_at_order_gamma_is_the_limit():
    # at p = gamma the moment is g x0^g ln(U / x0), between its values at gamma -+ 1e-6
    at = PowerTailLaw(v=1.0, gamma=4.0).truncated_moment(4, 2.0)
    below = PowerTailLaw(v=1.0, gamma=4.0 - 1e-6).truncated_moment(4, 2.0)
    above = PowerTailLaw(v=1.0, gamma=4.0 + 1e-6).truncated_moment(4, 2.0)
    assert at == pytest.approx(4 * 0.5**2 * math.log(2 / math.sqrt(0.5)), rel=1e-15)
    assert round(at, 7) == 1.0397208 and min(below, above) < at < max(below, above)


@pytest.mark.parametrize("law", [GaussianLaw(Fraction(0)), GoeLaw(Fraction(0))], ids=lambda law: law.name)
def test_truncated_gaussian_at_zero_scale_is_a_point_mass(law):
    assert [law.truncated_moment(order, 1.5) for order in range(5)] == [1.0, 0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "law",
    [
        RademacherLaw(Fraction(1, 2)),
        GaussianLaw(Fraction(3, 2)),
        GoeLaw(Fraction(1, 3)),
        ThreePointLaw(),
        PowerTailLaw(v=1.0, gamma=24.0),
    ],
    ids=lambda law: law.name,
)
def test_abs_moment_is_the_moment_at_even_orders(law):
    for order in range(0, 15, 2):
        assert law.abs_moment(order) == pytest.approx(float(law.moment(order)), rel=1e-12, abs=0)
    assert 0 < law.abs_moment(13) < math.inf


def test_weight_bound_exhaustive_hypothesis_laws():
    # n = 1000 keeps the truncation level above the three-point spikes, so the
    # truncated moment chain 1 <= V4 <= ... <= V12 is intact
    for law in (ThreePointLaw(), RademacherLaw(Fraction(1))):
        spec = truncated_spec(TruncationSpec(law, delta=0.05), 1000)
        for s in range(1, 5):
            for walk in enumerate_even_walks(s):
                res = weight_bound_check(analyze(walk), spec)
                assert res.precondition_ok
                assert res.passed, (law.name, walk)


def test_weight_bound_tree_walks_tight():
    spec = truncated_spec(TruncationSpec(ThreePointLaw(), delta=0.05), 1000)
    from wignerlab.walks import Walk

    res = weight_bound_check(analyze(Walk((1, 2, 3, 2, 1))), spec)
    assert res.passed and res.nu_profile == {}
    assert res.lhs <= Fraction(1, 4) ** 2  # v^(2s) with v^2 = 1/4


def test_weight_bound_refuses_outside_hypotheses():
    # Rademacher at v = 1/2 has V4 = 1/16 < 1: the moment chain fails and the
    # bound is not claimed there (it would in fact be violated)
    spec = truncated_spec(TruncationSpec(RademacherLaw(Fraction(1, 2)), delta=0.05), 100)
    res = weight_bound_check(analyze(enumerate_even_walks(2)[0]), spec)
    assert not res.precondition_ok


def test_dilute_lower_bound_grid():
    law = GaussianLaw(Fraction(1, 2))
    for s in (3, 4):
        for n in (40,):
            for c in (5, 20):
                total = exact_trace_moment(dilute_spec(law, n, c), s).total
                assert total >= dilute_lower_bound(law, n, c, s)


def test_dilute_spec_validation():
    with pytest.raises(ValueError):
        dilute_spec(RAD, 10, 11)


#: Every settable value of the laws, the ensemble specs, the sampled
#: statistics and the replicate loop; a new option means editing this table.
OPTIONS = {
    RademacherLaw: ["v"],
    GaussianLaw: ["v"],
    GoeLaw: ["v"],
    PowerTailLaw: ["v", "gamma"],
    ThreePointLaw: ["spike", "q"],
    TruncationSpec: ["law", "delta", "delta0"],
    MomentSpec: ["n", "law", "truncation", "dilution_c"],
    EnsembleConfig: ["n", "law", "truncation", "dilution_c", "seed"],
    SampleStats: ["s_list", "lambda_max", "traces", "failed_replicates"],
    mc._replicate_loop: ["config", "reps", "statistic"],
}


def test_spec_fields_and_validation():
    # the ensemble kind follows from the fields; nothing sets it
    assert [f.name for f in fields(MomentSpec)] == ["n", "law", "truncation", "dilution_c"]
    assert {obj: list(inspect.signature(obj).parameters) for obj in OPTIONS} == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 26
    # the constants that replaced options read as they did
    laws = (RademacherLaw(), GaussianLaw(), GoeLaw(), PowerTailLaw(), ThreePointLaw())
    assert [law.name for law in laws] == ["rademacher", "gaussian", "goe", "power-tail", "three-point"]
    assert TruncationSpec(RAD, delta=0.05).eta == 6.0
    assert sample_stats(EnsembleConfig(n=3, law=RAD, seed=1), 4, s_list=(1,)).replicates == 4
    with pytest.raises(TypeError):
        MomentSpec(n=3, law=GOE, kind="goe")
    with pytest.raises(ValueError, match="n must be >= 1"):
        wigner_spec(RAD, 0)
    with pytest.raises(ValueError, match="truncation"):
        MomentSpec(3, GOE, truncation=TruncationSpec(GAU, delta=0.05))
    kinds = {
        "wigner": wigner_spec(GAU, 5),
        "goe": wigner_spec(GOE, 5),
        "truncated": truncated_spec(TruncationSpec(GOE, delta=0.05), 5),
        "dilute": MomentSpec(5, GOE, TruncationSpec(GOE, delta=0.05), 2),
    }
    assert {kind: spec.descriptor()["kind"] for kind, spec in kinds.items()} == {k: k for k in kinds}


@pytest.mark.parametrize("delta0", [math.nan, math.inf, -math.inf, 0.0, -3.0])
def test_truncation_refuses_a_delta0_outside_the_hypothesis(delta0):
    # E|a|^(12 + 2 delta0) is a moment beyond the twelfth only for a finite delta0 > 0
    with pytest.raises(ValueError, match="delta0 must be finite and positive"):
        TruncationSpec(RAD, delta=0.05, delta0=delta0)
    assert TruncationSpec(RAD, delta=0.05).delta0 is None
    assert TruncationSpec(RAD, delta=0.05, delta0=0.5).delta0 == 0.5


FIVE_LAWS = (RAD, GAU, GOE, PowerTailLaw(), ThreePointLaw())


@pytest.mark.parametrize("law", FIVE_LAWS, ids=lambda law: law.name)
def test_dilution_at_c_equal_n_is_the_wigner_ensemble(law):
    # at c = n the mask keeps every entry and the scale is 1/sqrt(n), so the
    # moments must equal the undiluted ones exactly (the GOE diagonal included)
    n = 6
    for s in range(1, 5):
        want = exact_trace_moment(wigner_spec(law, n), s).total
        assert exact_trace_moment(dilute_spec(law, n, n), s).total == want, (law.name, s)
        trunc = TruncationSpec(law, delta=0.05)
        want = exact_trace_moment(truncated_spec(trunc, n), s).total
        assert exact_trace_moment(MomentSpec(n, law, trunc, n), s).total == want, (law.name, s)


def test_truncated_goe_entry_moments_match_quadrature():
    # the sampler doubles the GOE diagonal and then truncates, so a loop entry
    # is N(0, 2 v^2) cut at U_n, and an off-diagonal one N(0, v^2) cut at U_n
    for n in (30, 1000):
        trunc = TruncationSpec(GOE, delta=0.05)
        spec = truncated_spec(trunc, n)
        cutoff = trunc.cutoff(n)
        for is_loop, var in ((True, 2 * float(GOE.v) ** 2), (False, float(GOE.v) ** 2)):
            density = lambda x, var=var: math.exp(-x * x / (2 * var)) / math.sqrt(2 * math.pi * var)
            for order in (2, 4, 6, 12):
                want = quadrature_moment(density, order, cutoff)
                assert spec.entry_moment(order, is_loop) == pytest.approx(want, rel=1e-10), (n, is_loop, order)


def test_by_nu_weight_breakdown_matches_per_walk_sum():
    # recompute the breakdown walk by walk, independently of the shape cache
    from wignerlab.walks import analyze, enumerate_even_walks

    spec = wigner_spec(RAD, 7)
    s = 3
    expect: dict[int, Fraction] = {}
    for walk in enumerate_even_walks(s):
        an = analyze(walk)
        w = Fraction(1)
        for (a, b), m in an.frame_passes.items():
            w *= spec.edge_moment(m, a == b)
        ff = 1
        for i in range(walk.n_vertices):
            ff *= spec.n - i
        if w * ff == 0:
            continue
        nu1 = sum(k - 1 for k in an.kappa_nu.values())  # s + 1 - |V|
        expect[nu1] = expect.get(nu1, Fraction(0)) + w * ff
    res = exact_trace_moment(spec, s)
    assert res.by_nu_weight == expect
    assert sum(expect.values()) == res.total


def _shapes_by_analyzer(s: int) -> tuple:
    """The shape table aggregated walk by walk from the full analyzer."""
    groups: dict[tuple, int] = {}
    for walk in enumerate_even_walks(s):
        an = analyze(walk)
        profile = tuple(sorted((m, a == b) for (a, b), m in an.frame_passes.items()))
        key = (profile, walk.n_vertices, max((m for m, _ in profile), default=0), an.max_exit_degree)
        groups[key] = groups.get(key, 0) + 1
    return tuple((*key, cnt) for key, cnt in sorted(groups.items()))


def _block_shapes(labels: np.ndarray) -> Counter:
    """How many walks of a (W, 2s + 1) label block take each shape.

    A shape is keyed here by the bytes of an int8 row: per pass count
    m = 1..2s the number of non-loop frame edges passed m times, the same
    for loops, then |V|, the largest pass count and the largest exit degree.
    A step is marked when its frame edge has an even pass count before it,
    as in analyze's exit degrees.
    """
    n_walks, width = labels.shape
    lab = labels.astype(np.intp)
    nv = int(lab.max()) + 1
    tails, heads = lab[:, :-1], lab[:, 1:]
    walk = np.arange(n_walks)[:, None]
    frame = (walk * nv + np.minimum(tails, heads)) * nv + np.maximum(tails, heads)
    odd = np.zeros(n_walks * nv * nv, bool)
    marked = np.empty(frame.shape, bool)
    for t in range(width - 1):
        marked[:, t] = ~odd[frame[:, t]]
        odd[frame[:, t]] = marked[:, t]
    passes = np.bincount(frame.ravel(), minlength=n_walks * nv * nv).reshape(n_walks, nv, nv)
    exits = np.bincount((walk * nv + tails)[marked], minlength=n_walks * nv).reshape(n_walks, nv)

    def per_count(cells: np.ndarray) -> np.ndarray:
        # per walk, how many of its cells hold each pass count 1..2s
        flat = (np.arange(n_walks)[:, None] * width + cells).ravel()
        return np.bincount(flat, minlength=n_walks * width).reshape(n_walks, width)[:, 1:]

    rows, cols = np.triu_indices(nv, 1)
    keys = np.column_stack(
        [
            per_count(passes[:, rows, cols]),
            per_count(passes.diagonal(0, 1, 2)),
            lab.max(1),
            passes.max((1, 2)),
            exits.max(1),
        ]
    ).astype(np.int8)
    # each key row's bytes, counted as one hashable value
    return Counter(keys.view(np.dtype((np.void, keys.shape[1]))).ravel().tolist())


@lru_cache(maxsize=None)
def walk_shapes(s: int) -> tuple[tuple[tuple, int, int, int, int], ...]:
    """The rows of `moments._walk_shapes(s)`, rebuilt from the even-walk search.

    A walk's shape is (sorted (pass count, is_loop) profile of the frame
    edges, |V|, max pass count, max exit degree): all that an exact trace
    moment and its four-way census split read from a walk.
    """
    groups: Counter = Counter()
    for block in _even_walk_blocks(s):
        groups.update(_block_shapes(block))
    rows = []
    for raw, count in groups.items():
        key = np.frombuffer(raw, np.int8).tolist()
        edges, loops, (n_vertices, max_passes, max_exit) = key[: 2 * s], key[2 * s : 4 * s], key[4 * s :]
        profile = []
        for m in range(1, 2 * s + 1):
            profile += [(m, False)] * edges[m - 1] + [(m, True)] * loops[m - 1]
        rows.append((tuple(profile), n_vertices, max_passes, max_exit, count))
    return tuple(sorted(rows))


def shape_table_csv() -> str:
    """The text of `moments.SHAPE_TABLE`, rebuilt for every s within the walk ceiling.

    Regenerate the committed file with
    PYTHONPATH=src:tests python -c "import test_moments as t; print(t.shape_table_csv(), end='')" > src/wignerlab/tables/walk_shapes.csv
    """
    lines = ["s,profile,n_vertices,max_passes,max_exit_degree,count"]
    for s in range(WALK_ENUMERATION_CEILING // 2 + 1):
        for profile, nv, maxm, d, count in walk_shapes(s):
            cell = " ".join(f"{m}{'L' if loop else ''}" for m, loop in profile)
            lines.append(f"{s},{cell},{nv},{maxm},{d},{count}")
    return "\n".join(lines) + "\n"


def test_shape_table_matches_walk_search():
    # every committed row, rebuilt from the walk search: byte for byte, and as read
    assert moments.SHAPE_TABLE.read_text() == shape_table_csv()
    for s in range(WALK_ENUMERATION_CEILING // 2 + 1):
        assert _walk_shapes(s) == walk_shapes(s)


def test_shape_table_is_package_data():
    # the reader finds the table through the package path, and every
    # package-data glob in pyproject.toml matches a file, this one among them
    package = Path(moments.__file__).parent
    assert moments.SHAPE_TABLE == Path(str(resources.files("wignerlab") / "tables" / "walk_shapes.csv"))
    assert moments.SHAPE_TABLE.is_file()
    pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())
    globs = pyproject["tool"]["setuptools"]["package-data"]["wignerlab"]
    matched = {glob: sorted(package.glob(glob)) for glob in globs}
    assert all(matched.values()), matched
    assert any(moments.SHAPE_TABLE in files for files in matched.values())


def test_shape_table_matches_analyzer():
    assert _walk_shapes(0) == (((), 1, 0, 0, 1),)
    for s in range(6):
        assert _walk_shapes(s) == _shapes_by_analyzer(s)


def test_shape_table_sizes():
    # (rows, walks) per s; s = 8 is past the table and the walk-enumeration ceiling
    for s, rows, walks in ((6, 226, 65_032), (7, 475, 1_039_064)):
        table = _walk_shapes(s)
        assert (len(table), sum(row[-1] for row in table)) == (rows, walks)
    assert sum(row[-1] for row in _walk_shapes(6)) == len(enumerate_even_walks(6))
    with pytest.raises(EnumerationCeilingError):
        _walk_shapes(8)
    with pytest.raises(EnumerationCeilingError):
        walk_shapes(8)


def test_moment_result_serialization():
    res = z_decomposition(wigner_spec(RAD, 20), 2, delta=0.1)
    d = res.to_dict()
    assert d["total_exact"] == str(res.total)
    assert set(d["z_parts"]) == {"1", "2", "3", "4"}


def test_z_decomposition_exercises_z2_and_z3():
    # small n with a tight degree cut pushes multiple-edge walks into Z3;
    # a loose cut pulls the same weight into Z2. The total never moves.
    spec = wigner_spec(RAD, 5)
    tight = z_decomposition(spec, 4, delta=0.05, c0=50.0)
    loose = z_decomposition(spec, 4, delta=0.95, c0=50.0)
    assert tight.total == loose.total == exact_trace_moment(spec, 4).total
    assert tight.z_parts[3] > 0 and loose.z_parts[2] > 0
    assert tight.z_parts[2] + tight.z_parts[3] == loose.z_parts[2] + loose.z_parts[3]
    # a tiny census constant sends self-intersecting walks to Z4
    strict = z_decomposition(spec, 4, delta=0.5, c0=1e-9)
    assert strict.z_parts[4] > 0
    assert sum(strict.z_parts.values()) == strict.total


def oracle_rows(spec, s):
    """(count * weight * n(n-1)...(n-|V|+1), nu weight, max passes, max exit degree) per shape row.

    Every row's weight is its own product of edge moments, each moment
    computed once per call.
    """
    edge_moments = {}
    rows = []
    for profile, nv, maxm, d, count in _walk_shapes(s):
        ff = math.perm(spec.n, nv)
        if ff == 0:
            continue
        w = Fraction(1)
        for edge in profile:
            if edge not in edge_moments:
                edge_moments[edge] = spec.edge_moment(*edge)
            w = w * edge_moments[edge]
            if w == 0:
                break
        if w == 0:
            continue
        rows.append((count * w * ff, s + 1 - nv, maxm, d))
    return rows


def row_by_row_oracle(spec, s, rows, delta=None, c0=None):
    """(total, by_nu_weight, z_parts) with the oracle_rows of (spec, s) added one by one.

    z_parts is None without a delta; c0 None takes the default constant.
    """
    if delta is not None and c0 is None:
        c0 = default_c0(float(spec.entry_moment(12)))
    total = 0
    by_weight = {}
    parts = {1: 0, 2: 0, 3: 0, 4: 0}
    for contrib, nu1, maxm, d in rows:
        total = total + contrib
        by_weight[nu1] = by_weight.get(nu1, 0) + contrib
        if delta is not None:
            if nu1 > c0 * s * s / spec.n:
                idx = 4
            elif maxm <= 2:
                idx = 1
            elif d <= spec.n**delta:
                idx = 2
            else:
                idx = 3
            parts[idx] = parts[idx] + contrib
    return total, by_weight, parts if delta is not None else None


#: negative even moments over coprime denominators, so that the profile
#: denominators have an lcm above the largest of them
COPRIME = CustomMomentLaw(
    even_moments=tuple(Fraction(p, q) for p, q in ((-2, 3), (5, 7), (11, 13), (-3, 17), (19, 23), (1, 29), (31, 37)))
)


def binned_specs(n):
    """The five benchmark ensembles and a dilute GOE, all rational, then two float-valued specs.

    At n = 10^6 a law with negative moments over coprime denominators joins them.
    """
    c = max(1, math.isqrt(n))
    specs = [
        wigner_spec(RAD, n),
        wigner_spec(GAU, n),
        wigner_spec(GOE, n),
        truncated_spec(TruncationSpec(ThreePointLaw(), delta=0.05), n),
        dilute_spec(RAD, n, c),
        dilute_spec(GOE, n, c),
        truncated_spec(TruncationSpec(GAU, delta=0.05), n),
        truncated_spec(TruncationSpec(PowerTailLaw(), delta=0.05), n),
    ]
    return specs + [wigner_spec(COPRIME, n)] if n == 10**6 else specs


def same_sum(got, want) -> bool:
    """Identical value and type for exact sums; float sums are added in another grouping."""
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(same_sum(got[k], v) for k, v in want.items())
    if isinstance(want, float):
        return got == pytest.approx(want, rel=1e-12)
    return got == want and type(got) is type(want)


#: (delta, c0) cuts: the default constant, a tight and a loose degree cut, a
#: census constant small enough to send every self-intersecting walk to Z4, and
#: a degree cut n^1 = n that exit degrees meet exactly
Z_CUTS = ((0.25, None), (0.05, 50.0), (0.95, 50.0), (0.5, 1e-9), (1.0, 50.0))


@pytest.mark.parametrize("s", range(8))
def test_binned_sum_matches_row_by_row_oracle(s):
    # at n = 15 and 105 the gaussian double factorials cancel against n, so profile denominators differ
    for n in (1, 2, 3, 7, 15, 105, 200, 10**6):
        for spec in binned_specs(n):
            rows = oracle_rows(spec, s)
            total, by_weight, _ = row_by_row_oracle(spec, s, rows)
            res = exact_trace_moment(spec, s)
            assert same_sum(res.total, total) and same_sum(res.by_nu_weight, by_weight), (n, spec.descriptor())
            for delta, c0 in Z_CUTS:
                z_total, z_weight, z_parts = row_by_row_oracle(spec, s, rows, delta, c0)
                z = z_decomposition(spec, s, delta, c0)
                assert same_sum(z.total, z_total) and same_sum(z.by_nu_weight, z_weight)
                assert same_sum(z.z_parts, z_parts), (n, delta, c0, spec.descriptor())
    if s == 4:
        # the cuts do fill all four parts
        z = [z_decomposition(wigner_spec(RAD, 7), s, delta, c0).z_parts for delta, c0 in Z_CUTS]
        assert z[0][1] > 0 and z[1][3] > 0 and z[2][2] > 0 and z[3][4] > 0


def float_pin_specs(n):
    """The five float-valued ensembles whose bits the exact layer keeps."""
    c = max(1, math.isqrt(n))
    return {
        "truncated-gaussian": truncated_spec(TruncationSpec(GAU, delta=0.05), n),
        "truncated-goe": truncated_spec(TruncationSpec(GOE, delta=0.05), n),
        "truncated-power-tail": truncated_spec(TruncationSpec(PowerTailLaw(), delta=0.05), n),
        "power-tail": wigner_spec(PowerTailLaw(), n),
        "dilute-power-tail": dilute_spec(PowerTailLaw(), n, c),
    }


#: (spec, n, s) -> float.hex() of the exact total and of Z1..Z4 at delta = 0.25
#: under the default c0, as the profile-by-profile float sum gives them; an
#: empty part is the integer 0
FLOAT_BITS = {
    ("truncated-gaussian", 7, 3): ("0x1.d9e444b5a77e6p-2", "0x1.1cbade8929659p-2", "0", "0x1.7a52cc58fc319p-3", "0"),
    ("truncated-gaussian", 7, 6): ("0x1.0ab36e50e8be4p-2", "0x1.57766ff1b1a5bp-5", "0", "0x1.bf8940a565131p-3", "0"),
    ("truncated-gaussian", 7, 7): ("0x1.0d94933d1517fp-2", "0x1.9110f3b61071ap-6", "0", "0x1.e90708036821dp-3", "0"),
    ("truncated-gaussian", 200, 3): ("0x1.f28d0adbeefcdp+3", "0x1.e9b8705b59601p+3", "0x1.1a935012b397cp-2", "0", "0"),
    ("truncated-gaussian", 200, 6): ("0x1.a0d1f1663b530p+2", "0x1.89fa0a2964c46p+2", "0x1.a10a7d83356b7p-3", "0x1.39f26a179c67bp-3", "0"),
    ("truncated-gaussian", 200, 7): ("0x1.552972e9ed68fp+2", "0x1.3df79a260853ap+2", "0x1.6d155dd7d7c02p-3", "0x1.7925baa4caea6p-3", "0"),
    ("truncated-gaussian", 1000000, 3): ("0x1.312d1c0001d5cp+16", "0x1.312c88000e6afp+16", "0", "0", "0x1.27ffe6d58d73ap-1"),
    ("truncated-gaussian", 1000000, 6): ("0x1.f78b06804adbcp+14", "0x1.f7878b017a77fp+14", "0", "0", "0x1.bdbf6831e5b7ap-1"),
    ("truncated-gaussian", 1000000, 7): ("0x1.99212d106efd5p+14", "0x1.991d654235cf4p+14", "0", "0", "0x1.e3e71c9705611p-1"),
    ("truncated-goe", 7, 3): ("0x1.15c31ba4258d7p-1", "0x1.4bda167373d0ap-2", "0", "0x1.bf5841a9ae947p-3", "0"),
    ("truncated-goe", 7, 6): ("0x1.6a5b30cea22a9p-2", "0x1.cc179ce287e8bp-5", "0", "0x1.30d83d32512d7p-2", "0"),
    ("truncated-goe", 7, 7): ("0x1.7faa2c2c81a55p-2", "0x1.19ecafb686fb0p-5", "0", "0x1.5c6c9635b0c60p-2", "0"),
    ("truncated-goe", 200, 3): ("0x1.f8f91eb7f31f1p+3", "0x1.effdf506f56a2p+3", "0x1.1f65361fb69e0p-2", "0", "0"),
    ("truncated-goe", 200, 6): ("0x1.abad98fa32941p+2", "0x1.94122dbb2db5ep+2", "0x1.aa2b57c5ef711p-3", "0x1.4942101aac54dp-3", "0"),
    ("truncated-goe", 200, 7): ("0x1.5f9281240c49bp+2", "0x1.477c16ae18217p+2", "0x1.75f75b9a5f522p-3", "0x1.8cd5f32425b48p-3", "0"),
    ("truncated-goe", 1000000, 3): ("0x1.312d58000da17p+16", "0x1.312c88000e6afp+16", "0", "0", "0x1.9ffffe6d11ee8p-1"),
    ("truncated-goe", 1000000, 6): ("0x1.f78bcc80d1ae6p+14", "0x1.f7878b017a77fp+14", "0", "0", "0x1.105fd5cd9d83cp+0"),
    ("truncated-goe", 1000000, 7): ("0x1.9921e8c1142b2p+14", "0x1.991d654235cf4p+14", "0", "0", "0x1.20dfb796f7c1ep+0"),
    ("truncated-power-tail", 7, 3): ("0x1.db7f9aa677fd1p+4", "0x1.80e60b46f5096p+4", "0", "0x1.6a663d7e0bceap+2", "0"),
    ("truncated-power-tail", 7, 6): ("0x1.54f3f9014a635p+9", "0x1.39d10aba55fc3p+8", "0", "0x1.7016e7483eca5p+8", "0"),
    ("truncated-power-tail", 7, 7): ("0x1.17f0a4cf5ceb6p+11", "0x1.952e9923fe169p+9", "0", "0x1.6549fd0cbacb8p+10", "0"),
    ("truncated-power-tail", 200, 3): ("0x1.f18595b3222f7p+9", "0x1.ee807994240e2p+9", "0x1.828e0f7f10a97p+2", "0", "0"),
    ("truncated-power-tail", 200, 6): ("0x1.997b38658f44ep+14", "0x1.91b51c700c812p+14", "0x1.1dd1edaa23184p+8", "0x1.a76a1f6d1bb2fp+7", "0"),
    ("truncated-power-tail", 200, 7): ("0x1.4d22536fe7154p+16", "0x1.454217af985e9p+16", "0x1.f4d6fad8bd647p+9", "0x1.fb46e54e9df23p+9", "0"),
    ("truncated-power-tail", 1000000, 3): ("0x1.312cec3332f03p+22", "0x1.312c88000e6afp+22", "0", "0", "0x1.90cc9214f6295p+4"),
    ("truncated-power-tail", 1000000, 6): ("0x1.f78a1007fbfa5p+26", "0x1.f7878b017a77fp+26", "0", "0", "0x1.428340c1306a8p+11"),
    ("truncated-power-tail", 1000000, 7): ("0x1.992033daeca79p+28", "0x1.991d654235cf4p+28", "0", "0", "0x1.674c5b6c26d6fp+13"),
    ("power-tail", 7, 3): ("0x1.df29ecc76f010p+4", "0x1.83eb1a1f58d0ep+4", "0", "0x1.6cfb4aa058c07p+2", "0"),
    ("power-tail", 7, 6): ("0x1.5a2d1dc245135p+9", "0x1.3ec29202f4781p+8", "0", "0x1.7597a98195ae9p+8", "0"),
    ("power-tail", 7, 7): ("0x1.1cf0568cab09fp+11", "0x1.9ca365c24b441p+9", "0", "0x1.6b8efa383071bp+10", "0"),
    ("power-tail", 200, 3): ("0x1.f185c481b1485p+9", "0x1.ee80a7ef9db24p+9", "0x1.828e4909cb00bp+2", "0", "0"),
    ("power-tail", 200, 6): ("0x1.997b859ac70f5p+14", "0x1.91b567c1188e6p+14", "0x1.1dd23313b23d9p+8", "0x1.a76a86afdbfefp+7", "0"),
    ("power-tail", 200, 7): ("0x1.4d229cbf7523fp+16", "0x1.45425ed5324bfp+16", "0x1.f4d7842918439p+9", "0x1.fb4770f853ad0p+9", "0"),
    ("power-tail", 1000000, 3): ("0x1.312cec3332f03p+22", "0x1.312c88000e6afp+22", "0", "0", "0x1.90cc9214f629cp+4"),
    ("power-tail", 1000000, 6): ("0x1.f78a1007fbfa5p+26", "0x1.f7878b017a77fp+26", "0", "0", "0x1.428340c1306adp+11"),
    ("power-tail", 1000000, 7): ("0x1.992033daeca79p+28", "0x1.991d654235cf4p+28", "0", "0", "0x1.674c5b6c26d73p+13"),
    ("dilute-power-tail", 7, 3): ("0x1.6be8a079c6984p+5", "0x1.83eb1a1f58d0ep+4", "0", "0x1.53e626d4345fbp+4", "0"),
    ("dilute-power-tail", 7, 6): ("0x1.544361bfc4986p+11", "0x1.3ec29202f4781p+8", "0", "0x1.2c6b0f7f66096p+11", "0"),
    ("dilute-power-tail", 7, 7): ("0x1.9787166a857c9p+13", "0x1.9ca365c24b441p+9", "0", "0x1.7dbce00e60c86p+13", "0"),
    ("dilute-power-tail", 200, 3): ("0x1.0d10edbbe074cp+10", "0x1.ee80a7ef9db24p+9", "0x1.5d099c4119ba3p+6", "0", "0"),
    ("dilute-power-tail", 200, 6): ("0x1.05c6a4e25efafp+15", "0x1.91b567c1188e6p+14", "0x1.0f6660c7420a9p+12", "0x1.aff24e8ea726ep+11", "0"),
    ("dilute-power-tail", 200, 7): ("0x1.c4ee1f7b24d21p+16", "0x1.45425ed5324bfp+16", "0x1.e377d0a6835ecp+13", "0x1.0cf31a448868dp+14", "0"),
    ("dilute-power-tail", 1000000, 3): ("0x1.318b60188ec83p+22", "0x1.312c88000e6afp+22", "0", "0", "0x1.7b60620174bfdp+12"),
    ("dilute-power-tail", 1000000, 6): ("0x1.f971ae44ee31fp+26", "0x1.f7878b017a77fp+26", "0", "0", "0x1.ea234373b9fcep+18"),
    ("dilute-power-tail", 1000000, 7): ("0x1.9b0d7b14f16e0p+28", "0x1.991d654235cf4p+28", "0", "0", "0x1.f015d2bb9ec3bp+20"),
}


def hex_or_repr(x) -> str:
    return x.hex() if isinstance(x, float) else repr(x)


@pytest.mark.parametrize("name", sorted(float_pin_specs(1)))
def test_float_specs_keep_their_bits(name):
    for n in (7, 200, 10**6):
        spec = float_pin_specs(n)[name]
        for s in (3, 6, 7):
            total = exact_trace_moment(spec, s).total
            parts = z_decomposition(spec, s, 0.25).z_parts
            got = tuple(hex_or_repr(x) for x in (total, *(parts[i] for i in (1, 2, 3, 4))))
            assert got == FLOAT_BITS[name, n, s], (n, s)


def test_import_builds_no_shape_table():
    # the shape table and its grouping by profile are built on first use, never at import
    src = str(Path(moments.__file__).resolve().parents[1])
    script = (
        "import wignerlab, wignerlab.cli\n"
        "from wignerlab import moments\n"
        "print(moments._walk_shapes.cache_info().currsize, moments._profile_rows.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 0\n"


@pytest.mark.parametrize("law", [RademacherLaw, GaussianLaw, GoeLaw, PowerTailLaw, ThreePointLaw])
def test_laws_refuse_a_negative_scale(law):
    # a negative scale would be a second spelling of its absolute value; zero stays allowed
    with pytest.raises(ValueError, match="must be >= 0"):
        law(-1)
    assert law(0).moment(2) == 0


@pytest.mark.parametrize("law", [RademacherLaw, GaussianLaw, GoeLaw, PowerTailLaw, ThreePointLaw])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_laws_refuse_a_non_finite_scale(law, value):
    # a NaN scale passes `< 0`; at power-tail it made x0 NaN, and +inf made it inf
    with pytest.raises(ValueError, match="must be finite"):
        law(value)


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_power_tail_refuses_a_non_finite_gamma(gamma):
    # NaN passes `gamma <= 2`, and either value made x0 NaN
    with pytest.raises(ValueError, match="gamma must be finite"):
        PowerTailLaw(v=1.0, gamma=gamma)


@pytest.mark.parametrize("q", [Fraction(3, 4), Fraction(-1, 8)], ids=str)
def test_three_point_refuses_q_outside_the_unit_half(q):
    # at q = 3/4 moment(2) read 6 for a law whose every sample is +-2; at -1/8 it read -1
    with pytest.raises(ValueError, match=r"q must lie in \[0, 1/2\]"):
        ThreePointLaw(q=q)


@pytest.mark.parametrize("q", [Fraction(0), Fraction(1, 2)], ids=str)
def test_three_point_q_at_the_ends_is_its_samples_law(q):
    # q = 0 is the point mass at 0, q = 1/2 the two spikes alone: moment(2) is E a^2 exactly
    law = ThreePointLaw(q=q)
    samples = law.sample(np.random.default_rng(0), 1000)
    assert set(np.abs(samples)) == {float(law.spike) if q else 0.0}
    assert law.moment(2) == Fraction(float(np.mean(samples**2)))


def test_walk_sum_identity_for_arbitrary_moment_assignments():
    # the walk sum against the index-tuple sum is a formal identity: it must
    # hold for any assignment of even edge moments, not only true moments
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.lists(st.fractions(min_value=-3, max_value=3), min_size=3, max_size=3),
    )
    def inner(n, s, ms):
        law = CustomMomentLaw(even_moments=tuple(ms))
        spec = wigner_spec(law, n)
        assert exact_trace_moment(spec, s).total == brute_force_trace_moment(spec, s)

    inner()


def tuple_passes(tup):
    """Pass count of each undirected edge of the closed index tuple tup."""
    passes: dict[tuple[int, int], int] = {}
    closed = tup + (tup[0],)
    for t in range(len(tup)):
        a, b = closed[t], closed[t + 1]
        e = (a, b) if a <= b else (b, a)
        passes[e] = passes.get(e, 0) + 1
    return passes


def per_tuple_oracle(spec, s):
    """The index-tuple sum weighted tuple by tuple, with no tallying."""
    n = spec.n
    total = 0
    for tup in product(range(n), repeat=2 * s):
        w = Fraction(1)
        for (a, b), m in tuple_passes(tup).items():
            w = w * spec.edge_moment(m, a == b)
            if w == 0:
                break
        total = total + w
    return total


def oracle_specs(n):
    trunc = TruncationSpec(ThreePointLaw(), delta=0.05)
    return [
        wigner_spec(RAD, n),
        wigner_spec(GAU, n),
        wigner_spec(GOE, n),
        truncated_spec(trunc, n),
        dilute_spec(RAD, n, 1),
        dilute_spec(RAD, n, n),
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_tallied_oracle_matches_per_tuple_oracle(n, s):
    for spec in oracle_specs(n):
        want = per_tuple_oracle(spec, s)
        got = brute_force_trace_moment(spec, s)
        assert got == want and type(got) is type(want), spec.descriptor()
    # float moments: the tallied sum adds in another order, so equal to rounding
    for law in (GAU, PowerTailLaw()):
        spec = truncated_spec(TruncationSpec(law, delta=0.05), n)
        want = per_tuple_oracle(spec, s)
        got = brute_force_trace_moment(spec, s)
        assert isinstance(got, float) and got == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tuple_profiles_cover_every_tuple(n):
    for s in range(1, 5):
        rows = _tuple_profiles(n, s)
        assert sum(count for _profile, count in rows) == n ** (2 * s)
        assert all(sum(m for m, _loop in profile) == 2 * s for profile, _count in rows)
    assert len(_tuple_profiles(4, 4)) == 53


def counter_tally_oracle(n, s):
    """The edge-profile tally one tuple at a time, with a Counter."""
    counts: Counter = Counter()
    for tup in product(range(n), repeat=2 * s):
        counts[tuple(sorted((m, a == b) for (a, b), m in tuple_passes(tup).items()))] += 1
    return tuple(sorted(counts.items()))


@pytest.mark.parametrize(
    "n, s", [(n, s) for n in (1, 2, 3, 4) for s in (1, 2, 3, 4)] + [(2, 5), (2, 6)]
)
def test_tuple_profiles_match_counter_tally(n, s):
    rows = _tuple_profiles(n, s)
    assert rows == counter_tally_oracle(n, s)
    assert all(type(count) is int for _profile, count in rows)
    assert all(type(m) is int and type(loop) is bool for profile, _count in rows for m, loop in profile)


def test_tuple_profiles_tally_one_block_at_a_time():
    import tracemalloc

    _tuple_profiles.cache_clear()
    tracemalloc.start()
    try:
        _tuple_profiles(4, 4)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block per first index peaks near 1.3 MB; a single block over all
    # 65,536 tuples peaks near 3.3 MB with int8 pass counts, past 8 MB with int64
    assert peak < 2 * 2**20, peak


def test_tuple_profiles_refuse_keys_past_int64():
    with pytest.raises(ValueError, match="exceed int64"):
        _tuple_profiles(1, 32)
    assert _tuple_profiles(1, 31) == ((((62, True),), 1),)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_brute_force_at_s_zero_and_below(n):
    for spec in oracle_specs(n):
        want = exact_trace_moment(spec, 0).total
        got = brute_force_trace_moment(spec, 0)
        assert got == want == n and type(got) is type(want), spec.descriptor()
        with pytest.raises(ValueError, match="s must be >= 0"):
            exact_trace_moment(spec, -1)
        with pytest.raises(ValueError, match="s must be >= 0"):
            brute_force_trace_moment(spec, -1)


def test_brute_force_oracle_is_independent_of_walks(monkeypatch):
    want = {
        (n, s): [per_tuple_oracle(spec, s) for spec in oracle_specs(n)]
        for n in (2, 3)
        for s in (2, 3)
    }

    def refuse(*_args):
        raise AssertionError("the brute-force oracle must not read the walk layer")

    monkeypatch.setattr(moments, "_walk_shapes", refuse)
    _tuple_profiles.cache_clear()
    for (n, s), values in want.items():
        assert [brute_force_trace_moment(spec, s) for spec in oracle_specs(n)] == values


def test_criterion_7_enumerates_each_n_s_once():
    _tuple_profiles.cache_clear()
    assert criterion_7_moment_oracle().passed
    info = _tuple_profiles.cache_info()
    assert info.misses == 16 and info.hits == 112 - 16
