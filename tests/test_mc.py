import contextlib
import ctypes
import json
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from wignerlab import cli, mc
from wignerlab.laws import GaussianLaw, GoeLaw, PowerTailLaw, RademacherLaw, ThreePointLaw
from wignerlab.mc import (
    EnsembleConfig,
    sample_entries,
    sample_matrix,
    sample_stats,
    spectral_stats,
    tail_curve,
    trace_powers,
    truncation_event_rate,
    universality_compare,
    wilson_interval,
)
from wignerlab.moments import TruncationSpec, exact_trace_moment

RAD = RademacherLaw(Fraction(1, 2))


def test_sampling_deterministic_and_symmetric():
    cfg = EnsembleConfig(n=20, law=RAD, seed=123)
    a = sample_matrix(cfg, 7)
    b = sample_matrix(cfg, 7)
    assert np.array_equal(a, b)
    assert np.array_equal(a, a.T)
    c = sample_matrix(cfg, 8)
    assert not np.array_equal(a, c)
    # a different seed changes every replicate
    other = sample_matrix(EnsembleConfig(n=20, law=RAD, seed=124), 7)
    assert not np.array_equal(a, other)


def test_entry_scale_and_values():
    cfg = EnsembleConfig(n=16, law=RAD, seed=5)
    mat = sample_matrix(cfg, 0)
    vals = np.unique(np.abs(mat[np.triu_indices(16)]))
    assert np.allclose(vals, 0.5 / math.sqrt(16))


def test_sign_pattern_uniformity():
    # n=2 Rademacher: 8 equally likely sign patterns of (a11, a12, a22)
    cfg = EnsembleConfig(n=2, law=RAD, seed=42)
    counts = {}
    reps = 100_000
    for rep in range(reps):
        m = sample_matrix(cfg, rep)
        key = (m[0, 0] > 0, m[0, 1] > 0, m[1, 1] > 0)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 8
    chi2, p = sps.chisquare(list(counts.values()))
    assert p > 0.001


def test_dilution_c_equals_n_matches_wigner_exactly():
    dil = EnsembleConfig(n=15, law=RAD, dilution_c=15, seed=9)
    wig = EnsembleConfig(n=15, law=RAD, seed=9)
    for rep in (0, 3):
        assert np.array_equal(sample_matrix(dil, rep), sample_matrix(wig, rep))


def test_seed_range():
    # a Philox key word holds [0, 2^64): a seed outside it is refused, not masked
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            EnsembleConfig(n=3, law=RAD, seed=seed)
    low, high = (sample_matrix(EnsembleConfig(n=3, law=RAD, seed=seed), 0) for seed in (0, 2**64 - 1))
    assert not np.array_equal(low, high)


def test_dilution_sparsity():
    cfg = EnsembleConfig(n=200, law=RademacherLaw(Fraction(1)), dilution_c=10, seed=2)
    mat = sample_matrix(cfg, 0)
    frac_nonzero = np.mean(mat[np.triu_indices(200)] != 0)
    assert 0.03 <= frac_nonzero <= 0.07  # c/n = 0.05


def test_truncated_sampling_respects_cutoff():
    law = PowerTailLaw(v=1.0, gamma=24.0)
    tr = TruncationSpec(law, delta=0.05)
    cfg = EnsembleConfig(n=60, law=law, truncation=tr, seed=10)
    cutoff = tr.cutoff(60)
    for rep in range(5):
        mat = sample_matrix(cfg, rep)
        assert np.max(np.abs(mat)) * math.sqrt(60) <= cutoff + 1e-12


def test_goe_diagonal_variance():
    law = GoeLaw(Fraction(1))
    cfg = EnsembleConfig(n=40, law=law, seed=77)
    diag = []
    off = []
    for rep in range(300):
        m = sample_matrix(cfg, rep) * math.sqrt(40)
        diag.extend(np.diag(m))
        off.extend(m[np.triu_indices(40, k=1)])
    ratio = np.var(diag) / np.var(off)
    assert 1.7 <= ratio <= 2.3


def test_spectral_stats_trivial_cases():
    d = np.diag([1.0, -3.0, 2.0])
    out = spectral_stats(d, (1, 2))
    assert out["lambda_max"] == pytest.approx(3.0)
    assert out["traces"][1] == pytest.approx(1 + 9 + 4)
    assert out["traces"][2] == pytest.approx(1 + 81 + 16)
    a = 0.7
    two = np.array([[0.0, a], [a, 0.0]])
    out2 = spectral_stats(two, (2,))
    assert out2["lambda_max"] == pytest.approx(a)
    assert out2["traces"][2] == pytest.approx(2 * a**4)


def test_trace_matches_matrix_powers():
    rng = np.random.Generator(np.random.Philox(key=np.array([3, 1], dtype=np.uint64)))
    for n in (4, 6, 8):
        m = rng.standard_normal((n, n))
        m = (m + m.T) / 2
        out = spectral_stats(m, (1, 2, 3, 4))
        power = np.eye(n)
        for s in (1, 2, 3, 4):
            power = power @ m @ m
            assert out["traces"][s] == pytest.approx(np.trace(power), rel=1e-8)


def test_mc_agrees_with_exact_moments():
    cfg = EnsembleConfig(n=30, law=RAD, seed=314)
    st = sample_stats(cfg, 3000, s_list=(2, 3, 4))
    spec = cfg.moment_spec()
    for s in (2, 3, 4):
        exact = float(exact_trace_moment(spec, s).total)
        assert abs(st.zscore_against(s, exact)) <= 4


def test_mc_agrees_with_exact_moments_all_ensembles():
    # the walk sum serves every sampling configuration: GOE diagonals,
    # dilution masks and entry truncation included
    pt = PowerTailLaw(v=1.0, gamma=24.0)
    goe = GoeLaw(Fraction(1, 2))
    configs = [
        EnsembleConfig(n=30, law=goe, seed=41),
        EnsembleConfig(n=30, law=RademacherLaw(Fraction(1)), dilution_c=10, seed=42),
        EnsembleConfig(n=30, law=pt, truncation=TruncationSpec(pt, delta=0.05), seed=43),
        # the doubled GOE diagonal holds under dilution and under truncation
        EnsembleConfig(n=30, law=goe, dilution_c=10, seed=44),
        EnsembleConfig(n=30, law=goe, truncation=TruncationSpec(goe, delta=0.05), seed=45),
    ]
    for cfg in configs:
        st = sample_stats(cfg, 2500, s_list=(1, 2, 3, 4))
        spec = cfg.moment_spec()
        for s in (1, 2, 3, 4):
            exact = float(exact_trace_moment(spec, s).total)
            z = st.zscore_against(s, exact)
            assert abs(z) <= 4, (cfg.law.name, s, z)


def _scatter_assembly(config, replicate):
    """sample_matrix as first written: every index rebuilt per draw, and a
    zeroed matrix filled by two scatters over np.triu_indices."""
    n = config.n
    rng, vals = sample_entries(config, replicate)
    iu = np.triu_indices(n)
    if isinstance(config.law, GoeLaw):
        vals = vals.copy()
        vals[np.flatnonzero(iu[0] == iu[1])] *= math.sqrt(2.0)
    if config.truncation is not None:
        cutoff = config.truncation.cutoff(n)
        vals = np.where(np.abs(vals) <= cutoff, vals, 0.0)
    if config.dilution_c is not None:
        mask = rng.random(vals.shape[0]) < config.dilution_c / n
        vals = vals * mask / math.sqrt(config.dilution_c)
    else:
        vals = vals / math.sqrt(n)
    mat = np.zeros((n, n))
    mat[iu] = vals
    mat.T[iu] = vals
    return mat


def test_goe_draws_match_rebuilt_diagonal_index():
    # the cached gather index gives the draws that the scatter assembly
    # gave, for every law, dilution and truncation
    pt = PowerTailLaw(v=1.0, gamma=24.0)
    laws = [RAD, GaussianLaw(Fraction(1, 2)), GoeLaw(Fraction(1, 2)), pt, ThreePointLaw()]
    for n in (1, 2, 7, 30, 200):
        configs = [EnsembleConfig(n=n, law=law, seed=60 + n) for law in laws]
        for law in (RAD, laws[2]):
            configs.append(EnsembleConfig(n=n, law=law, dilution_c=max(1, n // 3), seed=61))
        for law in (pt, RAD):
            configs.append(EnsembleConfig(n=n, law=law, truncation=TruncationSpec(law, delta=0.05), seed=62))
        for cfg in configs:
            for rep in range(2):
                assert np.array_equal(sample_matrix(cfg, rep), _scatter_assembly(cfg, rep)), (n, cfg)
    index = mc._symmetric_gather(30)
    assert index is mc._symmetric_gather(30) and index is not mc._symmetric_gather(31)
    assert not index.flags.writeable


def _blas_thread_calls():
    calls = mc._openblas_threads()
    if calls is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread setter")
    return calls


@pytest.fixture
def two_blas_threads():
    """OpenBLAS at two threads; restored after."""
    get, set_ = _blas_thread_calls()
    before = get()
    set_(2)
    yield get
    set_(before)


def test_blas_pin_is_restored_after_sample_stats(monkeypatch, two_blas_threads):
    # n = 100 stacks three draws per eigen-solve, so 7 replicates make 3
    # calls, in any order across the replicate threads
    get = two_blas_threads
    seen = []
    real = mc.spectral_stats

    def recording(stack, s_list):
        seen.append((len(stack), get()))
        return real(stack, s_list)

    monkeypatch.setattr(mc, "spectral_stats", recording)
    sample_stats(EnsembleConfig(n=100, law=RAD, seed=1), 7)
    assert sorted(seen) == [(1, 1), (3, 1), (3, 1)] and get() == 2

    def failing(stack, s_list):
        raise RuntimeError("not a LinAlgError")

    monkeypatch.setattr(mc, "spectral_stats", failing)
    with pytest.raises(RuntimeError):
        sample_stats(EnsembleConfig(n=100, law=RAD, seed=1), 7)
    assert get() == 2


def test_blas_pin_covers_universality(monkeypatch, two_blas_threads):
    get = two_blas_threads
    seen = []
    real = mc.trace_powers

    def recording(mat, s_list):
        seen.append(get())
        return real(mat, s_list)

    monkeypatch.setattr(mc, "trace_powers", recording)
    a, b = EnsembleConfig(n=8, law=RAD, seed=1), EnsembleConfig(n=8, law=RAD, seed=2)
    universality_compare(a, b, s=2, replicates=3)
    assert seen == [1] * 6 and get() == 2


def test_universality_bits_do_not_depend_on_blas_threads(two_blas_threads):
    a = EnsembleConfig(n=200, law=RAD, seed=5)
    b = EnsembleConfig(n=200, law=GaussianLaw(Fraction(1, 2)), seed=6)
    two = universality_compare(a, b, s=4, replicates=20)
    _, set_ = _blas_thread_calls()
    set_(1)
    one = universality_compare(a, b, s=4, replicates=20)
    assert one == two


def test_blas_pin_restores_once_when_holders_leave_out_of_order(two_blas_threads):
    # two holders that overlap, as two threads in sample_stats would: the
    # count stays 1 until the last one leaves, then returns to 2
    get = two_blas_threads
    first, second = mc._one_blas_thread(), mc._one_blas_thread()
    first.__enter__()
    second.__enter__()
    assert get() == 1
    first.__exit__(None, None, None)
    assert get() == 1
    second.__exit__(None, None, None)
    assert get() == 2


def _fresh_python(script: str, **env_vars: str) -> str:
    """stdout of `script` in a new interpreter with no OPENBLAS_THREAD_TIMEOUT of its own."""
    src = str(Path(mc.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env={**env, **env_vars}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_sets_the_blas_spin_timeout_unless_the_caller_did():
    script = "import os, wignerlab\nprint(os.environ['OPENBLAS_THREAD_TIMEOUT'])\n"
    assert _fresh_python(script) == "20\n"
    assert _fresh_python(script, OPENBLAS_THREAD_TIMEOUT="12") == "12\n"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs per-thread CPU times from /proc")
def test_idle_blas_workers_burn_no_cpu_after_import():
    # with OpenBLAS's default timeout its second thread spins about 0.1 s
    # (10 clock ticks) through the imports; here it must sleep at once
    script = (
        "import os, time, wignerlab\n"
        "time.sleep(0.2)\n"
        "ticks = 0\n"
        "for tid in os.listdir('/proc/self/task'):\n"
        "    if tid != str(os.getpid()):\n"
        "        stat = open(f'/proc/self/task/{tid}/stat').read().rsplit(')', 1)[1].split()\n"
        "        ticks += int(stat[11]) + int(stat[12])\n"
        "print(ticks)\n"
    )
    assert int(_fresh_python(script)) <= 2


class _NoOpenBlas:
    def __init__(self, path):
        pass

    def __getattr__(self, name):
        raise AttributeError(name)


def _unloadable(path):
    raise OSError(f"cannot load {path}")


@pytest.mark.parametrize("cdll", [_NoOpenBlas, _unloadable], ids=["no-symbols", "no-library"])
def test_blas_pin_is_silent_without_a_setter(monkeypatch, cdll):
    cfg = EnsembleConfig(n=12, law=RAD, seed=4)
    want = sample_stats(cfg, 5, s_list=(1, 2))
    mc._openblas_threads.cache_clear()
    mc._linalg_symbol.cache_clear()
    monkeypatch.setattr(mc.ctypes, "CDLL", cdll)
    try:
        assert mc._openblas_threads() is None
        got = sample_stats(cfg, 5, s_list=(1, 2))
    finally:
        mc._openblas_threads.cache_clear()
        mc._linalg_symbol.cache_clear()
    assert got.rows() == want.rows()


def test_blas_pin_keeps_sample_stats_bits(monkeypatch, two_blas_threads):
    cfg = EnsembleConfig(n=200, law=RAD, seed=12)
    pinned = sample_stats(cfg, 20, s_list=(1, 4))
    monkeypatch.setattr(mc, "_one_blas_thread", contextlib.nullcontext)
    free = sample_stats(cfg, 20, s_list=(1, 4))
    assert np.array_equal(pinned.lambda_max, free.lambda_max)
    assert all(np.array_equal(pinned.traces[s], free.traces[s]) for s in (1, 4))


def _trace_configs(n):
    pt = PowerTailLaw(v=1.0, gamma=24.0)
    return [
        EnsembleConfig(n=n, law=RAD, seed=70),
        EnsembleConfig(n=n, law=GoeLaw(Fraction(1, 2)), seed=71),
        EnsembleConfig(n=n, law=RademacherLaw(Fraction(1)), dilution_c=max(1, n // 3), seed=72),
        EnsembleConfig(n=n, law=pt, truncation=TruncationSpec(pt, delta=0.05), seed=73),
    ]


def test_trace_powers_match_eigenvalue_sums():
    s_list = tuple(range(7))
    for n in (1, 2, 6, 30, 200):
        for cfg in _trace_configs(n):
            mat = sample_matrix(cfg, 0)
            got = trace_powers(mat, s_list)
            want = spectral_stats(mat, s_list)["traces"]
            assert got[0] == n
            for s in s_list:
                assert math.isclose(got[s], want[s], rel_tol=1e-12), (n, cfg.law.name, s)


def _universality_by_eigenvalues(config_a, config_b, s, replicates):
    """universality_compare with its traces taken from eigenvalues (sample_stats)."""
    a = sample_stats(config_a, replicates, s_list=(s,))
    b = sample_stats(config_b, replicates, s_list=(s,))
    n = config_a.n
    mean_a = a.trace_mean(s) / n
    mean_b = b.trace_mean(s) / n
    sd_a = a.trace_std(s) / n
    sd_b = b.trace_std(s) / n
    pooled_sd = math.sqrt((sd_a**2 + sd_b**2) / 2)
    se = math.sqrt(sd_a**2 / len(a.traces[s]) + sd_b**2 / len(b.traces[s]))
    diff = mean_a - mean_b
    return {
        "n": n,
        "s": s,
        "replicates": min(a.replicates, b.replicates),
        "failed_replicates_a": a.failed_replicates,
        "failed_replicates_b": b.failed_replicates,
        "mean_a": mean_a,
        "mean_b": mean_b,
        "difference": diff,
        "pooled_sd": pooled_sd,
        "se_of_difference": se,
        "z_vs_se": diff / se if se else None,
        "effect_in_sd": diff / pooled_sd if pooled_sd else None,
        "agrees_within_3sd": abs(diff) <= 3 * pooled_sd,
    }


def test_universality_matches_eigenvalue_oracle():
    pairs = [
        (EnsembleConfig(n=40, law=RAD, seed=81), EnsembleConfig(n=40, law=GaussianLaw(Fraction(1, 2)), seed=82), 3),
        (_trace_configs(30)[1], _trace_configs(30)[2], 4),
        (_trace_configs(12)[3], EnsembleConfig(n=12, law=RAD, seed=83), 5),
    ]
    for a, b, s in pairs:
        got = universality_compare(a, b, s=s, replicates=150)
        want = _universality_by_eigenvalues(a, b, s, 150)
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float):
                assert math.isclose(got[key], value, rel_tol=1e-9), key
            else:
                assert got[key] == value and type(got[key]) is type(value), key


def test_universality_makes_no_eigen_solve(monkeypatch):
    def no_eigen(*args, **kwargs):
        raise AssertionError("universality_compare called eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigen)
    a = EnsembleConfig(n=20, law=RAD, seed=1)
    b = EnsembleConfig(n=20, law=GaussianLaw(Fraction(1, 2)), seed=2)
    rep = universality_compare(a, b, s=4, replicates=30)
    assert rep["replicates"] == 30


@pytest.mark.parametrize("s", [-1, -3])
def test_a_negative_trace_power_is_refused(monkeypatch, s):
    # A^(-1) is no matrix product: the refusal comes before any draw
    mat = sample_matrix(EnsembleConfig(n=20, law=RAD, seed=1), 0)
    with pytest.raises(ValueError, match="s must be >= 0"):
        trace_powers(mat, (2, s))

    def no_draw(*args, **kwargs):
        raise AssertionError("universality_compare drew a matrix")

    monkeypatch.setattr(mc, "sample_matrix", no_draw)
    a, b = EnsembleConfig(n=20, law=RAD, seed=1), EnsembleConfig(n=20, law=RAD, seed=2)
    with pytest.raises(ValueError, match="s must be >= 0"):
        universality_compare(a, b, s=s, replicates=10)


@pytest.mark.parametrize("s", [-1, -3])
def test_spectral_and_sample_stats_refuse_a_negative_power(monkeypatch, s):
    # Tr A^(-2) is no trace power of the moment method; one near-singular
    # draw would put A's inverse into the mean. The refusal comes before any draw
    mat = sample_matrix(EnsembleConfig(n=5, law=RAD, seed=1), 0)
    with pytest.raises(ValueError, match="s must be >= 0"):
        spectral_stats(mat, (1, s))
    with pytest.raises(ValueError, match="s must be >= 0"):
        spectral_stats(mat[np.newaxis], (s,))

    def no_draw(*args, **kwargs):
        raise AssertionError("sample_stats drew a matrix")

    monkeypatch.setattr(mc, "sample_matrix", no_draw)
    for replicates in (0, 10):
        with pytest.raises(ValueError, match="s must be >= 0"):
            sample_stats(EnsembleConfig(n=5, law=RAD, seed=1), replicates, s_list=(2, s))


def test_spectral_stats_traces_follow_s_list_order():
    # the traces multiply lambda^2 up in ascending s; the keys keep the caller's order
    mat = sample_matrix(EnsembleConfig(n=8, law=RAD, seed=4), 0)
    eigs = np.linalg.eigvalsh(mat)
    traces = spectral_stats(mat, (3, 0, 1, 3))["traces"]
    assert list(traces) == [3, 0, 1]
    assert traces[0] == 8.0 and traces[1] == float(np.sum(eigs**2))
    assert math.isclose(traces[3], float(np.sum(eigs**6)), rel_tol=1e-14)


def test_sample_stats_reproducible():
    cfg = EnsembleConfig(n=10, law=RAD, seed=1000)
    a = sample_stats(cfg, 50, s_list=(1, 2))
    b = sample_stats(cfg, 50, s_list=(1, 2))
    assert np.array_equal(a.lambda_max, b.lambda_max)
    assert np.array_equal(a.traces[2], b.traces[2])
    assert a.rows() == b.rows()


def _poisoned_spectral_stats(monkeypatch, config, bad_replicates):
    """Make every eigen-solve whose stack holds one of the bad replicates'
    draws raise LinAlgError, in sample_stats and in the tail's own statistic;
    returns the list of stack sizes that spectral_stats solved."""
    real, real_tail = mc.spectral_stats, mc._tail_stats
    bad = [sample_matrix(config, rep) for rep in bad_replicates]
    sizes = []

    def poisoned(stack):
        return any(np.array_equal(mat, b) for mat in stack for b in bad)

    def flaky(stack, s_list):
        sizes.append(len(stack))
        if poisoned(stack):
            raise np.linalg.LinAlgError("eigvalsh did not converge")
        return real(stack, s_list)

    def flaky_tail(stack):
        if poisoned(stack):
            raise np.linalg.LinAlgError("reduction failed")
        return real_tail(stack)

    monkeypatch.setattr(mc, "spectral_stats", flaky)
    monkeypatch.setattr(mc, "_tail_stats", flaky_tail)
    return sizes


def test_sample_stats_counts_filled_replicates(monkeypatch):
    # all ten draws share one stack; it is redone one draw at a time
    cfg = EnsembleConfig(n=6, law=RAD, seed=2)
    sizes = _poisoned_spectral_stats(monkeypatch, cfg, [3])
    stats = sample_stats(cfg, 10, s_list=(1, 2))
    assert sizes == [10] + [1] * 10
    assert stats.replicates == 9
    assert stats.failed_replicates == [3]
    assert len(stats.lambda_max) == 9
    assert all(len(stats.traces[s]) == 9 for s in (1, 2))
    assert len(stats.rows()) == 9


def test_rows_keep_their_replicate_index_past_a_dropped_one(monkeypatch):
    cfg = EnsembleConfig(n=10, law=RAD, seed=7)
    clean = sample_stats(cfg, 6, s_list=(1, 2))
    assert [row["replicate"] for row in clean.rows()] == list(range(6))
    _poisoned_spectral_stats(monkeypatch, cfg, [3])
    stats = sample_stats(cfg, 6, s_list=(1, 2))
    rows = stats.rows()
    assert [row["replicate"] for row in rows] == [0, 1, 2, 4, 5]
    want = {row["replicate"]: row for row in clean.rows()}
    assert rows == [want[row["replicate"]] for row in rows]


def test_failure_mid_batch_drops_only_the_failing_replicates(monkeypatch):
    # n = 30 stacks 36 draws: replicates 0-35, 36-71 and 72-99
    cfg = EnsembleConfig(n=30, law=GoeLaw(Fraction(1, 2)), seed=9)
    clean = sample_stats(cfg, 100, s_list=(1, 3))
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 1)  # one thread solves the stacks in order
    sizes = _poisoned_spectral_stats(monkeypatch, cfg, [40, 41, 99])
    stats = sample_stats(cfg, 100, s_list=(1, 3))
    assert sizes == [36, 36] + [1] * 36 + [28] + [1] * 28
    assert stats.failed_replicates == [40, 41, 99]
    kept = [rep for rep in range(100) if rep not in (40, 41, 99)]
    assert stats.replicates == 97
    assert np.array_equal(stats.lambda_max, clean.lambda_max[kept])
    assert all(np.array_equal(stats.traces[s], clean.traces[s][kept]) for s in (1, 3))


@pytest.mark.parametrize("n", [1, 2, 30, 200])
def test_stacked_solves_equal_single_solves(n):
    # the stack boundary at k draws, each side of it, and the empty run; at
    # n <= 2, where k runs to 32,768 draws, the GOE config alone
    k = max(1, mc._STACK_DOUBLES // n**2)
    s_list = (1, 2, 3, 4)
    for cfg in _trace_configs(n)[1 : 2 if n <= 2 else None]:  # GOE, dilute, truncated
        single = [spectral_stats(sample_matrix(cfg, rep), s_list) for rep in range(k + 1)]
        for replicates in sorted({0, 1, k - 1, k, k + 1}):
            stats = sample_stats(cfg, replicates, s_list=s_list)
            assert stats.replicates == replicates and stats.failed_replicates == []
            want = single[:replicates]
            assert stats.lambda_max.tolist() == [st["lambda_max"] for st in want], (cfg, replicates)
            for s in s_list:
                assert stats.traces[s].tolist() == [st["traces"][s] for st in want], (cfg, replicates, s)


def _edge_configs():
    """n = 200, where draws are solved by dsyevd and spread over threads."""
    pt = PowerTailLaw(v=1.0, gamma=24.0)
    return [
        EnsembleConfig(n=200, law=RAD, seed=90),
        EnsembleConfig(n=200, law=GoeLaw(Fraction(1, 2)), seed=91),
        EnsembleConfig(n=200, law=RademacherLaw(Fraction(1)), dilution_c=20, seed=92),
        EnsembleConfig(n=200, law=pt, truncation=TruncationSpec(pt, delta=0.05), seed=93),
    ]


def _edge_outputs(cfg):
    """sample_stats, tail_curve and universality_compare of one n = 200 config, as plain values."""
    stats = sample_stats(cfg, 13, s_list=(1, 4))
    curve = tail_curve(cfg, (-1.0, 0.0, 1.0), replicates=100, chebyshev_s=3)
    uni = universality_compare(cfg, EnsembleConfig(n=200, law=RAD, seed=94), s=4, replicates=9)
    return (
        stats.lambda_max.tolist(),
        {s: t.tolist() for s, t in stats.traces.items()},
        stats.failed_replicates,
        curve.rows(),
        uni,
    )


@pytest.mark.parametrize("cfg", _edge_configs(), ids=["rademacher", "goe", "dilute", "truncated"])
def test_outputs_do_not_depend_on_the_worker_count(monkeypatch, cfg):
    _poisoned_spectral_stats(monkeypatch, cfg, [5])
    runs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: workers)
        runs[workers] = _edge_outputs(cfg)
    assert runs[1][2] == [5] and runs[1][3][0]["replicates"] == 99
    assert runs[2] == runs[1] and runs[3] == runs[1]


def test_small_n_and_truncation_outputs_do_not_depend_on_the_thread_count(monkeypatch):
    # n = 30 stacks 36 draws and spreads them over the threads too; the stack
    # of replicates 36-71 is poisoned and redone draw by draw
    pt = PowerTailLaw(v=0.85)
    truncated = [
        EnsembleConfig(n=30, law=pt, truncation=TruncationSpec(pt, delta=0.16), seed=41),
        EnsembleConfig(n=30, law=RAD, truncation=TruncationSpec(RAD, delta=0.16), seed=42),
    ]
    cfg = EnsembleConfig(n=30, law=GoeLaw(Fraction(1, 2)), seed=43)
    _poisoned_spectral_stats(monkeypatch, cfg, [40])
    runs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: workers)
        rates = [truncation_event_rate(t, 250) for t in truncated]
        stats = sample_stats(cfg, 100, s_list=(0, 1, 4))
        runs[workers] = (
            rates,
            stats.lambda_max.tobytes(),
            {s: t.tobytes() for s, t in stats.traces.items()},
            stats.failed_replicates,
        )
    assert runs[1][3] == [40]
    assert 0 < runs[1][0][0]["rate"] < 1  # the power-tail hits are neither none nor all
    assert runs[2] == runs[1] and runs[3] == runs[1]


def _no_numpy(matrix):
    raise AssertionError("the dsyevd route called np.linalg.eigvalsh")


@pytest.fixture
def dsyevd_everywhere(monkeypatch):
    """Send every n through `_eigvalsh`'s dsyevd route, with numpy's eigvalsh barred."""
    if mc._linalg_symbol("scipy_dsyevd_64_") is None:
        pytest.skip("numpy's linalg extension exports no dsyevd")
    monkeypatch.setattr(mc, "_STACK_DOUBLES", 0)
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_numpy)


@pytest.mark.parametrize("n", [1, 2, 30, 129, 200])
def test_dsyevd_route_equals_numpy(request, n):
    stacks = [np.stack([sample_matrix(cfg, rep) for rep in range(3)]) for cfg in _trace_configs(n)]
    # numpy reads the lower triangle alone; so must the dsyevd route
    stacks.append(np.random.default_rng(n).standard_normal((2, n, n)))
    want = [np.linalg.eigvalsh(stack) for stack in stacks]
    request.getfixturevalue("dsyevd_everywhere")
    for stack, eigs in zip(stacks, want):
        assert np.array_equal(mc._eigvalsh(stack), eigs)
        assert np.array_equal(mc._eigvalsh(stack[1]), eigs[1])


@pytest.mark.parametrize("n", [3, 200])
def test_dsyevd_route_raises_on_no_convergence(request, n):
    stack = np.zeros((2, n, n))
    stack[1] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        np.linalg.eigvalsh(stack)
    request.getfixturevalue("dsyevd_everywhere")
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        mc._eigvalsh(stack)


def test_eigvalsh_leaves_other_inputs_to_numpy():
    # dsyevd takes float64 square matrices; numpy answers, or refuses, the rest
    stack = np.stack([sample_matrix(_edge_configs()[0], rep) for rep in range(2)])
    narrow = stack.astype(np.float32)
    assert mc._eigvalsh(narrow).dtype == np.float32
    assert np.array_equal(mc._eigvalsh(narrow), np.linalg.eigvalsh(narrow))
    with pytest.raises(np.linalg.LinAlgError, match="square"):
        mc._eigvalsh(stack[:, :, :199])


@pytest.mark.parametrize("cdll", [_NoOpenBlas, _unloadable], ids=["no-symbols", "no-library"])
def test_numpy_fallback_without_dsyevd(monkeypatch, cdll):
    cfg = _edge_configs()[1]
    want = _edge_outputs(cfg)
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda stack: calls.append(stack.shape) or real(stack))
    mc._linalg_symbol.cache_clear()
    monkeypatch.setattr(mc.ctypes, "CDLL", cdll)
    try:
        assert mc._linalg_symbol("scipy_dsyevd_64_") is None and mc._linalg_symbol("scipy_dsytrd_64_") is None
        got = _edge_outputs(cfg)
    finally:
        mc._linalg_symbol.cache_clear()
    # the tail's bound sums eigenvalue powers here and band products on the dsytrd route
    for got_row, want_row in zip(got[3], want[3]):
        assert got_row.pop("chebyshev_bound") == pytest.approx(want_row.pop("chebyshev_bound"), rel=1e-12)
    assert got == want
    assert calls.count((1, 200, 200)) == 13 + 100


@pytest.mark.parametrize("n", [1, 2, 3, 7, 50])
def test_band_trace_equals_the_matrix_power(n):
    # three draws in one batch: each trace is its own matrix power's
    rng = np.random.default_rng(n)
    d, e = rng.standard_normal((3, n)), rng.standard_normal((3, n - 1))
    for s in range(7):
        got = mc._band_trace(d, e, s)
        assert got.shape == (3,)
        for i in range(3):
            t = np.diag(d[i]) + np.diag(e[i], 1) + np.diag(e[i], -1)
            want = np.trace(np.linalg.matrix_power(t, 2 * s))
            assert math.isclose(got[i], want, rel_tol=1e-12), (n, s, i)


def _tridiagonal_stack(d, e):
    """The (k, n, n) symmetric tridiagonal matrices with diagonals d and off-diagonals e."""
    k, n = d.shape
    t = np.zeros((k, n, n))
    at = np.arange(n)
    t[:, at, at] = d
    t[:, at[:-1], at[1:]] = t[:, at[1:], at[:-1]] = e
    return t


@pytest.mark.parametrize("n", [1, 2, 3, 10])
def test_band_trace_equals_the_eigenvalue_power_sums(n):
    # s from 0 to 6, past n where it can be; batches of one draw, of one
    # group (the draws whose diagonals fit _STACK_DOUBLES) and one more
    rng = np.random.default_rng(100 + n)
    for s in range(7):
        group = max(1, mc._STACK_DOUBLES // ((s + 2) * n))
        for k in (1, group, group + 1):
            d, e = rng.standard_normal((k, n)), rng.standard_normal((k, n - 1))
            want = np.sum(np.linalg.eigvalsh(_tridiagonal_stack(d, e)) ** (2 * s), axis=-1)
            got = mc._band_trace(d, e, s)
            assert got.shape == (k,)
            assert np.all(np.abs(got - want) <= 1e-12 * want), (n, s, k)


def _no_spectrum(stack):
    raise AssertionError("the dsytrd route called _eigvalsh")


@pytest.fixture
def tail_lapack():
    """Skip where numpy's linalg extension lacks dsytrd."""
    if mc._linalg_symbol("scipy_dsytrd_64_") is None:
        pytest.skip("numpy's linalg extension exports no dsytrd")


def _tail_route_configs(n):
    return _trace_configs(n) + [EnsembleConfig(n=n, law=RademacherLaw(Fraction(0)), seed=74)]


@pytest.mark.parametrize("n", [1, 2, 129, 200])
def test_tail_statistic_matches_the_full_spectrum(monkeypatch, tail_lapack, n):
    # rademacher, goe, dilute, truncated power-tail and the v = 0 zero matrix;
    # n = 1 and 2 are sent down the dsytrd route as well
    s_list = tuple(range(7))
    draws = [sample_matrix(cfg, rep) for cfg in _tail_route_configs(n) for rep in range(3)]
    monkeypatch.setattr(mc, "_STACK_DOUBLES", 0)
    monkeypatch.setattr(mc, "_eigvalsh", _no_spectrum)  # the dsytrd route takes every draw
    for mat in draws:
        eigs = np.linalg.eigvalsh(mat)
        d, e = mc._tail_stats(mat[np.newaxis])
        assert d.shape == (1, n) and e.shape == (1, n - 1)
        tridiagonal = np.diag(d[0]) + np.diag(e[0], 1) + np.diag(e[0], -1)
        assert abs(np.max(np.abs(np.linalg.eigvalsh(tridiagonal))) - np.max(np.abs(eigs))) <= 1e-13
        for s in s_list:
            assert math.isclose(mc._band_trace(d, e, s)[0], np.sum(eigs ** (2 * s)), rel_tol=1e-12), s


def _dsytrd_on_a_column_major_copy(mat):
    """(d, e) of dsytrd with uplo L run on np.array(mat, order="F"), leaving mat as it is."""
    n = len(mat)
    a = np.array(mat, order="F")
    d, e, tau = np.empty(n), np.empty(n - 1), np.empty(n - 1)
    lwork = mc._dsytrd_workspace(n)
    work = np.empty(lwork)
    ints = np.array([n, lwork, 0], dtype=np.int64)  # n (also lda), lwork, info
    at = ints.ctypes.data
    mc._linalg_symbol("scipy_dsytrd_64_")(b"L", at, a.ctypes.data, at, d.ctypes.data, e.ctypes.data,
                                          tau.ctypes.data, work.ctypes.data, at + 8, at + 16, 1)
    assert ints[2] == 0
    return d, e


@pytest.mark.parametrize("n", [129, 200, 257])
def test_tail_reduction_in_place_equals_a_column_major_copy(tail_lapack, n):
    # the draw is reduced where it lies, as its own transpose; the copy is the reference
    for cfg in _tail_route_configs(n):
        for rep in range(2):
            mat = sample_matrix(cfg, rep)
            want_d, want_e = _dsytrd_on_a_column_major_copy(mat)
            stack = mat[np.newaxis]
            d, e = mc._tail_stats(stack)
            assert d[0].tobytes() == want_d.tobytes() and e[0].tobytes() == want_e.tobytes(), (cfg, rep)
            # the stack is consumed: dsytrd wrote its reflectors over the draw
            assert cfg.law.v == 0 or not np.array_equal(stack[0], sample_matrix(cfg, rep))


def test_tail_counts_equal_the_eigvalsh_counts(tail_lapack):
    # 2,000 n = 200 draws over four ensembles, counted against thresholds both ways
    grid = (-2.0, -1.0, 0.0, 1.0, 2.0, 4.0)
    for cfg in _edge_configs():
        curve = tail_curve(cfg, grid, replicates=500)
        lam = sample_stats(cfg, 500, s_list=()).lambda_max
        assert curve.replicates == 500
        assert curve.exceed_counts == tuple(int(np.sum(lam > thr)) for thr in curve.thresholds), cfg


def _full_spectrum_tail(cfg, replicates, thresholds):
    """Per threshold t, the draws with max|eigvalsh| > t and the mean number of
    |eigvalsh| > t per draw, over the first `replicates` draws of cfg."""
    eigs = np.abs([np.linalg.eigvalsh(sample_matrix(cfg, rep)) for rep in range(replicates)])
    norms = eigs.max(axis=1)
    return (
        tuple(int(np.sum(norms > t)) for t in thresholds),
        tuple(int(np.sum(eigs > t)) / replicates for t in thresholds),
    )


@pytest.mark.parametrize("n", [20, 200])
def test_exceedance_at_edge_thresholds_equals_the_full_spectrum(n):
    # the stacked route (n = 20) and the dsytrd route (n = 200); thresholds
    # -4v, 0 and v, the grid's 2v and above, and 2v (1 + 100 n), far above any norm
    scale = n ** (2.0 / 3.0)
    grid = (-3 * scale, -scale, -scale / 2, 0.0, 1.0, scale * n * 100)
    for cfg in _tail_route_configs(n):  # the last is the v = 0 zero matrix, with every threshold 0
        curve = tail_curve(cfg, grid, replicates=100)
        assert (curve.exceed_counts, curve.mean_beyond) == _full_spectrum_tail(cfg, 100, curve.thresholds), cfg
        assert curve.exceed_counts[0] == (100 if cfg.law.v else 0) and curve.exceed_counts[-1] == 0
    # ||0|| = 0 exceeds every t < 0 and no t >= 0, however small
    d, e = mc._tail_stats(np.zeros((2, n, n)))
    below_zero = mc._count_beyond(d, e, (-1.0, -1e-300, 0.0, 1e-300, 1.0))
    assert below_zero.tolist() == [[n, n, 0, 0, 0]] * 2


@pytest.mark.parametrize("n", [30, 200])
def test_mean_beyond_is_the_mean_eigenvalue_count(n):
    grid = (-2.0, -1.0, 0.0, 1.0, 2.0, 4.0)
    for cfg in _trace_configs(n):
        curve = tail_curve(cfg, grid, replicates=100)
        assert curve.mean_beyond == _full_spectrum_tail(cfg, 100, curve.thresholds)[1], cfg
        assert "mean_beyond" not in curve.rows()[0]


def test_a_chunked_tail_equals_one_chunk(monkeypatch):
    # 100 replicates at n = 200: one chunk by default, three of 33 and one of
    # 1 with the budget cut to 33 draws; replicate 40, in the second, fails
    cfg = _edge_configs()[1]
    grid = (-1.0, 0.0, 1.0)
    _poisoned_spectral_stats(monkeypatch, cfg, [40])
    calls = []
    real = mc._replicate_loop

    def recording(config, reps, statistic):
        filled, failed = real(config, reps, statistic)
        calls.append((reps, failed))
        return filled, failed

    monkeypatch.setattr(mc, "_replicate_loop", recording)
    whole = tail_curve(cfg, grid, replicates=100, chebyshev_s=3)
    assert calls == [(range(100), [40])]
    calls.clear()
    monkeypatch.setattr(mc, "_STACK_DOUBLES", 33 * cfg.n)
    chunked = tail_curve(cfg, grid, replicates=100, chebyshev_s=3)
    assert calls == [(range(0, 33), []), (range(33, 66), [40]), (range(66, 99), []), (range(99, 100), [])]
    assert chunked == whole and whole.replicates == 99


def _non_finite_reduction(dsytrd, fails):
    """dsytrd that writes NaN into the diagonal of the calls for which fails(call index) holds."""
    calls = []

    def reduce(*args):
        dsytrd(*args)
        if fails(len(calls)):
            ctypes.c_double.from_address(args[4]).value = math.nan  # d[0]
        calls.append(1)

    return reduce, calls


def _with_dsytrd(monkeypatch, dsytrd):
    """Make `_linalg_symbol` bind `dsytrd` as scipy_dsytrd_64_, and every other name as before."""
    real = mc._linalg_symbol
    monkeypatch.setattr(mc, "_linalg_symbol", lambda name: dsytrd if name == "scipy_dsytrd_64_" else real(name))


def test_a_non_finite_reduction_drops_that_replicate(monkeypatch, tail_lapack):
    # on one thread, replicate k makes dsytrd call k; the workspace query is cached first
    cfg = _edge_configs()[0]
    grid = (-1.0, 0.0, 1.0)
    lam = sample_stats(cfg, 100, s_list=()).lambda_max
    mc._dsytrd_workspace(cfg.n)
    failing_for_replicate_5, calls = _non_finite_reduction(mc._linalg_symbol("scipy_dsytrd_64_"), lambda call: call == 5)
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 1)
    _with_dsytrd(monkeypatch, failing_for_replicate_5)
    curve = tail_curve(cfg, grid, replicates=100)
    assert len(calls) == 100  # one reduction per replicate
    kept = np.delete(lam, 5)
    assert curve.replicates == 99
    assert curve.exceed_counts == tuple(int(np.sum(kept > thr)) for thr in curve.thresholds)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("n", [2, 200])
def test_tail_statistic_raises_on_a_non_finite_draw(monkeypatch, tail_lapack, n, bad):
    stack = np.zeros((1, n, n))
    stack[0, 1, 1] = bad
    monkeypatch.setattr(mc, "_STACK_DOUBLES", 0)
    monkeypatch.setattr(mc, "_eigvalsh", _no_spectrum)
    with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        mc._tail_stats(stack)


def _failing_statistic(stack):
    raise np.linalg.LinAlgError("did not converge")


@pytest.mark.parametrize("route", ["stacked", "lapack"])
@pytest.mark.parametrize("chebyshev_s", [None, 2])
def test_a_tail_with_every_replicate_dropped_raises(request, monkeypatch, route, chebyshev_s):
    if route == "stacked":
        n = 20
        monkeypatch.setattr(mc, "_eigvalsh", _failing_statistic)
    else:  # every reduction gives a non-finite diagonal
        n = 200
        request.getfixturevalue("tail_lapack")
        mc._dsytrd_workspace(n)
        failing, _ = _non_finite_reduction(mc._linalg_symbol("scipy_dsytrd_64_"), lambda call: True)
        _with_dsytrd(monkeypatch, failing)
    cfg = EnsembleConfig(n=n, law=RAD, seed=23)
    with pytest.raises(np.linalg.LinAlgError, match="all 100 replicates failed"):
        tail_curve(cfg, (0.0,), replicates=100, chebyshev_s=chebyshev_s)


def test_the_tail_command_reports_every_replicate_dropped(monkeypatch, capsys):
    monkeypatch.setattr(mc, "_tail_stats", _failing_statistic)
    assert cli.main(["tail", "--n", "20", "--replicates", "100", "--chebyshev-s", "2", "--no-timestamp"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: all 100 replicates failed") and captured.err.count("\n") == 1


_LAWS = [RAD, GaussianLaw(Fraction(1)), GoeLaw(Fraction(1, 2)), ThreePointLaw(), PowerTailLaw(v=1.0, gamma=24.0)]


@pytest.mark.parametrize(
    "law", _LAWS + [RademacherLaw(Fraction(0))], ids=lambda law: law.name if law.v else f"{law.name}-0"
)
def test_largest_magnitude_is_the_largest_magnitude_bit_for_bit(law):
    for seed in range(20):
        for size in (1, 7, 210, 5050):
            key = np.array([seed, size], dtype=np.uint64)
            got = law.largest_magnitude(np.random.Generator(np.random.Philox(key=key)), size)
            want = np.abs(law.sample(np.random.Generator(np.random.Philox(key=key)), size)).max()
            assert np.float64(got).tobytes() == want.tobytes(), (seed, size)


def _integers_rademacher(law, rng, size):
    """RademacherLaw.sample as numpy's bounded integers draw it: the oracle of the raw-word signs."""
    return (2.0 * rng.integers(0, 2, size=size) - 1.0) * float(law.v)


def _integers_power_tail(law, rng, size):
    """PowerTailLaw.sample with its signs from numpy's bounded integers."""
    mag = law.x0 * (1.0 - rng.random(size)) ** (-1.0 / law.gamma)
    return mag * (2.0 * rng.integers(0, 2, size=size) - 1.0)


def _uniform_largest_power_tail(law, rng, size):
    """PowerTailLaw.largest_magnitude through the largest of rng.random's uniforms."""
    return (law.x0 * (1.0 - rng.random(size).max(keepdims=True)) ** (-1.0 / law.gamma))[0]


_RAW_WORD_SIZES = (1, 2, 3, 465, 5050, 20100, 20101)


def _philox(*key):
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


@pytest.mark.parametrize(
    "law, oracle",
    [
        (RAD, _integers_rademacher),
        (RademacherLaw(Fraction(3, 7)), _integers_rademacher),
        (RademacherLaw(Fraction(0)), _integers_rademacher),
        (PowerTailLaw(v=1.0, gamma=24.0), _integers_power_tail),
        (PowerTailLaw(v=0.5, gamma=4.5), _integers_power_tail),
    ],
    ids=["rademacher", "rademacher-3/7", "rademacher-0", "power-tail", "power-tail-4.5"],
)
def test_raw_word_signs_equal_the_integers_draw_bit_for_bit(law, oracle):
    # odd sizes leave the last word's high half unread; the dilution mask's uniforms after it agree
    for size in _RAW_WORD_SIZES:
        for key in ((0, 0), (7, size), (20240229, 3), (2**64 - 1, 2**40)):
            got_rng, want_rng = _philox(*key), _philox(*key)
            got, want = law.sample(got_rng, size), oracle(law, want_rng, size)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (size, key)
            assert got_rng.random(size % 7 + 5).tobytes() == want_rng.random(size % 7 + 5).tobytes(), (size, key)


@pytest.mark.parametrize("law", [PowerTailLaw(v=1.0, gamma=24.0), PowerTailLaw(v=0.5, gamma=4.5)], ids=repr)
def test_power_tail_largest_raw_word_equals_the_largest_uniform_bit_for_bit(law):
    for size in _RAW_WORD_SIZES:
        for key in ((0, 0), (7, size), (20240229, 3), (2**64 - 1, 2**40)):
            got_rng, want_rng = _philox(*key), _philox(*key)
            got, want = law.largest_magnitude(got_rng, size), _uniform_largest_power_tail(law, want_rng, size)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (size, key)
            assert got_rng.random(4).tobytes() == want_rng.random(4).tobytes(), (size, key)


def test_raw_word_signs_read_the_halves_in_little_endian_order():
    # a big-endian machine hands random_raw's words over in its own byte order
    class BigEndianWords:
        def __init__(self, key):
            self.bit_generator = self
            self._words = np.random.Philox(key=np.array(key, dtype=np.uint64))

        def random_raw(self, size):
            return self._words.random_raw(size).astype(">u8")

    for size in (1, 2, 3, 465):
        want = _integers_rademacher(RAD, _philox(5, size), size)
        assert RAD.sample(BigEndianWords((5, size)), size).tobytes() == want.tobytes(), size


def _integers_matrix(cfg, rep):
    """sample_matrix of a rademacher config with the integers-drawn signs and out-of-place scaling."""
    n = cfg.n
    rng = _philox(cfg.seed, rep)
    vals = _integers_rademacher(cfg.law, rng, n * (n + 1) // 2)
    if cfg.dilution_c is not None:
        mask = rng.random(vals.shape[0]) < cfg.dilution_c / n
        vals = vals * mask / math.sqrt(cfg.dilution_c)
    else:
        vals = vals / math.sqrt(n)
    return vals[mc._symmetric_gather(n)]


@pytest.mark.parametrize("n", [5, 6, 13, 201])  # n(n + 1) / 2 = 15, 21, 91, 20301: all odd
def test_sample_matrix_keeps_its_bits_with_raw_word_signs(n):
    # v = 3/7 is no power of two, so a scale taken as a product with 1/sqrt(n) changes bits
    for cfg in (
        EnsembleConfig(n=n, law=RAD, dilution_c=max(1, n // 3), seed=95),
        EnsembleConfig(n=n, law=RademacherLaw(Fraction(3, 7)), dilution_c=max(1, n // 2), seed=96),
        EnsembleConfig(n=n, law=RademacherLaw(Fraction(1)), seed=97),
        EnsembleConfig(n=n, law=RademacherLaw(Fraction(3, 7)), seed=98),
    ):
        for rep in (0, 1, 2**40):
            assert sample_matrix(cfg, rep).tobytes() == _integers_matrix(cfg, rep).tobytes(), (cfg, rep)


def _random_mask_matrix(cfg, rep, rng):
    """sample_matrix of a dilute config with its mask drawn as rng.random(k) < c / n."""
    n, c = cfg.n, cfg.dilution_c
    rng, vals = sample_entries(cfg, rep, rng)
    if isinstance(cfg.law, GoeLaw):
        vals[mc._symmetric_gather(n).diagonal()] *= math.sqrt(2.0)
    vals *= rng.random(vals.shape[0]) < c / n
    vals /= math.sqrt(c)
    return vals[mc._symmetric_gather(n)]


@pytest.mark.parametrize(
    "law",
    [RAD, GaussianLaw(Fraction(2, 5)), GoeLaw(Fraction(2, 5)), ThreePointLaw(q=Fraction(1, 8)), PowerTailLaw(v=0.85)],
    ids=lambda law: law.name,
)
def test_raw_word_dilution_mask_equals_the_uniform_mask_bit_for_bit(law):
    # the stream goes on from the same word too: the next uniform after each draw agrees
    mine, oracle = _philox(0, 0), _philox(0, 0)
    for n in (2, 7, 30, 200):
        for c in sorted({1, max(1, n // 3), n}):
            cfg = EnsembleConfig(n=n, law=law, dilution_c=c, seed=41)
            for rep in (0, 1, 2**40):
                got = sample_matrix(cfg, rep, mine)
                want = _random_mask_matrix(cfg, rep, oracle)
                assert got.tobytes() == want.tobytes(), (n, c, rep)
                assert mine.random() == oracle.random(), (n, c, rep)


def test_in_place_draws_equal_the_out_of_place_formulas_bit_for_bit():
    # v = 3/7 is no power of two, so a scale applied in another order would change bits
    gauss, tail = GaussianLaw(Fraction(3, 7)), PowerTailLaw(v=3 / 7)
    for size in _RAW_WORD_SIZES:
        for key in ((0, 0), (7, size), (20240229, 3), (2**64 - 1, 2**40)):
            want = _philox(*key).standard_normal(size) * float(gauss.v)
            assert gauss.sample(_philox(*key), size).tobytes() == want.tobytes(), (size, key)
            u = _philox(*key).random(size)
            want = tail.x0 * (1.0 - u) ** (-1.0 / tail.gamma)
            assert tail._magnitude_of(u.copy()).tobytes() == want.tobytes(), (size, key)


def _where_truncated_matrix(cfg, rep):
    """sample_matrix of a truncated config with the cutoff applied by an out-of-place np.where."""
    n = cfg.n
    _, vals = sample_entries(cfg, rep)
    if isinstance(cfg.law, GoeLaw):
        vals[mc._symmetric_gather(n).diagonal()] *= math.sqrt(2.0)
    vals = np.where(np.abs(vals) <= cfg.truncation.cutoff(n), vals, 0.0)
    return vals[mc._symmetric_gather(n)] / math.sqrt(n)


@pytest.mark.parametrize(
    "law",
    [GaussianLaw(Fraction(3, 7)), GoeLaw(Fraction(3, 7)), PowerTailLaw(v=3 / 7, gamma=4.5)],
    ids=lambda law: law.name,
)
def test_in_place_truncation_equals_the_where_formula_bit_for_bit(law, monkeypatch):
    cut = 0
    for n in (2, 7, 30, 101):
        cfg = EnsembleConfig(n=n, law=law, truncation=TruncationSpec(law, delta=0.16), seed=35)
        for rep in (0, 1, 2**40):
            got, want = sample_matrix(cfg, rep), _where_truncated_matrix(cfg, rep)
            assert got.tobytes() == want.tobytes(), (n, rep)
            cut += int(np.count_nonzero(got == 0))
    assert cut > 0
    # a NaN fails every comparison with the cutoff and is zeroed like an infinity
    bad = np.array([np.nan, np.inf, -np.inf, 0.5, -0.5, -0.0, 2.0])
    monkeypatch.setattr(type(law), "sample", lambda self, rng, size: bad[np.arange(size) % bad.size].copy())
    cfg = EnsembleConfig(n=4, law=law, truncation=TruncationSpec(law, delta=0.16), seed=35)
    got = sample_matrix(cfg, 0)
    assert got.tobytes() == _where_truncated_matrix(cfg, 0).tobytes()
    assert np.isfinite(got).all() and np.count_nonzero(got) > 0


def test_truncation_hits_are_unchanged_on_criterion_13():
    # criterion 13's configs; the hits are those of the raw-entry check, at 4,000 replicates each
    law = PowerTailLaw(v=1.0, gamma=24.0)
    trunc = TruncationSpec(law, delta=0.05, delta0=0.5)
    for n, hits in ((50, 38), (100, 15), (200, 8)):
        out = truncation_event_rate(EnsembleConfig(n=n, law=law, truncation=trunc, seed=13_000 + n), 4000)
        assert round(out["rate"] * 4000) == hits, n


@pytest.mark.parametrize(
    "law",
    # scaled so that about a third to a half of the replicates hit, except rademacher's all-or-none
    [RAD, GaussianLaw(Fraction(2, 5)), GoeLaw(Fraction(2, 5)), ThreePointLaw(q=Fraction(1, 256)), PowerTailLaw(v=0.85)],
    ids=lambda law: law.name,
)
def test_truncation_hits_equal_the_raw_entry_check(law):
    cfg = EnsembleConfig(n=12, law=law, truncation=TruncationSpec(law, delta=0.16), seed=3)
    cutoff = cfg.truncation.cutoff(12)
    want = sum(bool(np.any(np.abs(sample_entries(cfg, rep)[1]) > cutoff)) for rep in range(300))
    assert round(truncation_event_rate(cfg, 300)["rate"] * 300) == want


def test_import_starts_no_thread_and_loads_nothing_more():
    script = (
        "import sys, threading, wignerlab\n"
        "print(threading.active_count(), 'scipy' in sys.modules, 'concurrent.futures' in sys.modules,\n"
        "      wignerlab.mc._linalg_symbol.cache_info().currsize)\n"
    )
    assert _fresh_python(script) == "1 False False 0\n"


def test_replicate_threads_are_joined(monkeypatch):
    cfg = _edge_configs()[0]
    want = sample_stats(cfg, 7, s_list=(2,))
    before = threading.active_count()
    # each thread's first stack waits until all three threads hold one
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
    meet = threading.Barrier(3, timeout=30)
    idents = set()
    real = mc.spectral_stats

    def meeting(stack, s_list):
        if threading.get_ident() not in idents:
            idents.add(threading.get_ident())
            meet.wait()
        return real(stack, s_list)

    monkeypatch.setattr(mc, "spectral_stats", meeting)
    got = sample_stats(cfg, 7, s_list=(2,))
    assert len(idents) == 3 and threading.get_ident() in idents
    assert threading.active_count() == before
    assert got.rows() == want.rows()


def test_many_threads_on_a_short_switch_interval_lose_no_stack(monkeypatch):
    # more threads than cores, switching as often as the interpreter allows:
    # a stack taken twice or never would change the rows
    cfg = EnsembleConfig(n=129, law=RAD, seed=95)
    want = sample_stats(cfg, 40, s_list=(1,))
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = sample_stats(cfg, 40, s_list=(1,))
    finally:
        sys.setswitchinterval(interval)
    assert got.rows() == want.rows()


def test_an_error_in_a_replicate_thread_reaches_the_caller(monkeypatch):
    cfg = _edge_configs()[0]
    before = threading.active_count()
    worker_failed = threading.Event()
    real = mc.spectral_stats

    def failing(stack, s_list):
        if threading.current_thread() is not threading.main_thread():
            worker_failed.set()
            raise ValueError("statistic failed in a worker")
        worker_failed.wait(30)  # the caller's stack waits until a worker has failed
        return real(stack, s_list)

    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(mc, "spectral_stats", failing)
    with pytest.raises(ValueError, match="in a worker"):
        sample_stats(cfg, 6, s_list=(1,))
    assert worker_failed.is_set()
    assert threading.active_count() == before


@pytest.mark.parametrize("n", [128, 129])
def test_one_draw_to_a_stack_is_the_line_for_lapack_and_threads(monkeypatch, n):
    # below the line draws stack by two or more and stay on numpy; from
    # n = 129 up each draw solves alone, through dsyevd (sample_stats) or
    # dsytrd (tail_curve); on both sides the stacks spread over several threads
    assert (mc._stack_size(128), mc._stack_size(129)) == (2, 1)
    routes = {"sample_stats": "scipy_dsyevd_64_", "tail_curve": "scipy_dsytrd_64_"}
    if any(mc._linalg_symbol(name) is None for name in routes.values()):
        pytest.skip("numpy's linalg extension exports no dsyevd or dsytrd")
    cfg = EnsembleConfig(n=n, law=RAD, seed=96)
    bound, idents = [], set()
    another_thread = threading.Event()
    real_symbol, real_stats, real_tail = mc._linalg_symbol, mc.spectral_stats, mc._tail_stats

    def symbol(name):
        bound.append(name)
        return real_symbol(name)

    def meet():
        # the first thread to take a stack holds it until a second one takes another
        idents.add(threading.get_ident())
        if len(idents) > 1:
            another_thread.set()
        else:
            another_thread.wait(30)

    def stats(stack, s_list):
        meet()
        return real_stats(stack, s_list)

    def tail(stack):
        meet()
        return real_tail(stack)

    monkeypatch.setattr(mc, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(mc, "_linalg_symbol", symbol)
    monkeypatch.setattr(mc, "spectral_stats", stats)
    monkeypatch.setattr(mc, "_tail_stats", tail)
    for run, name in routes.items():
        bound.clear()
        idents.clear()
        another_thread.clear()
        if run == "sample_stats":
            sample_stats(cfg, 8, s_list=(1,))
        else:
            tail_curve(cfg, (0.0,), replicates=100)
        lapack = {b for b in bound if b.startswith("scipy_dsy")}
        assert lapack == (set() if n == 128 else {name}) and len(idents) > 1, run


def test_rekeyed_streams_equal_new_generators():
    # one generator re-keyed across laws, configs and replicate orders draws
    # what a new Philox keyed by (seed, replicate) draws, bit for bit: the
    # entries of every law, the doubled GOE diagonal, the dilution mask drawn
    # after the entries, and the truncation
    pt = PowerTailLaw(v=1.0, gamma=24.0)
    goe = GoeLaw(Fraction(1, 2))
    laws = [RAD, GaussianLaw(Fraction(1, 2)), goe, pt, ThreePointLaw()]
    configs = [EnsembleConfig(n=7, law=law, seed=100 + i) for i, law in enumerate(laws)]
    configs += [
        EnsembleConfig(n=7, law=RAD, dilution_c=3, seed=110),
        EnsembleConfig(n=7, law=goe, dilution_c=2, seed=111),
        EnsembleConfig(n=7, law=pt, truncation=TruncationSpec(pt, delta=0.05), seed=112),
        EnsembleConfig(n=7, law=goe, truncation=TruncationSpec(goe, delta=0.05), seed=113),
    ]
    shared = mc._rng(configs[0], 0)
    for rep in (3, 0, 2**40, 1):
        for cfg in configs:
            fresh = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, rep], dtype=np.uint64)))
            want = cfg.law.sample(fresh, 28)
            rng, vals = sample_entries(cfg, rep, shared)
            assert rng is shared and np.array_equal(vals, want), (cfg, rep)
            assert np.array_equal(sample_matrix(cfg, rep, shared), sample_matrix(cfg, rep)), (cfg, rep)


def test_held_generators_keep_separate_streams():
    cfg = EnsembleConfig(n=5, law=RAD, seed=7)
    g0, _ = sample_entries(cfg, 0)
    g1, _ = sample_entries(cfg, 1)
    assert g0 is not g1
    # a loop's shared generator re-keyed meanwhile touches neither
    shared = mc._rng(cfg, 0)
    sample_entries(cfg, 0, shared)
    sample_matrix(cfg, 1, shared)
    draws0, draws1 = g0.random(6), g1.random(6)
    for rep, draws in ((0, draws0), (1, draws1)):
        want = np.random.Generator(np.random.Philox(key=np.array([7, rep], dtype=np.uint64)))
        cfg.law.sample(want, 15)
        assert np.array_equal(draws, want.random(6))


def test_wilson_interval():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo2, hi2 = wilson_interval(50, 1000)
    assert hi2 - lo2 < hi - lo  # narrower with more trials


def test_tail_curve_monotone_and_extremes():
    cfg = EnsembleConfig(n=60, law=RAD, seed=21)
    curve = tail_curve(cfg, (-2.0, 0.0, 2.0, 50.0), replicates=400, chebyshev_s=3)
    probs = curve.probabilities()
    cis = curve.intervals()
    for i in range(len(probs) - 1):
        assert probs[i + 1] <= probs[i] + (cis[i][1] - cis[i][0])
    # threshold beyond the deterministic entry bound: probability zero
    assert probs[-1] == 0.0
    assert all(b >= 0 for b in curve.chebyshev_bounds)
    rows = curve.rows()
    assert rows[0]["replicates"] == 400
    with pytest.raises(ValueError):
        tail_curve(cfg, (0.0,), replicates=50)


@pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf])
def test_tail_curve_refuses_a_non_finite_grid_point(point):
    cfg = EnsembleConfig(n=20, law=RAD, seed=23)
    with pytest.raises(ValueError, match="finite"):
        tail_curve(cfg, (0.0, point), replicates=100)


def test_tail_curve_without_a_bound_asks_for_no_traces(monkeypatch):
    cfg = EnsembleConfig(n=40, law=RAD, seed=22)
    grid = (-1.0, 0.0, 1.0)
    asked = []
    real = mc._band_trace

    def recording(d, e, s):
        asked.append(s)
        return real(d, e, s)

    monkeypatch.setattr(mc, "_band_trace", recording)
    with_bound = tail_curve(cfg, grid, replicates=120, chebyshev_s=2)
    assert asked and all(s == 2 for s in asked)
    asked.clear()
    plain = tail_curve(cfg, grid, replicates=120)
    assert not asked
    want = [{k: v for k, v in row.items() if k != "chebyshev_bound"} for row in with_bound.rows()]
    assert plain.rows() == want


def test_dilute_tail_scale():
    cfg = EnsembleConfig(n=80, law=RademacherLaw(Fraction(1)), dilution_c=20, seed=33)
    curve = tail_curve(cfg, (0.0, 1.0), scale="dilute", replicates=150)
    assert curve.thresholds[0] == pytest.approx(2.0)
    assert curve.thresholds[1] == pytest.approx(2.0 * (1 + 1 / 20))


def test_universality_same_law_agrees():
    a = EnsembleConfig(n=40, law=RAD, seed=1)
    b = EnsembleConfig(n=40, law=RAD, seed=2)
    rep = universality_compare(a, b, s=3, replicates=600)
    assert rep["agrees_within_3sd"]
    assert abs(rep["z_vs_se"]) < 4


def test_universality_reports_systematic_difference():
    # at s=2 the exact means differ by (V4_a - V4_b)/n; the report's raw
    # difference must reproduce that within MC error
    n = 60
    a = EnsembleConfig(n=n, law=RAD, seed=11)
    b = EnsembleConfig(n=n, law=GaussianLaw(Fraction(1, 2)), seed=12)
    rep = universality_compare(a, b, s=2, replicates=4000)
    v = 0.5
    expected = (v**4 - 3 * v**4) / n  # per (1/n) Tr normalization
    assert rep["difference"] == pytest.approx(expected, abs=4 * rep["se_of_difference"])


def test_universality_reports_dropped_replicates(monkeypatch):
    real = mc.trace_powers
    a = EnsembleConfig(n=6, law=RAD, seed=1)
    b = EnsembleConfig(n=6, law=RAD, seed=2)
    bad = sample_matrix(a, 3)

    def flaky(mat, s_list):
        if np.array_equal(mat, bad):  # replicate 3 of the first ensemble
            raise np.linalg.LinAlgError("eigvalsh did not converge")
        return real(mat, s_list)

    monkeypatch.setattr(mc, "trace_powers", flaky)
    rep = universality_compare(a, b, s=2, replicates=10)
    assert rep["replicates"] == 9
    assert rep["failed_replicates_a"] == [3]
    assert rep["failed_replicates_b"] == []
    monkeypatch.undo()
    clean = universality_compare(a, b, s=2, replicates=10)
    assert clean["replicates"] == 10
    assert clean["failed_replicates_a"] == clean["failed_replicates_b"] == []


def test_truncation_event_rate_bounded_law():
    law = RademacherLaw(Fraction(1))
    tr = TruncationSpec(law, delta=0.01)
    cfg = EnsembleConfig(n=100, law=law, truncation=tr, seed=8)
    out = truncation_event_rate(cfg, 200)
    assert out["rate"] == 0.0  # cutoff 100^(1/6-0.01) > 1


@pytest.mark.parametrize("replicates", [0, -1])
def test_truncation_event_rate_needs_a_replicate(replicates):
    law = PowerTailLaw(v=1.0, gamma=24.0)
    cfg = EnsembleConfig(n=20, law=law, truncation=TruncationSpec(law, delta=0.05), seed=8)
    with pytest.raises(ValueError, match="replicates"):
        truncation_event_rate(cfg, replicates)


def test_truncation_event_rate_power_tail():
    law = PowerTailLaw(v=1.0, gamma=24.0)
    tr = TruncationSpec(law, delta=0.05, delta0=0.5)
    rates = {}
    for n in (50, 200):
        cfg = EnsembleConfig(n=n, law=law, truncation=tr, seed=44)
        out = truncation_event_rate(cfg, 1200)
        rates[n] = out["rate"]
        assert out["rate"] <= out["union_bound"] + (out["ci_high"] - out["rate"])
    assert rates[200] < rates[50]


@pytest.mark.parametrize(
    "law",
    [RAD, GaussianLaw(Fraction(1)), GoeLaw(Fraction(1)), ThreePointLaw(), PowerTailLaw(v=1.0, gamma=24.0)],
    ids=lambda law: law.name,
)
def test_truncation_event_rate_union_bound_for_every_law(law):
    # the E|a|^(12 + 2 delta0) hypothesis is law-free, so every law gives its union bound
    cfg = EnsembleConfig(n=20, law=law, truncation=TruncationSpec(law, delta=0.05, delta0=0.5), seed=8)
    out = truncation_event_rate(cfg, 5)
    cutoff = out["cutoff"]
    assert out["moment_order"] == 13.0
    assert out["union_bound"] == 20**2 * law.abs_moment(13.0) / cutoff**13.0 > 0


@pytest.mark.parametrize("replicates", [0, 1])
def test_spreads_need_two_replicates(replicates):
    # below two filled replicates a spread is None, never NaN
    a = EnsembleConfig(n=6, law=RAD, seed=3)
    b = EnsembleConfig(n=6, law=GaussianLaw(Fraction(1, 2)), seed=4)
    st = sample_stats(a, replicates, s_list=(1, 2))
    assert st.replicates == replicates
    for s in (1, 2):
        assert (st.trace_mean(s) is None) == (replicates == 0)
        assert st.trace_std(s) is None and st.trace_ci(s) is None
        assert st.zscore_against(s, 1.0) is None
    rep = universality_compare(a, b, s=2, replicates=replicates)
    assert rep["replicates"] == replicates
    assert (rep["mean_a"] is None) == (rep["difference"] is None) == (replicates == 0)
    spreads = ("pooled_sd", "se_of_difference", "z_vs_se", "effect_in_sd", "agrees_within_3sd")
    assert all(rep[key] is None for key in spreads)
    assert not any(isinstance(v, float) and math.isnan(v) for v in rep.values())


def test_zscore_is_none_for_zero_spread():
    # Tr A^2 of a Rademacher matrix at n = 1 is v^2 in every replicate
    st = sample_stats(EnsembleConfig(n=1, law=RAD, seed=5), 5, s_list=(1,))
    assert st.trace_std(1) == 0.0 and st.zscore_against(1, 0.25) is None
    a, b = EnsembleConfig(n=1, law=RAD, seed=5), EnsembleConfig(n=1, law=RAD, seed=6)
    rep = universality_compare(a, b, s=1, replicates=5)
    assert rep["difference"] == rep["pooled_sd"] == rep["se_of_difference"] == 0.0
    assert rep["z_vs_se"] is None and rep["effect_in_sd"] is None
    assert rep["agrees_within_3sd"] is True
    json.dumps(rep, allow_nan=False)
