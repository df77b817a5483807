"""Workload inputs and passes.

Every input is derived from the benchmark seed; the program only ever sees
the generated inputs. A pass is one unit of timed work and returns its
outputs in a JSON-ready form, so that two passes can be compared byte for
byte and checked by `checks.py`.

This module imports wignerlab, so it is loaded only after the checkout's
`src/` is on the import path.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from fractions import Fraction
from pathlib import Path

import wignerlab  # noqa: F401  (the whole package is part of set-up)
from wignerlab import cli, mc, moments
from wignerlab.laws import GaussianLaw, GoeLaw, PowerTailLaw, RademacherLaw, ThreePointLaw

V = Fraction(1, 2)
RAD = RademacherLaw(V)
GAU = GaussianLaw(V)
GOE = GoeLaw(V)

# ---------------------------------------------------------------------------
# exact-s6: exact walk-sum moments for five ensembles at s = 1..6.

S_MAX = 6
Z_DELTA = 0.25
SPEC_NAMES = ("rademacher", "gaussian", "goe", "truncated-three-point", "dilute")
# The seed draws the n grid from these pools. The stored reference covers
# every pool value, so any seed is checked against it.
SMALL_N = (2, 3, 4)
MID_N = (5, 6, 7, 8, 10, 12, 16, 20, 25, 30, 40, 50, 64, 80, 100, 128, 200, 256, 500)
LARGE_N = (1000, 1024, 2048, 5000, 10_000, 100_000, 1_000_000)
POOL_N = (1,) + SMALL_N + MID_N + LARGE_N
TRUNCATION = moments.TruncationSpec(ThreePointLaw(), delta=0.05)


def make_spec(name: str, n: int) -> moments.MomentSpec:
    if name == "rademacher":
        return moments.wigner_spec(RAD, n)
    if name == "gaussian":
        return moments.wigner_spec(GAU, n)
    if name == "goe":
        return moments.wigner_spec(GOE, n)
    if name == "truncated-three-point":
        return moments.truncated_spec(TRUNCATION, n)
    if name == "dilute":
        return moments.dilute_spec(RAD, n, max(1, math.isqrt(n)))
    raise ValueError(f"unknown spec {name!r}")


def exact_grid(seed: int) -> list[int]:
    """n = 1, one n <= 4 for the brute-force oracle, four mid n and one n >= 1000."""
    rng = random.Random(seed)
    return sorted({1, rng.choice(SMALL_N), *rng.sample(MID_N, 4), rng.choice(LARGE_N)})


def total_key(name: str, n: int, s: int) -> str:
    return f"{name}|{n}|{s}"


def exact_s6_pass(grid: list[int]) -> dict:
    specs = {(name, n): make_spec(name, n) for name in SPEC_NAMES for n in grid}
    totals = {}
    for s in range(1, S_MAX + 1):
        for (name, n), spec in specs.items():
            totals[total_key(name, n, s)] = str(moments.exact_trace_moment(spec, s).total)
    z_parts = {}
    for (name, n), spec in specs.items():
        res = moments.z_decomposition(spec, S_MAX, Z_DELTA)
        z_parts[f"{name}|{n}"] = [str(res.z_parts[i]) for i in (1, 2, 3, 4)]
    return {"grid": grid, "totals": totals, "z_parts": z_parts}


# ---------------------------------------------------------------------------
# verify: the CLI pipeline command against the package goldens.


def _golden_bytes() -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(Path(cli.GOLDEN_DIR).iterdir())}


def verify_pass() -> dict:
    goldens = _golden_bytes()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify"])
    return {"exit_code": code, "stdout": buf.getvalue(), "goldens_unchanged": _golden_bytes() == goldens}


# ---------------------------------------------------------------------------
# mc-edge: spectral-edge Monte Carlo in four shapes.

EDGE_N = 200
X_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0, 4.0)
CHEB_S = 4
TAIL_REPLICATES = 400
UNI_S = 4
UNI_REPLICATES = 200
SMALL_MC_N = 30
SMALL_MC_S = (1, 2, 3, 4)
SMALL_MC_REPLICATES = 1000
POWER_LAW = PowerTailLaw(v=1.0, gamma=24.0)
POWER_TRUNCATION = moments.TruncationSpec(POWER_LAW, delta=0.05, delta0=0.5)
TRUNC_N = 100
TRUNC_REPLICATES = 2000
MC_REPLICATES = TAIL_REPLICATES + 2 * UNI_REPLICATES + 2 * SMALL_MC_REPLICATES + TRUNC_REPLICATES


def mc_configs(seed: int) -> dict[str, mc.EnsembleConfig]:
    """One Philox key per computation, all derived from the benchmark seed."""
    base = (seed * 8) % (1 << 63)
    return {
        "tail": mc.EnsembleConfig(n=EDGE_N, law=RAD, seed=base + 1),
        "uni_a": mc.EnsembleConfig(n=EDGE_N, law=RAD, seed=base + 2),
        "uni_b": mc.EnsembleConfig(n=EDGE_N, law=GAU, seed=base + 3),
        "small_rademacher": mc.EnsembleConfig(n=SMALL_MC_N, law=RAD, seed=base + 4),
        "small_goe": mc.EnsembleConfig(n=SMALL_MC_N, law=GOE, seed=base + 5),
        "trunc": mc.EnsembleConfig(
            n=TRUNC_N, law=POWER_LAW, truncation=POWER_TRUNCATION, seed=base + 6
        ),
    }


def mc_edge_pass(configs: dict[str, mc.EnsembleConfig]) -> dict:
    curve = mc.tail_curve(
        configs["tail"], X_GRID, replicates=TAIL_REPLICATES, chebyshev_s=CHEB_S
    )
    uni = mc.universality_compare(
        configs["uni_a"], configs["uni_b"], s=UNI_S, replicates=UNI_REPLICATES
    )
    small = {}
    for label in ("small_rademacher", "small_goe"):
        stats = mc.sample_stats(configs[label], SMALL_MC_REPLICATES, s_list=SMALL_MC_S)
        small[label] = {
            "replicates": len(stats.lambda_max),
            "failed_replicates": list(stats.failed_replicates),
            "trace_mean": {str(s): stats.trace_mean(s) for s in SMALL_MC_S},
            "trace_std": {str(s): stats.trace_std(s) for s in SMALL_MC_S},
        }
    trunc = mc.truncation_event_rate(configs["trunc"], TRUNC_REPLICATES)
    return {
        "tail": {
            "thresholds": list(curve.thresholds),
            "exceed_counts": list(curve.exceed_counts),
            "replicates": curve.replicates,
            "chebyshev_bounds": list(curve.chebyshev_bounds),
        },
        "universality": {k: uni[k] for k in sorted(uni)},
        "small": small,
        "truncation": {
            "hits": round(trunc["rate"] * trunc["replicates"]),
            "replicates": trunc["replicates"],
            "cutoff": trunc["cutoff"],
            "ci_low": trunc["ci_low"],
            "union_bound": trunc["union_bound"],
        },
    }


# ---------------------------------------------------------------------------


def prepare(workload: str, seed: int):
    """Generate a workload's inputs from the seed; returns a zero-argument pass."""
    if workload == "exact-s6":
        grid = exact_grid(seed)
        return lambda: exact_s6_pass(grid)
    if workload == "verify":
        return verify_pass
    if workload == "mc-edge":
        configs = mc_configs(seed)
        return lambda: mc_edge_pass(configs)
    raise ValueError(f"unknown workload {workload!r}")
