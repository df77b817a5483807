"""Output checks: stored references plus oracles independent of the code path timed.

`reference(workload, seed)` builds what a workload's outputs must match;
`check(workload, outputs, ref, seed)` compares and returns a Verdict. An
operation fails when its output fails any check; `failed / attempted` is the
benchmark's error rate.

- exact-s6: every total equals the stored rational reference
  (`reference/exact_s6.json`, all pool n), the index-tuple brute force at
  n <= 4, the n = 1 collapse and the s = 1, 2 closed forms; the four z parts
  sum to the s = 6 total.
- verify: the per-criterion pass/fail pattern equals `reference/verify.json`,
  whose one red is criterion 10 at tau = 2; the goldens match and are not
  rewritten.
- mc-edge: every replicate is redrawn from its Philox key, assembled and
  solved here, without wignerlab.mc. Exceedance, hit and dropped-replicate
  counts must be equal; trace means may differ only by rounding; the trace
  means sit within Z_MAX standard errors of the exact walk sums.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import workloads as wl
from wignerlab import moments
from wignerlab.laws import GoeLaw

REFERENCE_DIR = Path(__file__).parent / "reference"
BRUTE_FORCE_TUPLES = 6561  # largest n^(2s) handed to the brute-force oracle
Z_MAX = 5.0
MEAN_RTOL = 1e-9  # trace means: summation order may change, nothing else


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        self.problems.append(problem)


# ---------------------------------------------------------------------------
# exact-s6


def closed_form(spec: moments.MomentSpec, s: int):
    """E Tr A^2 and E Tr A^4 summed by hand over the walk shapes of 2 and 4 steps."""
    n = spec.n
    a2, a2l = Fraction(spec.edge_moment(2)), Fraction(spec.edge_moment(2, True))
    if s == 1:
        return n * a2l + n * (n - 1) * a2
    a4, a4l = Fraction(spec.edge_moment(4)), Fraction(spec.edge_moment(4, True))
    return n * a4l + n * (n - 1) * (a4 + 4 * a2 * a2l) + 2 * n * (n - 1) * (n - 2) * a2 * a2


def check_exact(outputs: dict, ref: dict, seed: int) -> Verdict:
    grid = wl.exact_grid(seed)
    totals, z_parts = outputs["totals"], outputs["z_parts"]
    verdict = Verdict(attempted=len(wl.SPEC_NAMES) * len(grid) * (wl.S_MAX + 1))
    if outputs["grid"] != grid:
        verdict.problems.append(f"n grid {outputs['grid']} != {grid}")
    for name in wl.SPEC_NAMES:
        for n in grid:
            spec = wl.make_spec(name, n)
            for s in range(1, wl.S_MAX + 1):
                key = wl.total_key(name, n, s)
                if key not in totals:
                    verdict.fail(1, f"{key}: missing")
                    continue
                got = Fraction(totals[key])
                oracles = {"reference": Fraction(ref["totals"][key])}
                if n == 1:
                    oracles["n=1 collapse"] = Fraction(spec.edge_moment(2 * s, True))
                if s <= 2:
                    oracles["closed form"] = closed_form(spec, s)
                if n <= 4 and n ** (2 * s) <= BRUTE_FORCE_TUPLES:
                    oracles["brute force"] = Fraction(moments.brute_force_trace_moment(spec, s))
                wrong = [label for label, want in oracles.items() if want != got]
                if wrong:
                    verdict.fail(1, f"{key}: {got} disagrees with {', '.join(wrong)}")
            zkey = f"{name}|{n}"
            parts = [Fraction(p) for p in z_parts.get(zkey, ())]
            if len(parts) != 4:
                verdict.fail(1, f"z parts {zkey}: missing")
            elif parts != [Fraction(p) for p in ref["z_parts"][zkey]]:
                verdict.fail(1, f"z parts {zkey}: differ from the reference")
            elif sum(parts) != Fraction(totals.get(wl.total_key(name, n, wl.S_MAX), "nan")):
                verdict.fail(1, f"z parts {zkey}: do not sum to the s={wl.S_MAX} total")
    return verdict


# ---------------------------------------------------------------------------
# verify

SUITE_LINE = re.compile(r"^\[(PASS|FAIL)\] (\d+) .* \((\d+) checks, [0-9.]+s\)$")
FAILED_LINE = re.compile(r"^    FAILED: (.*)$")
GOLDEN_LINE = re.compile(r"^\[(PASS|FAIL)\] golden tables")
MISMATCH_LINE = re.compile(r"^    golden mismatch: (.*)$")


def verify_pattern(stdout: str) -> dict:
    """Per-suite check counts and failure labels, golden mismatches, as printed."""
    suites: dict[str, dict] = {}
    mismatches: list[str] = []
    golden_seen = False
    current = None
    for line in stdout.splitlines():
        if m := SUITE_LINE.match(line):
            current = suites[m.group(2)] = {"checks": int(m.group(3)), "failures": []}
        elif (m := FAILED_LINE.match(line)) and current is not None:
            current["failures"].append(m.group(1))
        elif m := MISMATCH_LINE.match(line):
            mismatches.append(m.group(1))
        elif GOLDEN_LINE.match(line):
            golden_seen = True
    return {"suites": suites, "golden_mismatches": mismatches, "golden_line": golden_seen}


def check_verify(outputs: dict, ref: dict, seed: int) -> Verdict:
    expected = ref["suites"]
    verdict = Verdict(attempted=sum(e["checks"] for e in expected.values()) + len(ref["golden_tables"]))
    seen = verify_pattern(outputs["stdout"])
    for number, want in expected.items():
        got = seen["suites"].get(number)
        if got is None:
            verdict.fail(want["checks"], f"criterion {number}: not reported")
            continue
        if got["checks"] != want["checks"]:
            verdict.fail(abs(got["checks"] - want["checks"]), f"criterion {number}: {got['checks']} checks, expected {want['checks']}")
        unexpected = set(got["failures"]) ^ set(want["failures"])
        if unexpected:
            verdict.fail(len(unexpected), f"criterion {number}: red/green differs from the documented pattern: {sorted(unexpected)}")
    for number in set(seen["suites"]) - set(expected):
        verdict.fail(seen["suites"][number]["checks"], f"criterion {number}: not expected")
    if not seen["golden_line"]:
        verdict.fail(len(ref["golden_tables"]), "golden tables: not reported")
    if seen["golden_mismatches"]:
        verdict.fail(len(seen["golden_mismatches"]), f"golden mismatch: {seen['golden_mismatches']}")
    if not outputs["goldens_unchanged"]:
        verdict.fail(len(ref["golden_tables"]), "golden files were rewritten")
    if outputs["exit_code"] != ref["exit_code"]:
        verdict.problems.append(f"exit code {outputs['exit_code']}, expected {ref['exit_code']}")
    return verdict


# ---------------------------------------------------------------------------
# mc-edge


def _entries(cfg, rep: int) -> np.ndarray:
    """Raw upper-triangle entries of replicate `rep`, drawn from Philox(key=[seed, rep])."""
    rng = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, rep], dtype=np.uint64)))
    return cfg.law.sample(rng, cfg.n * (cfg.n + 1) // 2)


def _replicate_matrix(cfg, rep: int) -> np.ndarray:
    """Upper triangle filled row-major, GOE diagonal times sqrt(2), scaled by 1/sqrt(n)."""
    n = cfg.n
    upper = np.zeros((n, n))
    upper[np.triu_indices(n)] = _entries(cfg, rep)
    if isinstance(cfg.law, GoeLaw):
        upper[np.diag_indices(n)] *= math.sqrt(2.0)
    upper /= math.sqrt(n)
    return upper + np.triu(upper, 1).T


def _spectra(cfg, replicates: int, s_list) -> dict:
    lam, traces, dropped = [], {s: [] for s in s_list}, 0
    for rep in range(replicates):
        try:
            eigs = np.linalg.eigvalsh(_replicate_matrix(cfg, rep))
        except np.linalg.LinAlgError:
            dropped += 1
            continue
        lam.append(max(abs(eigs[0]), abs(eigs[-1])))
        for s in s_list:
            traces[s].append(float(np.sum(eigs ** (2 * s))))
    return {"lambda_max": np.array(lam), "traces": {s: np.array(t) for s, t in traces.items()}, "dropped": dropped}


def _exact(cfg, s: int) -> float:
    return float(moments.exact_trace_moment(cfg.moment_spec(), s).total)


def mc_reference(seed: int) -> dict:
    cfgs = wl.mc_configs(seed)
    tail = _spectra(cfgs["tail"], wl.TAIL_REPLICATES, (wl.CHEB_S,))
    denom = wl.EDGE_N ** (2.0 / 3.0)
    thresholds = [2 * float(wl.V) * (1 + x / denom) for x in wl.X_GRID]
    uni = {k: _spectra(cfgs[k], wl.UNI_REPLICATES, (wl.UNI_S,)) for k in ("uni_a", "uni_b")}
    small = {k: _spectra(cfgs[k], wl.SMALL_MC_REPLICATES, wl.SMALL_MC_S) for k in ("small_rademacher", "small_goe")}
    tcfg = cfgs["trunc"]
    cutoff = float(tcfg.n) ** (1 / tcfg.truncation.eta - tcfg.truncation.delta)
    hits = sum(bool(np.any(np.abs(_entries(tcfg, rep)) > cutoff)) for rep in range(wl.TRUNC_REPLICATES))
    return {
        "tail": {
            "thresholds": thresholds,
            "exceed_counts": [int(np.sum(tail["lambda_max"] > t)) for t in thresholds],
            "replicates": len(tail["lambda_max"]),
            "trace": tail["traces"][wl.CHEB_S],
            "exact": _exact(cfgs["tail"], wl.CHEB_S),
        },
        "universality": {
            k: {"trace": uni[k]["traces"][wl.UNI_S], "dropped": uni[k]["dropped"], "exact": _exact(cfgs[k], wl.UNI_S)}
            for k in uni
        },
        "small": {
            k: {
                "dropped": small[k]["dropped"],
                "traces": small[k]["traces"],
                "exact": {s: _exact(cfgs[k], s) for s in wl.SMALL_MC_S},
            }
            for k in small
        },
        "truncation": {"hits": hits, "cutoff": cutoff},
    }


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=MEAN_RTOL, abs_tol=1e-12)


def _z(traces: np.ndarray, exact: float) -> float:
    """z of the trace mean against the exact value; 0 for a deterministic trace."""
    sd = float(np.std(traces, ddof=1))
    mean = float(np.mean(traces))
    if sd < 1e-9 * max(1.0, abs(mean)):
        return 0.0 if _close(mean, exact) else math.inf
    return (mean - exact) / (sd / math.sqrt(len(traces)))


def check_mc(outputs: dict, ref: dict, seed: int) -> Verdict:
    verdict = Verdict(attempted=wl.MC_REPLICATES)

    tail, rt = outputs["tail"], ref["tail"]
    reps = wl.TAIL_REPLICATES
    mean_trace = float(np.mean(rt["trace"]))
    cheb = [mean_trace / t ** (2 * wl.CHEB_S) for t in rt["thresholds"]]
    if tail["replicates"] != rt["replicates"]:
        verdict.fail(reps, f"tail: {tail['replicates']} replicates filled, expected {rt['replicates']}")
    elif tail["exceed_counts"] != rt["exceed_counts"]:
        verdict.fail(reps, f"tail: exceedance counts {tail['exceed_counts']} != {rt['exceed_counts']}")
    elif not all(map(_close, tail["thresholds"], rt["thresholds"])):
        verdict.fail(reps, "tail: thresholds off the n^(-2/3) grid")
    elif not all(map(_close, tail["chebyshev_bounds"], cheb)):
        verdict.fail(reps, "tail: Chebyshev bounds differ beyond rounding")
    elif abs(_z(rt["trace"], rt["exact"])) > Z_MAX:
        verdict.fail(reps, "tail: trace mean too far from the exact walk sum")

    uni, ru = outputs["universality"], ref["universality"]
    n = wl.EDGE_N
    means = {k: float(np.mean(ru[k]["trace"])) / n for k in ru}
    zs = {k: _z(ru[k]["trace"], ru[k]["exact"]) for k in ru}
    if ru["uni_a"]["dropped"] or ru["uni_b"]["dropped"] or uni["replicates"] != wl.UNI_REPLICATES:
        verdict.fail(2 * wl.UNI_REPLICATES, "universality: replicates dropped")
    elif not (_close(uni["mean_a"], means["uni_a"]) and _close(uni["mean_b"], means["uni_b"])):
        verdict.fail(2 * wl.UNI_REPLICATES, "universality: means differ beyond rounding")
    elif not uni["agrees_within_3sd"]:
        verdict.fail(2 * wl.UNI_REPLICATES, "universality: rademacher and gaussian disagree")
    elif max(abs(z) for z in zs.values()) > Z_MAX:
        verdict.fail(2 * wl.UNI_REPLICATES, f"universality: |z| against exact walk sums {zs}")

    for label, rs in ref["small"].items():
        got = outputs["small"][label]
        reps = wl.SMALL_MC_REPLICATES
        if len(got["failed_replicates"]) != rs["dropped"] or got["replicates"] != reps - rs["dropped"]:
            verdict.fail(reps, f"{label}: dropped replicates {got['failed_replicates']}, expected {rs['dropped']}")
            continue
        for s in wl.SMALL_MC_S:
            trace = rs["traces"][s]
            if not _close(got["trace_mean"][str(s)], float(np.mean(trace))):
                verdict.fail(reps, f"{label}: trace mean at s={s} differs beyond rounding")
                break
            if abs(_z(trace, rs["exact"][s])) > Z_MAX:
                verdict.fail(reps, f"{label}: |z| at s={s} against the exact walk sum exceeds {Z_MAX}")
                break

    trunc, rtr = outputs["truncation"], ref["truncation"]
    if trunc["hits"] != rtr["hits"] or not _close(trunc["cutoff"], rtr["cutoff"]):
        verdict.fail(wl.TRUNC_REPLICATES, f"truncation: {trunc['hits']} hits, expected {rtr['hits']}")
    elif not trunc["ci_low"] <= trunc["union_bound"]:
        verdict.fail(wl.TRUNC_REPLICATES, "truncation: event rate above its union bound")
    return verdict


# ---------------------------------------------------------------------------


def reference(workload: str, seed: int, corrupt: str | None = None) -> dict:
    """What the outputs must match; `corrupt` breaks it on purpose (self-test)."""
    if workload == "exact-s6":
        ref = json.loads((REFERENCE_DIR / "exact_s6.json").read_text())
        if corrupt == "exact-total":
            key = wl.total_key(wl.SPEC_NAMES[0], wl.exact_grid(seed)[-1], wl.S_MAX)
            ref["totals"][key] = str(Fraction(ref["totals"][key]) + 1)
    elif workload == "verify":
        ref = json.loads((REFERENCE_DIR / "verify.json").read_text())
        if corrupt == "crit10-green":
            ref["suites"]["10"]["failures"] = []
            ref["exit_code"] = 0
    else:
        ref = mc_reference(seed)
        if corrupt == "exceed-count":
            ref["tail"]["exceed_counts"][2] += 1
    return ref


CHECKS = {"exact-s6": check_exact, "verify": check_verify, "mc-edge": check_mc}


def check(workload: str, outputs: dict, ref: dict, seed: int) -> Verdict:
    return CHECKS[workload](outputs, ref, seed)


def canonical(workload: str, outputs: dict) -> str:
    """The checked outputs as one string; equal strings mean identical outputs."""
    if workload == "verify":
        stdout = re.sub(r", [0-9.]+s\)$", ")", outputs["stdout"], flags=re.M)
        outputs = {**outputs, "stdout": stdout}
    return json.dumps(outputs, sort_keys=True)
