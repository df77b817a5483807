"""wignerlab benchmark: one workload per run, timed end to end or traced per layer.

    python3 perfbench/run.py --workload {exact-s6,verify,mc-edge} --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the program is imported from its
`src/`. Each pass runs in a fresh process, one after the other (a closed loop
with one caller), so the walk and shape caches start cold as they do for a
CLI user. A new pass starts while less than `--seconds` have passed since
the first, with at least two passes. A pass's wall and CPU times are
rescaled by the speed probe read over the same interval (probe.py) to
`wall_ref_s` and `cpu_ref_s`, seconds at a fixed machine speed; the raw
times are printed beside them. The last stdout line is one JSON
object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`). The exit
code is 1 when any output check fails and 2 when the checkout holds no
program. Details, machine facts and the spans of the last traced pass land
in `.perfbench-out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from probe import REFERENCE_US

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("exact-s6", "verify", "mc-edge")
MIN_PASSES = 2
SETUP_SAMPLES = 5
RUN_BUDGET_S = 140  # no pass or set-up probe starts that would end later than this
CHILD_TIMEOUT_S = 120
CORRUPTIONS = ("exact-total", "exceed-count", "crit10-green")  # self-test only

END_TO_END = {"wall_ref_s": "s", "cpu_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"_s": "s", "_ms": "ms", "_us": "us", "_pct": "%", "per_s": "1/s"}
PER_LAYER = (
    "walks.enumerate_s walks.walks walks.walks_per_s walks.analyze_s walks.analyze_calls "
    "walks.analyze_us walks.checks_s moments.cold_s moments.eval_s moments.evals "
    "moments.brute_s moments.brute_calls dyck.enumerate_s dyck.paths dyck.exit_degree_s "
    "dyck.height_s series.s classes.census_s classes.report_s classes.classify_calls "
    "suites.c1_s suites.c2_s suites.c3_s suites.c4_s suites.c5_s suites.c6_s suites.c7_s "
    "suites.c10_s suites.c11_s cli.goldens_s mc.sample_s mc.sample_ms mc.eigen_s mc.eigen_ms "
    "mc.traces_s mc.entries_s mc.replicates mc.failed_replicates trace.overhead_pct trace.coverage "
    "probe.us"
).split()


def layer_unit(name: str) -> str:
    if name == "series.s":
        return "s"
    if name == "trace.coverage":
        return "ratio"
    if name == "probe.us":
        return "us"
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, traced: bool, spans_file: Path | None = None) -> dict:
    """Run one fresh process; returns its report plus its set-up time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Cache bytecode as an installed package would, but outside src/.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode, str(int(traced))]
    if spans_file is not None:
        cmd.append(str(spans_file))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - spawned
    report["process_s"] = time.monotonic() - spawned
    if mode == "pass":
        if report["probe_us"] <= 0:
            raise ChildFailed("the speed probe took no sample during the pass")
        scale = REFERENCE_US / report["probe_us"]
        report["wall_ref_s"] = report["wall_s"] * scale
        report["cpu_ref_s"] = report["cpu_s"] * scale
    return report


def tree_digest(directory: Path) -> str:
    """Digest of every file under directory except bytecode caches."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (checkout is not a git repository)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "thread_env": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def measure(workload: str, seed: int, seconds: int, trace: bool, started: float) -> tuple[list, list, str]:
    """Passes (alternating untraced and traced with --trace 1) and set-up samples."""
    spans_file = OUT / f"spans-{workload}-seed{seed}.json"
    passes, error = [], ""
    try:
        spawn(workload, seed, "setup", False)  # warm-up: bytecode cache, shared libraries
    except ChildFailed as exc:
        return passes, [], str(exc)
    loop_start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        try:
            report = spawn(workload, seed, "pass", traced, spans_file if traced else None)
        except ChildFailed as exc:
            error = str(exc)
            break
        report["traced"] = traced
        passes.append(report)
        if len(passes) >= MIN_PASSES and time.monotonic() - loop_start >= seconds:
            break
        per_pass = statistics.median(p["process_s"] for p in passes)
        if time.monotonic() - started + per_pass > RUN_BUDGET_S:
            break
    setups = [p["setup_s"] for p in passes]
    while not error and len(setups) < SETUP_SAMPLES:
        if time.monotonic() - started + 2 * max(setups) > RUN_BUDGET_S:
            break
        setups.append(spawn(workload, seed, "setup", False)["setup_s"])
    return passes, setups, error


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-reference", choices=CORRUPTIONS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    started = time.monotonic()

    if not (SRC / "wignerlab" / "__init__.py").is_file():
        print(f"error: no wignerlab package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.pycache_prefix = str(OUT / "pycache")
    sys.path[:0] = [str(SRC)]
    src_before = tree_digest(SRC)

    passes, setups, error = measure(args.workload, args.seed, args.seconds, bool(args.trace), started)

    import checks
    import wignerlab

    problems = [error] if error else []
    if Path(wignerlab.__file__).resolve().parent != SRC / "wignerlab":
        problems.append(f"wignerlab imported from {wignerlab.__file__}, not from this checkout")
    attempted = failed = 0
    verdicts: dict[str, checks.Verdict] = {}
    try:
        ref = checks.reference(args.workload, args.seed, args.corrupt_reference)
        for p in passes:
            canon = checks.canonical(args.workload, p["outputs"])
            if canon not in verdicts:
                verdicts[canon] = checks.check(args.workload, p["outputs"], ref, args.seed)
            attempted += verdicts[canon].attempted
            failed += verdicts[canon].failed
    except Exception:  # outputs of an unexpected shape: report, do not crash
        problems.append("output check raised:\n" + traceback.format_exc())
        attempted = failed = max(attempted, len(passes), 1)
    for verdict in verdicts.values():
        problems.extend(verdict.problems)
    if len(verdicts) > 1:
        problems.append(f"{len(verdicts)} different outputs from {len(passes)} passes with one seed")
    if error:
        # the pass that failed counts as failed in all its operations
        per_pass = next(iter(verdicts.values())).attempted if verdicts else 1
        attempted += per_pass
        failed += per_pass
    if tree_digest(SRC) != src_before:
        problems.append("files under src/ changed during the run")
    correct = not problems and failed == 0

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        plain = [p for p in passes if not p["traced"]]
        values = {
            name: statistics.median(p["layers"][name] for p in traced) if traced else 0.0
            for name in PER_LAYER
            if not name.startswith(("trace.", "probe."))
        }
        if traced and plain:
            untraced_wall = statistics.median(p["wall_ref_s"] for p in plain)
            traced_wall = statistics.median(p["wall_ref_s"] for p in traced)
            values["trace.overhead_pct"] = (traced_wall / untraced_wall - 1.0) * 100.0
            values["trace.coverage"] = statistics.median(p["coverage"] for p in traced)
        else:
            values["trace.overhead_pct"] = values["trace.coverage"] = 0.0
        values["probe.us"] = statistics.median(p["probe_us"] for p in traced) if traced else 0.0
        metrics = {name: {"value": values[name], "unit": layer_unit(name)} for name in PER_LAYER}
        idle = [name for name in PER_LAYER if values[name] == 0]
        print(f"per-layer metrics that read 0 on this workload (layer idle, or nothing dropped): {idle}")
    else:
        def median_of(key):
            return statistics.median(p[key] for p in passes) if passes else 0.0

        values = {
            "wall_ref_s": median_of("wall_ref_s"),
            "cpu_ref_s": median_of("cpu_ref_s"),
            "setup_s": statistics.median(setups) if setups else 0.0,
            "peak_rss_mb": median_of("peak_rss_mb"),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        summary = "  ".join(f"{k}={v:.4g} {END_TO_END[k]}" for k, v in values.items())
        raw = f"wall_s={median_of('wall_s'):.4g} s  cpu_s={median_of('cpu_s'):.4g} s  probe={median_of('probe_us'):.4g} us"
        print(
            f"{args.workload} seed={args.seed}: {summary}  ({raw})  error_rate={failed / max(attempted, 1):.4g} "
            f"({failed}/{attempted} operations)  passes={len(passes)} setup_samples={len(setups)}"
        )

    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "args": vars(args),
        "machine": facts,
        "result": result,
        "error_rate": failed / max(attempted, 1),
        "problems": problems,
        "setup_samples_s": setups,
        "passes": [{k: v for k, v in p.items() if k != "outputs"} for p in passes],
        "outputs_sha256": [hashlib.sha256(c.encode()).hexdigest() for c in verdicts],
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
