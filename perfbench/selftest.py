"""Self-test of the benchmark: its gate is not vacuous and its outputs repeat.

    python3 perfbench/selftest.py

1. Each corrupted reference makes the benchmark fail (exit 1, correct=false):
   an exact total off by one, one exceedance count off by one, criterion 10
   documented as green.
2. A seed drawn now, so never used while the benchmark was written, passes
   every check on every workload, and a second run with it gives identical
   checked outputs.
3. A directory holding only BENCHMARK.json and perfbench/ makes it exit
   nonzero without a result line.
4. BENCHMARK.json names exactly the metrics run.py reports.

About six minutes on 2 vCPUs. Exits 0 when every test passes.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

CORRUPTION_WORKLOAD = {"exact-total": "exact-s6", "exceed-count": "mc-edge", "crit10-green": "verify"}


def bench(workload: str, seed: int, *extra: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def outputs_digest(workload: str, seed: int) -> list[str]:
    detail = json.loads((run.OUT / f"result-{workload}-seed{seed}-trace0.json").read_text())
    return detail["outputs_sha256"]


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
        if not ok:
            failures.append(what)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
        and [m["name"] for m in declared["per_layer"]] == run.PER_LAYER,
        "BENCHMARK.json declares the metrics run.py reports",
    )

    seed = random.SystemRandom().randrange(1_000_000, 2**31)
    print(f"fresh seed: {seed}", flush=True)
    for kind, workload in CORRUPTION_WORKLOAD.items():
        code, result = bench(workload, seed, "--corrupt-reference", kind)
        expect(code == 1 and result is not None and not result["correct"] and result["failed"] > 0, f"corrupted reference ({kind}) fails {workload}")

    for workload in run.WORKLOADS:
        digests = []
        for attempt in (1, 2):
            code, result = bench(workload, seed)
            expect(code == 0 and result is not None and result["correct"] and result["failed"] == 0, f"{workload} seed {seed} run {attempt} passes every check")
            digests.append(outputs_digest(workload, seed))
        expect(len(digests[0]) == 1 and digests[0] == digests[1], f"{workload} seed {seed}: identical checked outputs across passes and runs")

    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench("exact-s6", seed, cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and result is None, "without the program it exits nonzero and prints no result")

    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
