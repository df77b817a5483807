"""One fresh process: set up a workload, optionally run one pass, report as JSON.

    python3 perfbench/child.py WORKLOAD SEED {setup,pass} TRACE [SPANS_FILE]

The parent reads the last stdout line. `ready` is taken on the system-wide
monotonic clock, so the parent can subtract its own spawn time from it.
Set-up covers the imports and the generation of the workload's inputs.
A pass reports its wall and CPU time together with the speed probe's
reading over the same interval (see probe.py).
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv: list[str]) -> int:
    workload, seed, mode, trace = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    spans_file = argv[4] if len(argv) > 4 else None

    import tracer as tracing
    import workloads
    from probe import Probe

    run = workloads.prepare(workload, seed)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    probe = Probe()
    probe.start()
    try:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        outputs = run()
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
    finally:
        probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "probe_us": probe.trimmed_mean_us(),
        "probe_samples": len(probe.samples),
        "outputs": outputs,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["coverage"] = tracer.root_cover() / wall
        result["spans"] = len(tracer.spans)
        if spans_file:
            tracer.dump(spans_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
