"""Outside-in tracing for the traced run.

The program is not changed: `install` replaces public entry points with
timing wrappers at every name where wignerlab modules look them up (for
example `wignerlab.classes.analyze` and `numpy.linalg.eigvalsh`). Spans are
kept in memory as (name, start, end, parent) and written out once the pass
has ended. A span's self time is its duration minus the time its direct
children cover; spans nest because a pass runs on one thread.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# The criteria `wignerlab verify` runs. Their metrics, like cli.goldens_s and
# mc.sample_s, are inclusive durations; every other `_s` metric is self time.
SUITES = (1, 2, 3, 4, 5, 6, 7, 10, 11)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._child: list[float] = []
        self._stack: list[int] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def wrap(self, fn, group, after=None):
        """Time each call of fn as a span of `group` (a name or a function of the args)."""
        spans, child, stack = self.spans, self._child, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            name = group(args, kwargs) if callable(group) else group
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent]
            spans.append(span)
            child.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[1], span[2] = start, end
                dur = end - start
                self.self_s[name] += dur - child[idx]
                self.incl_s[name] += dur
                self.calls[name] += 1
                if parent >= 0:
                    child[parent] += dur
            if after is not None:
                after(self.counts, args, kwargs, out)
            return out

        return traced

    def counter(self, fn, key):
        """Count calls of fn without a span (its time stays with the caller)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def root_cover(self) -> float:
        """Wall time covered by top-level spans (they never overlap)."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def _patch(modules, owner, attr, replacement_for):
    """Rebind owner.attr, and every module-level alias of it, to a wrapper."""
    orig = getattr(owner, attr)
    wrapper = replacement_for(orig)
    for mod in modules + [owner]:
        if getattr(mod, attr, None) is orig:
            setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    import numpy.linalg

    from wignerlab import classes, cli, dyck, mc, moments, series, suites, walks

    mods = [m for name, m in sys.modules.items() if name == "wignerlab" or name.startswith("wignerlab.")]

    def span(owner, attr, group, after=None):
        _patch(mods, owner, attr, lambda fn: tracer.wrap(fn, group, after))

    def add_len(key):
        def after(counts, args, kwargs, out):
            counts[key] += len(out)

        return after

    # walks
    span(walks, "enumerate_even_walks", "walks.enumerate", add_len("walks.walks"))
    span(walks, "analyze", "walks.analyze")
    for attr in ("verify_vertex_ledger", "verify_cell_bounds", "verify_exit_degree_tree_link", "is_tree_structure"):
        span(walks, attr, "walks.checks")

    # moments: the first evaluation at each s builds the shape table (cold)
    seen_s: set[int] = set()

    def moment_group(args, kwargs):
        s = kwargs.get("s", args[1] if len(args) > 1 else None)
        if s in seen_s:
            return "moments.eval"
        seen_s.add(s)
        return "moments.cold"

    span(moments, "exact_trace_moment", moment_group)
    span(moments, "z_decomposition", moment_group)
    span(moments, "brute_force_trace_moment", "moments.brute")

    # dyck and series
    span(dyck, "enumerate_dyck", "dyck.enumerate", add_len("dyck.paths"))
    span(dyck, "count_trees_with_exit_degree_ge", "dyck.exit_degree")
    span(dyck, "count_trees_with_exit_degree_eq", "dyck.exit_degree")
    for attr in ("height_counts", "excursion_functional", "mean_max_height"):
        span(dyck, attr, "dyck.height")
    for attr, obj in list(vars(series).items()):
        if callable(obj) and not attr.startswith("_") and getattr(obj, "__module__", "") == series.__name__ and not isinstance(obj, type):
            span(series, attr, "series")

    # classes
    for attr in ("nu_census", "mu_census", "exact_class_size"):
        span(classes, attr, "classes.census")
    for attr in ("nu_domination_report", "mu_domination_report", "census_csv_rows"):
        span(classes, attr, "classes.report")
    for attr in ("classify_nu", "classify_mu"):
        _patch(mods, classes, attr, lambda fn: tracer.counter(fn, "classes.classify_calls"))

    # suites and cli
    for attr in dir(suites):
        if attr.startswith("criterion_"):
            number = int(attr.split("_")[1])
            span(suites, attr, f"suites.c{number}")
    span(cli, "check_goldens", "cli.goldens")

    # mc
    def count_replicates(counts, args, kwargs, out):
        counts["mc.replicates"] += kwargs.get("replicates", args[1] if len(args) > 1 else 0)

    def count_sample_stats(counts, args, kwargs, out):
        count_replicates(counts, args, kwargs, out)
        counts["mc.failed_replicates"] += len(out.failed_replicates)

    span(mc, "sample_matrix", "mc.sample")
    span(mc, "sample_entries", "mc.entries")
    span(mc, "spectral_stats", "mc.traces")
    span(mc, "sample_stats", "mc.driver", count_sample_stats)
    span(mc, "truncation_event_rate", "mc.driver", count_replicates)
    for attr in ("tail_curve", "universality_compare"):
        span(mc, attr, "mc.driver")
    _patch([], numpy.linalg, "eigvalsh", lambda fn: tracer.wrap(fn, "mc.eigen"))


def _per(total: float, calls: int, scale: float) -> float:
    return total / calls * scale if calls else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (0 where a layer did no work)."""
    sf, inc, calls, counts = tracer.self_s, tracer.incl_s, tracer.calls, tracer.counts
    out = {
        "walks.enumerate_s": sf["walks.enumerate"],
        "walks.walks": counts["walks.walks"],
        "walks.walks_per_s": counts["walks.walks"] / sf["walks.enumerate"] if sf["walks.enumerate"] else 0.0,
        "walks.analyze_s": sf["walks.analyze"],
        "walks.analyze_calls": calls["walks.analyze"],
        "walks.analyze_us": _per(sf["walks.analyze"], calls["walks.analyze"], 1e6),
        "walks.checks_s": sf["walks.checks"],
        "moments.cold_s": sf["moments.cold"],
        "moments.eval_s": sf["moments.eval"],
        "moments.evals": calls["moments.cold"] + calls["moments.eval"],
        "moments.brute_s": sf["moments.brute"],
        "moments.brute_calls": calls["moments.brute"],
        "dyck.enumerate_s": sf["dyck.enumerate"],
        "dyck.paths": counts["dyck.paths"],
        "dyck.exit_degree_s": sf["dyck.exit_degree"],
        "dyck.height_s": sf["dyck.height"],
        "series.s": sf["series"],
        "classes.census_s": sf["classes.census"],
        "classes.report_s": sf["classes.report"],
        "classes.classify_calls": counts["classes.classify_calls"],
    }
    for number in SUITES:
        out[f"suites.c{number}_s"] = inc[f"suites.c{number}"]
    out["cli.goldens_s"] = inc["cli.goldens"]
    out.update(
        {
            "mc.sample_s": inc["mc.sample"],
            "mc.sample_ms": _per(inc["mc.sample"], calls["mc.sample"], 1e3),
            "mc.eigen_s": sf["mc.eigen"],
            "mc.eigen_ms": _per(sf["mc.eigen"], calls["mc.eigen"], 1e3),
            "mc.traces_s": sf["mc.traces"],
            "mc.entries_s": sf["mc.entries"],
            "mc.replicates": counts["mc.replicates"],
            "mc.failed_replicates": counts["mc.failed_replicates"],
        }
    )
    return out
