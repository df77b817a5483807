"""Command-line entry point.

Subcommands: verify, enumerate, classify, moments, zparts, mc, tail, dilute,
genfun, report, analyze. Every emitted file embeds the tool version and a
fingerprint of the resolved parameters; a timestamp is included unless
--no-timestamp is given, so reruns with the same fingerprint are
byte-identical.

A config file (--config, read by `main` before parsing) holds `key = value`
lines mirroring the long flag names; explicit flags override file values.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import TextIO

from . import __version__
from . import classes as cls
from . import dyck, moments, series
from .errors import EnumerationCeilingError
from .laws import make_law
from .mc import EnsembleConfig, fingerprint as _digest, sample_stats, tail_curve
from .moments import TruncationSpec
from .suites import run_verify_suites
from .walks import (
    WALK_ENUMERATION_CEILING,
    Walk,
    analyze,
    enumerate_even_walks,
    is_tree_structure,
    report_to_json,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"


#: keys that do not affect the computation and stay out of the fingerprint
_VOLATILE_KEYS = {"out", "func", "no_timestamp", "format", "bless", "golden_dir"}

#: json.dumps settings of every JSON output. Strict JSON: a NaN or infinity
#: is an error here, never a bare token in the file.
_JSON = {"indent": 2, "sort_keys": True, "default": str, "allow_nan": False}

#: defaults of --gamma and moments --delta, flags that only some runs read
_GAMMA = 24.0
_MOMENTS_DELTA = 0.05


def fingerprint(params: dict) -> str:
    return _digest({k: v for k, v in params.items() if k not in _VOLATILE_KEYS})


def _meta(params: dict, no_timestamp: bool) -> dict:
    meta = {"tool": "wignerlab", "version": __version__, "fingerprint": fingerprint(params)}
    if not no_timestamp:
        meta["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return meta


@contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """The text stream of --out: the file at path, else stdout."""
    if path:
        with open(path, "w") as out:
            yield out
    else:
        yield sys.stdout


def _write_csv(out: TextIO, rows: Iterable[dict]) -> None:
    """Header plus rows, keyed by the first row, written as they come; nothing for no rows."""
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        writer = csv.DictWriter(out, fieldnames=list(first.keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerow(first)
        writer.writerows(rows)


def _rows_to_csv(rows: list[dict]) -> str:
    """Header plus rows, keyed by the first row; empty text for no rows."""
    buf = io.StringIO()
    _write_csv(buf, rows)
    return buf.getvalue()


def write_rows(path: str | None, rows: Iterable[dict], params: dict, fmt: str, no_timestamp: bool):
    """The rows as CSV under a commented header, or as JSON, never held as one list of dicts.

    CSV rows are written as they come. Each JSON row is rendered to text as
    it comes, and all are rendered before the first write, so a refused
    value leaves no partial output.
    """
    if fmt == "json":
        # the text json.dumps gives {"_meta": ..., "rows": [...]}: "rows" sorts
        # last, and a row two levels down is indented four more spaces a line
        items = [json.dumps(row, **_JSON).replace("\n", "\n    ") for row in rows]
        head = json.dumps({"_meta": _meta(params, no_timestamp), "rows": []}, **_JSON)
        with _output(path) as out:
            if not items:
                out.write(head + "\n")
                return
            out.write(head.removesuffix("]\n}"))
            for i, item in enumerate(items):
                out.write(("," if i else "") + "\n    " + item)
            out.write("\n  ]\n}\n")
        return
    meta = _meta(params, no_timestamp)
    with _output(path) as out:
        out.write("".join(f"# {k}: {v}\n" for k, v in sorted(meta.items())))
        _write_csv(out, rows)


def write_json(path: str | None, payload: dict, params: dict, no_timestamp: bool):
    text = json.dumps({"_meta": _meta(params, no_timestamp), **payload}, **_JSON)
    with _output(path) as out:
        out.write(text + "\n")


def load_config_tokens(path: str) -> list[str]:
    """Turn `key = value` lines into CLI tokens so flags can override them.

    A true/yes/on value becomes a bare switch; false/no/off gives no token.
    An unreadable file or a line without '=' raises OSError or ValueError.
    """
    tokens = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("_", "-")
        if value.lower() in ("true", "yes", "on"):
            tokens.append(f"--{key}")
        elif value.lower() not in ("false", "no", "off"):
            tokens.extend([f"--{key}", value])
    return tokens


def build_law(args):
    return make_law(args.ensemble, Fraction(args.v), gamma=getattr(args, "gamma", _GAMMA))


def build_config(args) -> EnsembleConfig:
    dilution_c = int(args.c) if args.c is not None else None
    return EnsembleConfig(n=args.n, law=build_law(args), dilution_c=dilution_c, seed=args.seed)


def build_spec(args) -> moments.MomentSpec:
    law = build_law(args)
    trunc = TruncationSpec(law, delta=args.delta) if getattr(args, "truncate", False) else None
    return moments.MomentSpec(args.n, law, trunc, int(args.c) if args.c is not None else None)


# ---------------------------------------------------------------------------
# Subcommand handlers. Each returns a process exit code.


def cmd_verify(args) -> int:
    results = run_verify_suites(max_halfsteps=args.max_halfsteps, k0=args.k0)
    failed = False
    for res in results:
        print(res.summary())
        for label, detail in res.failures():
            failed = True
            print(f"    FAILED: {label} {detail}")
    golden_dir = Path(args.golden_dir) if args.golden_dir else GOLDEN_DIR
    gold_ok = check_goldens(golden_dir, bless=args.bless)
    shown = args.golden_dir or "wignerlab/goldens"
    print(f"[{'PASS' if gold_ok else 'FAIL'}] golden tables ({shown})")
    return 0 if (not failed and gold_ok) else 1


def _walk_count_row(s: int) -> dict:
    """Even, tree (s + 1 vertices) and loopless walks of 2s steps, summed from the shape table."""
    shapes = moments._walk_shapes(s)
    return {
        "s": s,
        "even_walks": sum(count for *_, count in shapes),
        "tree_walks": sum(count for _, nv, _, _, count in shapes if nv == s + 1),
        "loopless": sum(count for profile, *_, count in shapes if not any(loop for _, loop in profile)),
    }


def golden_tables() -> dict[str, list[dict]]:
    return {
        "catalan.csv": [{"k": k, "catalan": dyck.catalan(k)} for k in range(17)],
        "root_degree.csv": [
            {"s": s, "d": d, "count": dyck.count_trees_root_degree(s, d)}
            for s in range(11)
            for d in range(s + 1)
        ],
        "walk_counts.csv": [_walk_count_row(s) for s in range(6)],
        "moment_counts.csv": [
            {"s": s, "n2": series.n2_count(s), "n3": series.nm_count(3, s) if s >= 3 else 0}
            for s in range(13)
        ],
        "class_census_s3.csv": cls.census_csv_rows(3),
    }


def check_goldens(golden_dir: Path, bless: bool = False) -> bool:
    tables = golden_tables()
    golden_dir.mkdir(parents=True, exist_ok=True)
    ok = True
    for name, rows in tables.items():
        text = _rows_to_csv(rows)
        path = golden_dir / name
        if bless or not path.exists():
            path.write_text(text)
            continue
        if path.read_text() != text:
            ok = False
            print(f"    golden mismatch: {name}")
    return ok


def cmd_enumerate(args) -> int:
    if args.dyck is not None and (args.s is not None or args.no_loops or args.no_self_intersections):
        print("error: --dyck takes no --s, --no-loops or --no-self-intersections", file=sys.stderr)
        return 2
    if args.s is None:
        args.s = 3
    params = vars(args).copy()
    # walks are the default kind, so a run without --walks shares its fingerprint
    params["walks"] = args.dyck is None
    if args.dyck is not None:
        paths = dyck.enumerate_dyck(args.dyck)
        rows = [{"index": i, "path": str(p), "max_height": p.max_height} for i, p in enumerate(paths)]
    else:
        walks = enumerate_even_walks(args.s, allow_loops=not args.no_loops)
        if args.no_self_intersections:
            walks = [w for w in walks if is_tree_structure(w)]
        rows = [{"index": i, "walk": w.to_string()} for i, w in enumerate(walks)]
    print(f"{len(rows)} objects")
    write_rows(args.out, rows, params, args.format, args.no_timestamp)
    return 0


def cmd_classify(args) -> int:
    if args.s < 1:
        raise ValueError("s must be >= 1")
    if 2 * args.s > WALK_ENUMERATION_CEILING:
        raise EnumerationCeilingError("class census", 2 * args.s, WALK_ENUMERATION_CEILING)
    # rows are held as tuples and become dicts one at a time as they are written
    rows = []
    lemma_failures = 0
    for s in range(1, args.s + 1):
        rows.extend(cls.census_csv_tuples(s, k0=args.k0))
        lemma_failures += sum(cls.lemma_failures(s).values())
    exact, bound = cls.CENSUS_CSV_FIELDS.index("exact"), cls.CENSUS_CSV_FIELDS.index("bound")
    violations = sum(1 for r in rows if r[bound] != "" and Fraction(r[bound]) < r[exact])
    print(f"{len(rows)} class rows, {violations} bound violations, {lemma_failures} lemma failures")
    dicts = (dict(zip(cls.CENSUS_CSV_FIELDS, row)) for row in rows)
    write_rows(args.out, dicts, vars(args).copy(), args.format, args.no_timestamp)
    return 0 if not violations and not lemma_failures else 1


def cmd_moments(args) -> int:
    if args.truncate and args.c is not None:
        print("error: --truncate and --c exclude each other", file=sys.stderr)
        return 2
    spec = build_spec(args)
    result = moments.exact_trace_moment(spec, args.s)
    exact = moments.exact_text(result.total)
    label = "float" if exact is None else f"exact {exact}"
    print(f"E Tr A^{2*args.s} = {float(result.total)}  ({label})")
    write_json(args.out, result.to_dict(), vars(args).copy(), args.no_timestamp)
    return 0


def cmd_zparts(args) -> int:
    spec = build_spec(args)
    result = moments.z_decomposition(spec, args.s, delta=args.delta, c0=args.c0)
    parts = {i: float(v) for i, v in result.z_parts.items()}
    # a zero total has no Z1 fraction
    z1 = "n/a" if result.z1_fraction is None else f"{result.z1_fraction:.4f}"
    print(f"total={float(result.total):.6g} z1 fraction={z1} parts={parts}")
    if args.format == "csv":
        # a float total has no exact column
        exact = moments.exact_text(result.total) is not None
        total = float(result.total)
        parts = [(f"Z{i}", v) for i, v in sorted(result.z_parts.items())] + [("total", result.total)]
        rows = [
            {
                "part": part,
                "value": float(v),
                "value_exact": str(v) if exact else "",
                "fraction": 1.0 if part == "total" else float(v) / total if total else 0.0,
            }
            for part, v in parts
        ]
        write_rows(args.out, rows, vars(args).copy(), "csv", args.no_timestamp)
    else:
        write_json(args.out, result.to_dict(), vars(args).copy(), args.no_timestamp)
    return 0


def cmd_mc(args) -> int:
    config = build_config(args)
    s_list = tuple(range(1, args.s + 1))
    stats = sample_stats(config, args.replicates, s_list=s_list)
    summary = {
        "config": config.descriptor(),
        "fingerprint": config.fingerprint(),
        "replicates": stats.replicates,
        "failed_replicates": stats.failed_replicates,
        "lambda_max_mean": float(stats.lambda_max.mean()) if stats.replicates else None,
        "traces": {},
    }
    for s in s_list:
        entry = {
            "mean": stats.trace_mean(s),
            "std": stats.trace_std(s),
            "ci": stats.trace_ci(s),
        }
        try:  # an exact moment wherever the walk-shape table reaches
            exact = float(moments.exact_trace_moment(config.moment_spec(), s).total)
        except EnumerationCeilingError:
            pass
        else:
            entry.update(exact=exact, z=stats.zscore_against(s, exact))
        summary["traces"][str(2 * s)] = entry
        mean, z = entry["mean"], entry.get("z")
        print(
            f"2s={2*s}: mean=" + ("n/a" if mean is None else f"{mean:.6g}") + ("" if z is None else f" z={z:+.2f}")
        )
    if args.out:
        write_rows(args.out, stats.rows(), vars(args).copy(), args.format or "csv", args.no_timestamp)
        summary_path = Path(args.out).with_suffix(".summary.json")
        write_json(str(summary_path), summary, vars(args).copy(), args.no_timestamp)
    else:
        write_json(None, summary, vars(args).copy(), args.no_timestamp)
    return 0


def cmd_tail(args) -> int:
    config = build_config(args)
    xs = tuple(float(Fraction(tok)) for tok in args.x.split(","))
    curve = tail_curve(
        config, xs, scale=args.scale, replicates=args.replicates, chebyshev_s=args.chebyshev_s
    )
    for row in curve.rows():
        print(
            f"x={row['x']:+.2f} thr={row['threshold']:.4f} "
            f"P={row['probability']:.4f} ci=({row['ci_low']:.4f},{row['ci_high']:.4f})"
        )
    write_rows(args.out, curve.rows(), vars(args).copy(), args.format, args.no_timestamp)
    return 0


def cmd_dilute(args) -> int:
    spec = build_spec(args)
    total = moments.exact_trace_moment(spec, args.s).total
    bound = moments.dilute_lower_bound(spec.law, args.n, spec.dilution_c, args.s)
    ok = total >= bound
    exact = moments.exact_text(total)
    moment = f"dilute moment {float(total):.6g}"
    label = f"exact {moment}" if exact is not None else f"{moment} (float)"
    print(
        f"{label} vs lower bound {float(bound):.6g}: "
        f"{'OK' if ok else 'VIOLATED'}"
    )
    write_json(
        args.out,
        {
            "n": args.n,
            "s": args.s,
            "c": spec.dilution_c,
            "exact": float(total),
            "exact_rational": exact,
            "lower_bound": float(bound),
            "satisfied": ok,
        },
        vars(args).copy(),
        args.no_timestamp,
    )
    return 0 if ok else 1


def cmd_genfun(args) -> int:
    rows = series.coefficient_table(args.order)
    write_rows(args.out, rows, vars(args).copy(), args.format, args.no_timestamp)
    ids = series.check_catalan_identities(args.order)
    print(f"identities: {ids}")
    return 0 if all(ids.values()) else 1


def cmd_report(args) -> int:
    results = run_verify_suites(max_halfsteps=args.max_halfsteps, k0=args.k0)
    suites = []
    for r in results:
        suite = {"name": r.name, "passed": r.passed}
        # a timing, like _meta's generated_at, stays out of byte-stable output
        if not args.no_timestamp:
            suite["elapsed_s"] = round(r.elapsed, 2)
        suite["checks"] = [{"label": label, "ok": ok, "detail": detail} for label, ok, detail in r.checks]
        suites.append(suite)
    payload = {"suites": suites, "all_passed": all(r.passed for r in results)}
    write_json(args.out, payload, vars(args).copy(), args.no_timestamp)
    if args.out:
        # without --out stdout holds the JSON alone; the summaries carry timings
        for r in results:
            print(r.summary())
    return 0 if payload["all_passed"] else 1


def cmd_analyze(args) -> int:
    print(report_to_json(analyze(args.walk)))
    return 0


# ---------------------------------------------------------------------------


def _common(p: argparse.ArgumentParser, formats: bool = True) -> None:
    """--out and --no-timestamp, and --format where the subcommand writes CSV as well as JSON."""
    p.add_argument("--out", help="output file (stdout when omitted)")
    if formats:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--no-timestamp", action="store_true", help="omit the timestamp for byte-stable output")


def _integer_text(text: str) -> str:
    """argparse type of --c: the integer's decimal digits, once int() accepts it.

    The value enters fingerprints as text, so 07 and 7 give one fingerprint,
    a canonical --c keeps the one it always had, and a malformed one is a
    usage error.
    """
    try:
        return str(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _rational_text(text: str) -> str:
    """argparse type of --v: one spelling per rational value.

    The value enters fingerprints as text, so 1/2, .50 and 0.5 all become
    0.5: the exact decimal where the value has one (its denominator divides
    a power of ten), p/q otherwise. A canonical --v keeps the fingerprint it
    always had, and a malformed one is a usage error.
    """
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational value: {text!r}") from None
    q = value.denominator
    places = next((k for k in range(q.bit_length()) if 10**k % q == 0), None)
    if places is None:
        return str(value)
    digits = str(abs(value.numerator) * 10**places // q).rjust(places + 1, "0")
    sign = "-" if value < 0 else ""
    return sign + digits if places == 0 else f"{sign}{digits[:-places]}.{digits[-places:]}"


def _walk(text: str) -> Walk:
    """argparse type of analyze's walk: a malformed walk is a usage error."""
    try:
        return Walk.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid walk {text!r}: {exc}") from None


def _grid_text(text: str) -> str:
    """argparse type of --x: each comma-separated point through `_rational_text`.

    0,1 and 0.0,1.0 then share one fingerprint, and an empty, malformed,
    non-finite or float-overflowing point is a usage error.
    """
    points = []
    for token in text.split(","):
        points.append(_rational_text(token))
        try:
            float(Fraction(points[-1]))
        except OverflowError:
            raise argparse.ArgumentTypeError(f"invalid rational value: {token!r} overflows a float") from None
    return ",".join(points)


def _ensemble_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ensemble", default="rademacher", help="rademacher | gaussian | goe | power-tail | three-point")
    p.add_argument("--v", type=_rational_text, default="0.5", help="entry standard deviation (rational ok)")
    p.add_argument("--c", type=_integer_text, default=None, help="dilution concentration")
    p.add_argument("--gamma", type=float, default=_GAMMA, help="index of --ensemble power-tail")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wignerlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"wignerlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the exact identity/bound suites and golden tables")
    p.add_argument("--max-halfsteps", type=int, default=5, help="exhaustive walk depth s")
    p.add_argument("--k0", type=int, default=4)
    p.add_argument("--bless", action="store_true", help="regenerate golden tables")
    p.add_argument("--golden-dir", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="enumerate Dyck paths or even walks")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--dyck", type=int, default=None, metavar="K")
    kind.add_argument("--walks", action="store_true")
    # None marks an --s not given, which --dyck refuses; walks default to s = 3
    p.add_argument("--s", type=int, default=None, help="walk half-length (default 3)")
    p.add_argument("--no-loops", action="store_true")
    p.add_argument("--no-self-intersections", action="store_true")
    _common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="class census with counting bounds")
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--k0", type=int, default=4)
    _common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("moments", help="exact trace moment by the walk sum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--truncate", action="store_true")
    p.add_argument("--delta", type=float, default=_MOMENTS_DELTA, help="truncation exponent (with --truncate only)")
    _ensemble_flags(p)
    _common(p, formats=False)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("zparts", help="four-way census decomposition of the walk sum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--c0", type=float, default=None)
    _ensemble_flags(p)
    _common(p)
    p.set_defaults(func=cmd_zparts)

    p = sub.add_parser("mc", help="seeded sampling with trace statistics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=4, help="largest half-power")
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--seed", type=int, default=20240229)
    _ensemble_flags(p)
    _common(p)
    # no default: an explicit --format, which only --out reads, can then be refused
    p.set_defaults(func=cmd_mc, format=None)

    p = sub.add_parser("tail", help="spectral-edge exceedance curve")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=_grid_text, default="-2,-1,0,1,2,4", help="comma-separated grid (rational ok)")
    p.add_argument("--scale", choices=("wigner", "dilute"), default="wigner")
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--seed", type=int, default=20240229)
    p.add_argument("--chebyshev-s", type=int, default=None)
    _ensemble_flags(p)
    _common(p)
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("dilute", help="exact dilute moment against its lower bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--ensemble", default="gaussian")
    p.add_argument("--v", type=_rational_text, default="0.5")
    p.add_argument("--c", type=_integer_text, required=True)
    _common(p, formats=False)
    p.set_defaults(func=cmd_dilute)

    p = sub.add_parser("genfun", help="exact generating-function coefficient tables")
    p.add_argument("--order", type=int, default=40)
    _common(p)
    p.set_defaults(func=cmd_genfun)

    p = sub.add_parser("report", help="machine-readable verify summary")
    p.add_argument("--max-halfsteps", type=int, default=5)
    p.add_argument("--k0", type=int, default=4)
    _common(p, formats=False)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("analyze", help="structure report for one walk")
    p.add_argument("walk", type=_walk, help="comma-separated labels, e.g. 1,2,3,2,1")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # expand --config FILE (or --config=FILE) into tokens placed right after
    # the subcommand, so explicitly given flags (parsed later) override them
    idx = next((i for i, tok in enumerate(argv) if tok.partition("=")[0] == "--config"), None)
    if idx is not None:
        _, eq, path = argv[idx].partition("=")
        width = 1 if eq else 2
        if not eq and idx + 1 < len(argv):
            path = argv[idx + 1]
        if not path:
            print("error: --config needs a path", file=sys.stderr)
            return 2
        try:
            tokens = load_config_tokens(path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        rest = argv[:idx] + argv[idx + width :]
        argv = rest[:1] + tokens + rest[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    # a value no code reads would move only the fingerprint; an explicit default passes
    if getattr(args, "gamma", _GAMMA) != _GAMMA and args.ensemble.lower() != "power-tail":
        parser.error("--gamma applies only to --ensemble power-tail")
    if args.command == "moments" and args.delta != _MOMENTS_DELTA and not args.truncate:
        parser.error("--delta applies only with --truncate")
    if args.command == "mc" and args.format is not None and not args.out:
        parser.error("--format applies only with --out")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send the rest, and the interpreter's last flush, to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        # an unwritable --out or --golden-dir is an OSError; BrokenPipeError is caught above
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
