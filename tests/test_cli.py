import argparse
import inspect
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wignerlab import classes as cls
from wignerlab import cli, moments, suites, walks
from wignerlab.cli import main
from wignerlab.errors import EnumerationCeilingError
from wignerlab.laws import GaussianLaw, RademacherLaw
from wignerlab.mc import EnsembleConfig
from wignerlab.moments import TruncationSpec


def run(args):
    return main(list(args))


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


def test_moments_example(capsys):
    code = run(
        ["moments", "--n", "2", "--s", "2", "--ensemble", "rademacher", "--v", "0.5", "--no-timestamp"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "0.1875" in out and "3/16" in out


def test_enumerate_tree_walks(capsys, tmp_path):
    out_file = tmp_path / "walks.csv"
    code = run(
        [
            "enumerate",
            "--walks",
            "--s",
            "3",
            "--no-self-intersections",
            "--no-loops",
            "--out",
            str(out_file),
            "--no-timestamp",
        ]
    )
    assert code == 0
    assert "5 objects" in capsys.readouterr().out
    text = out_file.read_text()
    assert text.count("\n") >= 6  # header + 5 rows + meta comments
    assert "# fingerprint:" in text


def test_enumerate_dyck(capsys):
    code = run(["enumerate", "--dyck", "3", "--no-timestamp", "--format", "json"])
    assert code == 0
    out = capsys.readouterr().out
    head, payload_text = out.split("\n", 1)
    assert head == "5 objects"
    payload = json.loads(payload_text)
    assert len(payload["rows"]) == 5
    assert payload["rows"][0]["path"] == "UUUDDD"


def test_byte_identical_reruns(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = [
        "tail",
        "--n",
        "24",
        "--ensemble",
        "rademacher",
        "--v",
        "0.5",
        "--x",
        "0,1",
        "--replicates",
        "150",
        "--seed",
        "5",
        "--no-timestamp",
    ]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_timestamp_suppression(tmp_path):
    out1 = tmp_path / "a.json"
    args = ["genfun", "--order", "6", "--format", "json", "--out", str(out1)]
    assert run(args + ["--no-timestamp"]) == 0
    payload = json.loads(out1.read_text())
    assert "generated_at" not in payload["_meta"]
    assert run(args) == 0
    assert "generated_at" in json.loads(out1.read_text())["_meta"]


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\ns = 2\nensemble = rademacher\nv = 0.5\nno-timestamp = true\n")
    code = run(["moments", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0 and "3/16" in out
    # flags override the file
    code = run(["moments", "--config", str(cfg), "--n", "1"])
    out = capsys.readouterr().out
    assert code == 0 and "0.0625" in out  # V4 = (1/2)^4 at n=1


def test_dilute_subcommand(capsys):
    code = run(
        ["dilute", "--n", "40", "--s", "3", "--c", "5", "--ensemble", "gaussian", "--v", "0.5", "--no-timestamp"]
    )
    assert code == 0
    assert "OK" in capsys.readouterr().out


def test_zparts_subcommand(capsys):
    code = run(
        ["zparts", "--n", "50", "--s", "3", "--ensemble", "rademacher", "--v", "0.5", "--delta", "0.1", "--no-timestamp"]
    )
    assert code == 0
    assert "z1 fraction" in capsys.readouterr().out


def test_classify_subcommand(tmp_path, capsys):
    out = tmp_path / "census.csv"
    code = run(["classify", "--s", "3", "--out", str(out), "--no-timestamp"])
    assert code == 0
    assert capsys.readouterr().out == "93 class rows, 0 bound violations, 0 lemma failures\n"
    text = out.read_text()
    assert "family" in text and "exact" in text


def test_zparts_zero_total(capsys):
    # --v 0 makes every walk weigh 0, so the Z1 fraction is undefined
    assert run(["zparts", "--n", "5", "--s", "3", "--v", "0", "--no-timestamp", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("total=0 z1 fraction=n/a ")
    assert json.loads(out[out.index("\n") :])["z1_fraction"] is None


@pytest.fixture
def fresh_census():
    cls._census.cache_clear()
    yield
    cls._census.cache_clear()


def test_verify_searches_each_walk_depth_once(fresh_census, monkeypatch):
    # one census pass per s serves the walk lemmas, the class bounds and the
    # goldens; only the worked example goes through the per-walk analysis,
    # once for its lemmas (suite 4) and once for its structure (suite 5)
    calls = []
    real = walks.analyze

    def counting(walk):
        calls.append(walk)
        return real(walk)

    for module in (walks, suites):
        monkeypatch.setattr(module, "analyze", counting)
    searches = []
    real_search = cls._even_walk_blocks
    monkeypatch.setattr(cls, "_even_walk_blocks", lambda s, *args: searches.append(s) or real_search(s, *args))
    suites.run_verify_suites()
    cli.golden_tables()
    assert calls == [suites.W14, suites.W14]
    assert searches == [0, 1, 2, 3, 4, 5]


def test_failing_lemma_turns_suite_and_classify_red(fresh_census, monkeypatch, capsys):
    # one more imported cell than the bound allows at vertex 2 of the walk 1,2,1,2,1
    real = cls._walk_arrays

    def broken(labels):
        arrays = real(labels)
        if labels.shape[1] == 5:
            row = np.flatnonzero((labels == (1, 2, 1, 2, 1)).all(1))
            arrays.imported[row, 2] += 10
        return arrays

    monkeypatch.setattr(cls, "_walk_arrays", broken)
    res = suites.criterion_4_walk_structure(s_max=2)
    assert res.failures() == [("imported-cell count bounds", "failing walks: 1")]
    assert run(["classify", "--s", "2", "--no-timestamp"]) == 1
    assert capsys.readouterr().out.startswith("18 class rows, 0 bound violations, 1 lemma failures\n")


def test_class_bound_rows_keep_their_own_detail(monkeypatch):
    real = cls.mu_bound
    monkeypatch.setattr(cls, "mu_bound", lambda s, sig, k0: Fraction(0) if s == 2 else real(s, sig, k0))
    checks = {label: (ok, detail) for label, ok, detail in suites.criterion_6_class_bounds(s_max=2).checks}
    assert checks["nu classes: exact <= bound"] == (True, "")
    ok, detail = checks["mu classes: exact <= bound"]
    assert not ok and detail.startswith("s=2 MuSignature(")


def test_criteria_take_only_the_verify_flags():
    # the criteria run at the sizes they are stated for; only `verify --max-halfsteps`
    # and `--k0` reach the walk suites, so a new size knob means editing this table
    params = {
        name: list(inspect.signature(getattr(suites, name)).parameters)
        for name in dir(suites)
        if name.startswith("criterion_")
    }
    assert params == {
        "criterion_1_catalan": [],
        "criterion_2_exit_degree_tail": [],
        "criterion_3_genfun": [],
        "criterion_4_walk_structure": ["s_max"],
        "criterion_5_worked_example": [],
        "criterion_6_class_bounds": ["s_max", "k0"],
        "criterion_7_moment_oracle": [],
        "criterion_10_excursion": [],
        "criterion_11_dilute": [],
    }


def test_max_halfsteps_sets_the_walk_suites_depth(monkeypatch):
    # the walk ceiling (2s <= 14) is the only upper limit
    depths = {}
    for name in dir(suites):
        if name.startswith("criterion_"):
            monkeypatch.setattr(suites, name, lambda name=name, **kw: depths.setdefault(name, kw.get("s_max")))
    suites.run_verify_suites(max_halfsteps=7)
    assert depths["criterion_4_walk_structure"] == depths["criterion_6_class_bounds"] == 7


@pytest.mark.parametrize("command", ["verify", "report"])
def test_k0_below_one_is_refused_before_any_suite(command, monkeypatch, capsys):
    ran = []
    for name in dir(suites):
        if name.startswith("criterion_"):
            monkeypatch.setattr(suites, name, lambda name=name, **kw: ran.append(name))
    with pytest.raises(ValueError, match="k0 must be >= 1"):
        suites.run_verify_suites(k0=0)
    assert run([command, "--k0", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k0 must be >= 1\n"
    assert ran == []


def test_golden_flow(tmp_path, capsys):
    gold = tmp_path / "goldens"
    assert run(["verify", "--max-halfsteps", "3", "--bless", "--golden-dir", str(gold)]) in (0, 1)
    capsys.readouterr()
    # second run compares clean
    code = run(["verify", "--max-halfsteps", "3", "--golden-dir", str(gold)])
    out = capsys.readouterr().out
    assert f"golden tables ({gold})" in out
    assert "golden mismatch" not in out
    # tamper and expect failure
    victim = gold / "catalan.csv"
    victim.write_text(victim.read_text().replace("16796", "16795"))
    code = run(["verify", "--max-halfsteps", "3", "--golden-dir", str(gold)])
    out = capsys.readouterr().out
    assert code == 1
    assert "golden mismatch" in out


def test_verify_default_golden_line_is_checkout_independent(capsys, monkeypatch):
    # only the golden comparison matters here, so skip the suites
    monkeypatch.setattr(cli, "run_verify_suites", lambda **kwargs: [])
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    assert out == "[PASS] golden tables (wignerlab/goldens)\n"
    assert str(cli.GOLDEN_DIR) not in out


def test_verify_goldens_ignore_max_halfsteps(tmp_path, capsys, monkeypatch):
    # a shallow walk depth narrows the suites, never the golden tables
    monkeypatch.setattr(cli, "run_verify_suites", lambda **kwargs: [])
    assert run(["verify", "--max-halfsteps", "3"]) == 0
    assert capsys.readouterr().out == "[PASS] golden tables (wignerlab/goldens)\n"
    gold = tmp_path / "goldens"
    assert run(["verify", "--max-halfsteps", "3", "--bless", "--golden-dir", str(gold)]) == 0
    blessed = {p.name: p.read_bytes() for p in gold.iterdir()}
    assert blessed == {p.name: p.read_bytes() for p in cli.GOLDEN_DIR.glob("*.csv")}


def test_analyze_subcommand(capsys):
    code = run(["analyze", "1,2,3,4,3,5,2,3,4,3,2,5,3,2,1"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bts_instants"] == [6, 10]


def test_report_subcommand(tmp_path):
    out = tmp_path / "report.json"
    code = run(["report", "--max-halfsteps", "2", "--out", str(out), "--no-timestamp"])
    payload = json.loads(out.read_text())
    names = [s["name"] for s in payload["suites"]]
    assert any("catalan" in n for n in names)
    # the excursion stabilization check is a documented red, so the report
    # flags it and the exit code is 1
    assert code == 1
    assert payload["all_passed"] is False
    failing = [
        c["label"]
        for s in payload["suites"]
        for c in s["checks"]
        if not c["ok"]
    ]
    assert failing == ["stabilization at tau=2.0: |B400-B200| <= 0.05 B400"]


def test_report_without_timestamp_is_byte_stable(tmp_path, monkeypatch, capsys):
    elapsed = iter([0.25, 7.5])

    def fake_suites(**_kwargs):
        res = suites.SuiteResult(name="fake", elapsed=next(elapsed))
        res.add("holds", True)
        return [res]

    monkeypatch.setattr(cli, "run_verify_suites", fake_suites)
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert run(["report", "--out", str(out), "--no-timestamp"]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert "elapsed_s" not in json.loads(outs[0].read_text())["suites"][0]
    # without --out stdout is the JSON alone: the timed summary lines stay out
    elapsed = iter([0.25, 7.5])
    capsys.readouterr()
    texts = []
    for _ in range(2):
        assert run(["report", "--no-timestamp"]) == 0
        texts.append(capsys.readouterr().out)
        assert json.loads(texts[-1])["suites"][0]["name"] == "fake"
    assert texts[0] == texts[1]
    # with the timestamp the timings stay in the payload
    monkeypatch.setattr(cli, "run_verify_suites", lambda **_kwargs: [suites.SuiteResult("fake", elapsed=1.234)])
    out = tmp_path / "c.json"
    assert run(["report", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["suites"][0]["elapsed_s"] == 1.23


def test_mc_subcommand(capsys):
    code = run(
        [
            "mc",
            "--n",
            "12",
            "--s",
            "2",
            "--replicates",
            "200",
            "--ensemble",
            "gaussian",
            "--v",
            "0.5",
            "--seed",
            "7",
            "--no-timestamp",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "2s=4" in out and "z=" in out


def test_mc_dilute_compares_with_exact(capsys):
    code = run(
        ["mc", "--n", "30", "--s", "3", "--c", "5", "--replicates", "400", "--seed", "7", "--no-timestamp"]
    )
    assert code == 0
    out = capsys.readouterr().out
    summary = json.loads(out[out.index("{") :])
    assert summary["config"]["dilution_c"] == 5
    for entry in summary["traces"].values():
        assert "exact" in entry and "z" in entry
        assert abs(entry["z"]) < 4


def test_moments_beyond_shape_ceiling(capsys):
    code = run(["moments", "--n", "10", "--s", "8", "--no-timestamp"])
    assert code == 1
    assert "enumeration ceiling 14" in capsys.readouterr().err


def _clear_shape_caches():
    moments._walk_shapes.cache_clear()
    moments._profile_rows.cache_clear()


@pytest.fixture
def fresh_shapes():
    yield
    _clear_shape_caches()


def test_exact_reach_is_the_shape_tables_last_s(fresh_shapes, tmp_path, monkeypatch, capsys):
    # a table cut to s <= 3 refuses s = 4 by its own last s instead of summing no rows to 0
    spec = moments.wigner_spec(RademacherLaw(Fraction(1)), 10)
    full = [moments.exact_trace_moment(spec, s).total for s in range(4)]
    short = tmp_path / "walk_shapes.csv"
    with moments.SHAPE_TABLE.open() as fh:
        short.write_text("".join(line for line in fh if line.split(",", 1)[0] in {"s", "0", "1", "2", "3"}))
    monkeypatch.setattr(moments, "SHAPE_TABLE", short)
    _clear_shape_caches()
    assert [moments.exact_trace_moment(spec, s).total for s in range(4)] == full
    with pytest.raises(EnumerationCeilingError, match="requested size 8 exceeds enumeration ceiling 6$"):
        moments.exact_trace_moment(spec, 4)
    with pytest.raises(EnumerationCeilingError, match="enumeration ceiling 6$"):
        moments.z_decomposition(spec, 4, delta=0.05)
    assert run(["mc", "--n", "10", "--s", "4", "--replicates", "20", "--seed", "1", "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    traces = json.loads(out[out.index("{") :])["traces"]
    assert [("exact" in entry, "z" in entry) for entry in traces.values()] == [(True, True)] * 3 + [(False, False)]
    line8 = out.splitlines()[3]
    assert line8.startswith("2s=8: mean=") and "z=" not in line8


def test_truncated_power_tail_at_order_gamma(capsys):
    # s = 2 needs the 4th truncated moment, which at gamma = 4 is the logarithmic limit
    argv = ["moments", "--n", "50", "--s", "2", "--ensemble", "power-tail", "--gamma", "4", "--truncate"]
    code = run(argv + ["--no-timestamp"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0].endswith("(float)")


@pytest.mark.parametrize("ensemble", ["gaussian", "goe"])
def test_truncated_gaussian_at_zero_scale(ensemble, capsys):
    code = run(["moments", "--n", "20", "--s", "3", "--ensemble", ensemble, "--v", "0", "--truncate", "--no-timestamp"])
    assert code == 0
    assert capsys.readouterr().out.startswith("E Tr A^6 = 0.0 ")


def test_enumerate_past_walk_ceiling_fails_at_once(capsys, monkeypatch):
    def no_walks(labels):
        raise AssertionError("a walk was built past the ceiling")

    monkeypatch.setattr(walks, "Walk", no_walks)
    start = time.perf_counter()
    code = run(["enumerate", "--walks", "--s", "8", "--no-timestamp"])
    assert code == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "enumeration ceiling 14" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "flags, digest",
    [
        (["--dyck", "3"], "0770325db12a6cc0"),
        (["--walks"], "0be5aa18db9f9a01"),
        (["--walks", "--s", "3"], "0be5aa18db9f9a01"),
    ],
)
def test_enumerate_fingerprint_keeps_default_s(flags, digest, capsys):
    # an omitted --s enters the fingerprint as s = 3, for Dyck paths too
    assert run(["enumerate", *flags, "--no-timestamp"]) == 0
    assert f"# fingerprint: {digest}\n" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [[], ["--s", "2"], ["--no-loops", "--s", "2"]])
def test_enumerate_walks_flag_keeps_the_fingerprint(flags, capsys):
    # walks are the default kind: the same rows carry one fingerprint with or without --walks
    outs = []
    for kind in ([], ["--walks"]):
        assert run(["enumerate", *kind, *flags, "--no-timestamp"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_enumerate_past_dyck_ceiling_fails(capsys):
    assert run(["enumerate", "--dyck", "15", "--no-timestamp"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: enumerate_dyck: requested size 15 exceeds enumeration ceiling 14\n"


@pytest.mark.parametrize(
    "flags",
    [
        ["--no-loops"],
        ["--no-self-intersections"],
        ["--s", "3"],
        ["--walks"],
        ["--walks", "--s", "2"],
    ],
)
def test_dyck_with_walk_flags_is_usage_error(flags, capsys):
    # a walk flag would be ignored by --dyck and move its fingerprint: refuse it
    try:
        code = run(["enumerate", "--dyck", "2", *flags, "--no-timestamp"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err_lines = captured.err.splitlines()
    assert [line for line in err_lines if "error:" in line] == err_lines[-1:]
    assert "--dyck" in captured.err


CFG = "<config file>"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--out", "x"],
        ["verify", "--format", "json"],
        ["verify", "--no-timestamp"],
        ["report", "--format", "csv"],
        ["moments", "--n", "2", "--s", "2", "--format", "csv"],
        ["dilute", "--n", "10", "--s", "2", "--c", "2", "--format", "json"],
        ["moments", "--config", CFG, "--config", CFG],
    ],
)
def test_unread_output_flags_and_second_config_are_usage_errors(argv, tmp_path, capsys, monkeypatch):
    # a flag the subcommand would not read, or a config file that would be ignored, is refused
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\ns = 2\n")
    try:
        code = run([str(cfg) if tok == CFG else tok for tok in argv])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err_lines = captured.err.splitlines()
    assert [line for line in err_lines if "error:" in line] == err_lines[-1:]
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--n", "4", "--s", "2", "--gamma", "3"],
        ["zparts", "--n", "4", "--s", "2", "--ensemble", "gaussian", "--gamma", "30"],
        ["mc", "--n", "4", "--replicates", "10", "--gamma", "3"],
        ["tail", "--n", "4", "--replicates", "100", "--gamma", "3"],
        ["moments", "--n", "4", "--s", "2", "--delta", "0.2"],
    ],
)
def test_unread_gamma_and_delta_are_usage_errors(argv, capsys):
    # --gamma off power-tail and moments --delta without --truncate are read by
    # nothing and would move only the fingerprint
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--no-timestamp"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err_lines = captured.err.splitlines()
    assert [line for line in err_lines if "error:" in line] == err_lines[-1:]


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--n", "4", "--s", "2", "--ensemble", "power-tail", "--gamma", "3", "--truncate"],
        ["moments", "--n", "4", "--s", "2", "--truncate", "--delta", "0.1"],
        ["zparts", "--n", "4", "--s", "2", "--delta", "0.2"],
        # an explicit default cannot be told from an omitted flag
        ["moments", "--n", "4", "--s", "2", "--gamma", "24", "--delta", "0.05"],
    ],
)
def test_read_gamma_and_delta_still_run(argv, capsys):
    assert run(argv + ["--no-timestamp"]) == 0
    assert "fingerprint" in capsys.readouterr().out


OUTPUT_FLAGS = {"--out", "--format", "--no-timestamp"}
ENSEMBLE_FLAGS = {"--ensemble", "--v", "--c", "--gamma"}

CLI_SURFACE = {
    "verify": {"--max-halfsteps", "--k0", "--bless", "--golden-dir"},
    "enumerate": {"--dyck", "--walks", "--s", "--no-loops", "--no-self-intersections"} | OUTPUT_FLAGS,
    "classify": {"--s", "--k0"} | OUTPUT_FLAGS,
    "moments": {"--n", "--s", "--truncate", "--delta", "--out", "--no-timestamp"} | ENSEMBLE_FLAGS,
    "zparts": {"--n", "--s", "--delta", "--c0"} | ENSEMBLE_FLAGS | OUTPUT_FLAGS,
    "mc": {"--n", "--s", "--replicates", "--seed"} | ENSEMBLE_FLAGS | OUTPUT_FLAGS,
    "tail": {"--n", "--x", "--scale", "--replicates", "--seed", "--chebyshev-s"} | ENSEMBLE_FLAGS | OUTPUT_FLAGS,
    "dilute": {"--n", "--s", "--ensemble", "--v", "--c", "--out", "--no-timestamp"},
    "genfun": {"--order"} | OUTPUT_FLAGS,
    "report": {"--max-halfsteps", "--k0", "--out", "--no-timestamp"},
    "analyze": set(),
}


def test_cli_surface():
    # every declared flag is read; adding or dropping one means editing this table
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert declared == CLI_SURFACE


CONFIG_VALUES = {
    "verify": {"k0": 3},
    "enumerate": {"s": 2},
    "classify": {"k0": 3},
    "moments": {"n": 7, "s": 2},
    "zparts": {"n": 7, "s": 2},
    "mc": {"n": 7},
    "tail": {"n": 7},
    "dilute": {"n": 7, "s": 2, "c": "3"},
    "genfun": {"order": 5},
    "report": {"k0": 3},
}


@pytest.mark.parametrize("command", sorted(CONFIG_VALUES))
def test_config_file_works_for_every_flagged_subcommand(command, tmp_path, monkeypatch):
    # main() alone expands --config FILE and --config=FILE, for every subcommand with flags
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in CONFIG_VALUES[command].items()))
    seen = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.append(vars(args)) or 0)
    for form in (["--config", str(cfg)], [f"--config={cfg}"]):
        assert run([command, *form]) == 0
    assert len(seen) == 2
    for parsed in seen:
        assert {key: parsed[key] for key in CONFIG_VALUES[command]} == CONFIG_VALUES[command]
        assert "config" not in parsed


def test_unwritable_path_is_one_error_line(tmp_path, capsys, monkeypatch):
    # an --out in a missing directory, or a --golden-dir that is a file: exit 1, no traceback
    assert run(["genfun", "--order", "3", "--out", str(tmp_path / "missing" / "x.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    monkeypatch.setattr(cli, "run_verify_suites", lambda **kwargs: [])
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    assert run(["verify", "--golden-dir", str(not_a_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_golden_walk_counts_build_no_walk(monkeypatch):
    # even, tree and loopless walks are summed from the shape table, with no walk search
    def no_walks(*args):
        raise AssertionError("a walk was built or searched for the golden counts")

    monkeypatch.setattr(walks, "Walk", no_walks)
    monkeypatch.setattr(walks, "_even_walk_blocks", no_walks)
    rows = [cli._walk_count_row(s) for s in range(6)]
    assert cli._rows_to_csv(rows) == (cli.GOLDEN_DIR / "walk_counts.csv").read_text()


def test_classify_past_walk_ceiling_fails_at_once(capsys, monkeypatch):
    def no_census(s):
        raise AssertionError("a census ran past the ceiling")

    monkeypatch.setattr(cls, "_census", no_census)
    start = time.perf_counter()
    code = run(["classify", "--s", "8", "--no-timestamp"])
    assert code == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "enumeration ceiling 14" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("walk", ["1,2,x", "", "1,2,1,2"])
def test_malformed_walk_is_usage_error(walk, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["analyze", walk])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument walk: invalid walk" in captured.err


def test_help_names_every_subcommand():
    # the description is the module docstring; its subcommand list must be complete
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    listed = re.search(r"Subcommands: ([^.]*)\.", " ".join(parser.description.split())).group(1)
    assert listed.split(", ") == list(sub.choices)


@pytest.mark.parametrize("flags", [[], ["--c", "10"]])
def test_goe_diagonal_is_doubled_under_dilution(flags, capsys):
    # c = n keeps every entry, so the diluted moment equals the undiluted one
    assert run(["moments", "--n", "10", "--s", "2", "--ensemble", "goe", "--no-timestamp"] + flags) == 0
    assert capsys.readouterr().out.startswith("E Tr A^4 = 1.59375  (exact 51/32)\n")


def test_moments_truncate_with_dilution_is_usage_error(capsys):
    code = run(["moments", "--n", "10", "--s", "2", "--c", "2", "--truncate", "--no-timestamp"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert run(["moments", "--n", "10", "--s", "2", "--c", "2", "--no-timestamp"]) == 0
    assert "23/16" in capsys.readouterr().out


def test_closed_stdout_ends_quietly(tmp_path, capsys, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return sink.fileno()

    with (tmp_path / "stdout").open("w") as sink:
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert run(["genfun", "--order", "3", "--no-timestamp"]) == 1
        # stdout's descriptor now points at devnull
        os.write(sink.fileno(), b"late flush")
    assert (tmp_path / "stdout").read_bytes() == b""
    assert capsys.readouterr().err == ""


def test_closed_stdout_pipe_in_a_process():
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "wignerlab.cli", "genfun", "--order", "40", "--no-timestamp"],
        stdout=write_end,
        stderr=subprocess.PIPE,
        env=env,
        timeout=60,
    )
    os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_config_equals_form_and_false_values(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\ns = 2\nensemble = rademacher\nv = 0.5\nno-timestamp = false\n")
    assert cli.load_config_tokens(str(cfg)) == [
        "--n", "2", "--s", "2", "--ensemble", "rademacher", "--v", "0.5",
    ]
    # the equals form loads the file exactly as the space form does
    for form in (["--config", str(cfg)], [f"--config={cfg}"]):
        code = run(["moments", *form, "--no-timestamp"])
        out = capsys.readouterr().out
        assert code == 0 and "(exact 3/16)" in out
    # a false switch leaves the timestamp on
    assert run(["moments", f"--config={cfg}"]) == 0
    assert "generated_at" in capsys.readouterr().out
    assert run(["moments", "--config="]) == 2


@pytest.mark.parametrize("kind", ["missing", "directory", "no-equals"])
def test_config_file_errors_are_usage_errors(tmp_path, capsys, kind):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n = 2\nnot a key value line\n")
    path = {"missing": tmp_path / "nonexistent.cfg", "directory": tmp_path, "no-equals": bad}[kind]
    for form in (["--config", str(path)], [f"--config={path}"]):
        assert run(["moments", *form, "--no-timestamp"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["moments", "mc"])
@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_a_non_finite_gamma_is_one_error_line(capsys, command, gamma):
    # the law is refused at construction, before any value is printed
    args = [command, "--n", "3", "--ensemble", "power-tail", "--gamma", gamma, "--no-timestamp"]
    assert run(args + (["--s", "2"] if command == "moments" else ["--replicates", "5"])) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "gamma must be finite" in captured.err


def test_three_point_reads_v(capsys):
    for v, exact in (("1", "20"), ("1/2", "5/4"), ("0.5", "5/4")):
        code = run(["moments", "--n", "3", "--s", "2", "--ensemble", "three-point", "--v", v, "--no-timestamp"])
        out = capsys.readouterr().out
        assert code == 0 and f"(exact {exact})" in out
        payload = json.loads(out[out.index("{") :])
        assert payload["total_exact"] == exact
        assert payload["ensemble"]["spike"] == ("4" if v == "1" else "2")


def zparts_rows(out):
    return [line.split(",") for line in out.splitlines() if line.startswith(("Z", "total,"))]


def test_float_totals_are_labelled_float(capsys):
    code = run(["moments", "--n", "3", "--s", "2", "--ensemble", "gaussian", "--truncate", "--no-timestamp"])
    out = capsys.readouterr().out
    assert code == 0 and "(float)" in out and "exact" not in out.split("\n")[0]
    assert json.loads(out[out.index("{") :])["total_exact"] is None
    args = ["zparts", "--n", "3", "--s", "2", "--no-timestamp", "--format", "csv", "--ensemble"]
    assert run(args + ["power-tail"]) == 0
    rows = zparts_rows(capsys.readouterr().out)
    assert len(rows) == 5 and all(row[2] == "" for row in rows)
    # rational totals keep their exact column
    assert run(args + ["rademacher"]) == 0
    rows = zparts_rows(capsys.readouterr().out)
    assert rows[-1][:3] == ["total", "0.3125", "5/16"]


def test_zero_float_totals_are_labelled_float(capsys):
    # at --v 0 every walk weight vanishes, so no bin opens; a float-valued
    # spec still gives a float zero, a rational one an exact zero
    base = ["--n", "20", "--s", "3", "--v", "0", "--no-timestamp"]
    for ensemble, label in (
        (["--ensemble", "power-tail"], "(float)"),
        (["--ensemble", "gaussian", "--truncate"], "(float)"),
        (["--ensemble", "gaussian"], "(exact 0)"),
    ):
        assert run(["moments", *base, *ensemble]) == 0
        out = capsys.readouterr().out
        assert out.split("\n")[0] == f"E Tr A^6 = 0.0  {label}"
        payload = json.loads(out[out.index("{") :])
        assert payload["total_exact"] == (None if label == "(float)" else "0")
    assert run(["zparts", *base, "--format", "csv", "--ensemble", "power-tail"]) == 0
    rows = zparts_rows(capsys.readouterr().out)
    assert rows[-1] == ["total", "0.0", "", "1.0"]


def test_dilute_labels_float_totals(capsys):
    args = ["dilute", "--n", "10", "--s", "2", "--c", "2", "--no-timestamp"]
    assert run(args + ["--ensemble", "power-tail"]) == 0
    out = capsys.readouterr().out
    first = out.split("\n")[0]
    assert first.startswith("dilute moment 1.4401 (float) vs lower bound") and "exact" not in first
    payload = json.loads(out[out.index("{") :])
    assert payload["exact_rational"] is None and payload["exact"] == pytest.approx(1.4401041666666667)
    # a rational total keeps its exact label and string
    assert run(args) == 0
    out = capsys.readouterr().out
    assert out.split("\n")[0] == "exact dilute moment 2.0625 vs lower bound 1.13281: OK"
    assert json.loads(out[out.index("{") :])["exact_rational"] == "33/16"


def test_fingerprints_unchanged():
    law = GaussianLaw(Fraction(1, 2))
    assert EnsembleConfig(n=12, law=law, seed=7).fingerprint() == "3ae0680981f40164"
    truncated = EnsembleConfig(n=12, law=law, truncation=TruncationSpec(law, delta=0.05), seed=7)
    assert truncated.fingerprint() == "00c6c868c89dc135"
    args = cli.build_parser().parse_args(["mc", "--n", "12", "--s", "2", "--seed", "7", "--no-timestamp"])
    assert cli.fingerprint(vars(args)) == "7f87dbddaa3c8aee"
    assert cli.build_config(args) == EnsembleConfig(n=12, law=cli.build_law(args), seed=7)


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--n", "10", "--s", "2", "--c", "1.5"],
        ["zparts", "--n", "10", "--s", "2", "--c", "two"],
        ["mc", "--n", "10", "--c", "2.0"],
        ["tail", "--n", "10", "--c", ""],
        ["dilute", "--n", "10", "--s", "2", "--c", "x"],
    ],
)
def test_malformed_c_is_usage_error(argv, capsys):
    # argparse rejects a flag value it can parse: exit 2
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--no-timestamp"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --c: invalid int value" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--n", "0", "--replicates", "10"],
        ["mc", "--n", "10", "--replicates", "10", "--c", "0"],
        ["moments", "--n", "10", "--s", "2", "--c", "0"],
        ["moments", "--n", "10", "--s", "2", "--c", "11"],
        ["moments", "--n", "10", "--s", "-1"],
        ["moments", "--n", "10", "--s", "8"],
        ["dilute", "--n", "10", "--s", "2", "--c", "0"],
        ["moments", "--n", "0", "--s", "2"],
        ["enumerate", "--walks", "--s", "-1"],
        ["enumerate", "--dyck", "-1"],
        ["genfun", "--order", "-1"],
        ["mc", "--n", "10", "--replicates", "-3"],
        ["zparts", "--n", "10", "--s", "2", "--delta", "nan"],
        ["classify", "--k0", "0"],
        ["mc", "--n", "10", "--replicates", "10", "--seed", "-1"],
        ["mc", "--n", "10", "--replicates", "10", "--seed", str(2**64)],
        ["classify", "--s", "0"],
        ["classify", "--s", "-3"],
        ["verify", "--max-halfsteps", "0"],
        ["verify", "--max-halfsteps", "-1"],
        ["verify", "--max-halfsteps", "8"],
        ["report", "--max-halfsteps", "0"],
        ["tail", "--n", "20", "--chebyshev-s", "0", "--replicates", "100"],
        ["tail", "--n", "20", "--chebyshev-s", "-2", "--replicates", "100"],
        ["zparts", "--n", "10", "--s", "2", "--c0", "nan"],
        ["zparts", "--n", "10", "--s", "2", "--c0", "inf"],
        ["zparts", "--n", "10", "--s", "2", "--c0", "-1"],
        ["zparts", "--n", "10", "--s", "2", "--c0", "0"],
        ["moments", "--n", "10", "--s", "2", "--v", "-1", "--ensemble", "gaussian"],
        ["moments", "--n", "10", "--s", "2", "--v", "-1", "--ensemble", "three-point"],
        ["moments", "--n", "10", "--s", "2", "--v", "-1", "--ensemble", "power-tail"],
        ["zparts", "--n", "10", "--s", "2", "--v=-1/2"],
        ["mc", "--n", "10", "--replicates", "10", "--v", "-1"],
        ["tail", "--n", "10", "--replicates", "10", "--v", "-1"],
        ["dilute", "--n", "10", "--s", "2", "--c", "2", "--v", "-1"],
    ],
)
def test_domain_errors_exit_1(argv, capsys):
    # a well-formed value the model rejects is a computation failure: exit 1
    # (verify writes no file, so it takes no --no-timestamp)
    assert run(argv + ([] if argv[0] == "verify" else ["--no-timestamp"])) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


MOMENTS_C2 = """\
E Tr A^4 = 1.4375  (exact 23/16)
{
  "_meta": {
    "fingerprint": "fdf44c21f5287ae4",
    "tool": "wignerlab",
    "version": "0.1.0"
  },
  "by_nu_weight": {
    "0": 0.9,
    "1": 0.50625,
    "2": 0.03125
  },
  "ensemble": {
    "dilution_c": 2,
    "kind": "dilute",
    "law": "rademacher",
    "n": 10,
    "v": "1/2"
  },
  "n": 10,
  "normalized": 0.14375,
  "s": 2,
  "total": 1.4375,
  "total_exact": "23/16"
}
"""


def test_valid_c_output_pinned(capsys):
    # a canonical --c enters the fingerprint as given, so valid runs keep their bytes
    assert run(["moments", "--n", "10", "--s", "2", "--c", "2", "--no-timestamp"]) == 0
    assert capsys.readouterr().out == MOMENTS_C2


def _strict_json(text: str):
    """json.loads that refuses the NaN and Infinity tokens Python would accept."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("replicates", [0, 1, 2])
def test_mc_summary_is_strict_json(replicates, tmp_path, capsys):
    # spreads need two filled replicates and means one; what is missing is null
    argv = ["mc", "--n", "5", "--s", "2", "--replicates", str(replicates), "--no-timestamp"]
    assert run(argv) == 0
    out = capsys.readouterr().out
    summary = _strict_json(out[out.index("{") :])
    assert summary["replicates"] == replicates
    assert (summary["lambda_max_mean"] is None) == (replicates == 0)
    for entry in summary["traces"].values():
        assert (entry["mean"] is None) == (replicates == 0)
        assert (entry["std"] is None) == (entry["ci"] is None) == (replicates < 2)
        assert entry["z"] is None or replicates >= 2
    # the --out form writes the same summary to its own file
    out_file = tmp_path / "mc.csv"
    assert run(argv + ["--out", str(out_file)]) == 0
    assert _strict_json(out_file.with_suffix(".summary.json").read_text()) == summary


def test_mc_with_no_replicates_reports_the_exact_moments_alone(capsys):
    # an empty sample is a run, not an error: exit 0, no statistic and every exact moment;
    # a tail curve needs 100 replicates for its probabilities and refuses fewer with exit 1
    assert run(["mc", "--n", "10", "--s", "2", "--replicates", "0", "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:2] == ["2s=2: mean=n/a", "2s=4: mean=n/a"]
    summary = _strict_json(out[out.index("{") :])
    assert (summary["replicates"], summary["failed_replicates"], summary["lambda_max_mean"]) == (0, [], None)
    assert [entry["exact"] for entry in summary["traces"].values()] == [2.5, 1.1875]
    assert run(["tail", "--n", "10", "--replicates", "0", "--no-timestamp"]) == 1
    assert capsys.readouterr().err == "error: at least 100 replicates are required for a tail curve\n"


def test_tail_json_has_no_bound_below_zero_threshold(capsys):
    # the Markov bound needs a positive threshold; at x = -5, n = 8 it is -0.25
    argv = ["tail", "--n", "8", "--x=-5,0", "--chebyshev-s", "2", "--replicates", "100"]
    assert run(argv + ["--format", "json", "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    rows = _strict_json(out[out.index("{") :])["rows"]
    assert rows[0]["threshold"] < 0 and rows[0]["chebyshev_bound"] is None
    assert rows[1]["chebyshev_bound"] > 0


def test_write_json_refuses_non_finite_values(capsys):
    with pytest.raises(ValueError):
        cli.write_json(None, {"x": float("nan")}, {}, True)
    assert capsys.readouterr().out == ""


def test_json_rows_equal_one_dump_of_the_payload(capsys):
    # write_rows renders row by row; the text is write_json's single dump of the whole payload
    nested = {"b": [1, [2, None]], "a": Fraction(1, 3), "c": {"x": "y\nz", "w": []}}
    for rows in ([], [{"a": 1}], [nested, {"a": 2.5}, {}]):
        cli.write_json(None, {"rows": rows}, {"k": 1}, True)
        want = capsys.readouterr().out
        cli.write_rows(None, iter(rows), {"k": 1}, "json", True)
        assert capsys.readouterr().out == want
    # every row is rendered before the first write, so a refused value writes nothing
    with pytest.raises(ValueError):
        cli.write_rows(None, [{"x": 1.0}, {"x": float("nan")}], {}, "json", True)
    assert capsys.readouterr().out == ""


def _decimal_and_ratio(value: Fraction) -> tuple[str, str]:
    """Two spellings of a value whose denominator divides a power of ten."""
    places = value.denominator.bit_length()
    scaled = abs(value) * 10**places
    assert scaled.denominator == 1
    digits = str(scaled.numerator).rjust(places + 1, "0")
    decimal = f"{'-' if value < 0 else ''}{digits[:-places]}.{digits[-places:]}"
    return decimal, f"{value.numerator * 3}/{value.denominator * 3}"


def test_rational_flag_spellings_share_a_fingerprint(tmp_path):
    from hypothesis import given, settings
    from hypothesis import strategies as st

    cfg = tmp_path / "run.cfg"

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.integers(0, 6),
        st.integers(0, 6),
        st.sampled_from(["mc", "tail", "moments", "zparts"]),
        st.integers(1, 9),
    )
    def inner(numerator, twos, fives, command, c):
        value = Fraction(numerator, 2**twos * 5**fives)
        decimal, ratio = _decimal_and_ratio(value)
        base = [command, "--n", "12", "--c", str(c)] + (["--s", "2"] if command != "tail" else [])
        parsed = {}
        for v in (decimal, ratio, str(value)):
            for c_text in (str(c), f"0{c}", f" +{c}"):
                argv = base[:4] + [c_text] + base[5:] + ["--v", v]
                args = cli.build_parser().parse_args(argv)
                assert Fraction(args.v) == value and int(args.c) == c
                parsed[(v, c_text)] = cli.fingerprint(vars(args))
        assert len(set(parsed.values())) == 1, parsed
        # a config file holding the same flags parses to the same arguments
        cfg.write_text(f"n = 12\nc = {c}\nv = {ratio}\n" + ("s = 2\n" if command != "tail" else ""))
        from_file = cli.build_parser().parse_args([command, *cli.load_config_tokens(str(cfg))])
        assert vars(from_file) == vars(cli.build_parser().parse_args(base + ["--v", decimal]))
        # the canonical text parses to itself
        again = cli.build_parser().parse_args(base + ["--v", from_file.v])
        assert again.v == from_file.v

    inner()


@pytest.mark.parametrize("bad", ["x", "1/0", "0.5.1", ""])
def test_malformed_v_is_usage_error(bad, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["moments", "--n", "10", "--s", "2", "--v", bad, "--no-timestamp"])
    assert exc.value.code == 2
    assert "argument --v: invalid rational value" in capsys.readouterr().err


def test_tail_grid_spellings_share_a_fingerprint(capsys):
    # the default grid is canonical, so it keeps the fingerprint it always had
    parse = cli.build_parser().parse_args
    assert cli.fingerprint(vars(parse(["tail", "--n", "10"]))) == "162f6c7f21c3ee80"
    for grid in ("0,1", "0.0,1.0", "0/3, +1", "00,10/10"):
        args = parse(["tail", "--n", "10", "--x", grid])
        assert args.x == "0,1"
        assert cli.fingerprint(vars(args)) == "90f29aa339e3ca7a"
    # a point with no decimal form is read as a fraction
    argv = ["tail", "--n", "8", "--x=1/3,-1/2", "--replicates", "100", "--format", "json", "--no-timestamp"]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert [row["x"] for row in _strict_json(out[out.index("{") :])["rows"]] == [1 / 3, -0.5]


@pytest.mark.parametrize("bad", ["0,a", "", "nan,inf", "inf", "1,,2", "1/0", "1e400", "0,-1e400"])
def test_malformed_tail_grid_is_usage_error(bad, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["tail", "--n", "10", "--replicates", "100", f"--x={bad}", "--no-timestamp"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --x: invalid rational value" in captured.err


def test_mc_format_without_out_is_a_usage_error(tmp_path, capsys):
    # without --out, mc prints its JSON summary alone and no --format is read
    for fmt in ("csv", "json"):
        with pytest.raises(SystemExit) as exc:
            run(["mc", "--n", "5", "--replicates", "3", "--format", fmt, "--no-timestamp"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err_lines = captured.err.splitlines()
        assert [line for line in err_lines if "error:" in line] == err_lines[-1:]
        assert "--format" in err_lines[-1]
    # with --out it picks the rows file's format; csv when omitted
    for fmt, first in (("json", "{"), ("csv", "replicate,"), (None, "replicate,")):
        out_file = tmp_path / f"mc-{fmt}.out"
        argv = ["mc", "--n", "5", "--replicates", "3", "--out", str(out_file), "--no-timestamp"]
        assert run(argv + (["--format", fmt] if fmt else [])) == 0
        body = [line for line in out_file.read_text().splitlines() if not line.startswith("#")]
        assert body[0].startswith(first)


def test_mc_negative_s_is_a_usage_error(capsys):
    # --s -2 would give an empty traces object and drop the parameter silently
    with pytest.raises(SystemExit) as exc:
        run(["mc", "--n", "5", "--s", "-2", "--replicates", "3", "--no-timestamp"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err_lines = captured.err.splitlines()
    assert [line for line in err_lines if "error:" in line] == err_lines[-1:]
    assert "--s must be >= 0" in err_lines[-1]
    # --s 0 asks for no trace and is still a run
    assert run(["mc", "--n", "5", "--s", "0", "--replicates", "3", "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    summary = _strict_json(out[out.index("{") :])
    assert (summary["replicates"], summary["traces"]) == (3, {})
