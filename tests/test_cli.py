from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import marketclear
from marketclear.cli import main

SHIPPED = Path(__file__).resolve().parent.parent / "models"

GOOD_MODEL = """
[dimensions]
n = 1
d0 = 1
d = 0
N = 4

[constants]
delta = 0.3
lambda = 1.0
lambda0 = 1.0

[minor]
cf = 1.0
cg = 1.0

[major]
c0f = 1.0
c0g = 1.0

[noise]
c0 = constant
c0_value = 0.1

[laws]
xi_atoms = 0.0 2.0
xi_weights = 0.5 0.5
"""

# heterogeneous terminal curvatures too far apart for any common anchor
BAD_MODEL = json.dumps({
    "dimensions": {"n": 1, "d0": 1, "d": 0, "N": 2},
    "constants": {"delta": 0.9},
    "minor": [{"cg": 0.05}, {"cg": 2.0}],
    "laws": {"xi_atoms": [[1.0]], "xi_weights": [1.0]},
})

MATURITY_MODEL = """
[dimensions]
n = 1
d0 = 1
d = 0
N = 2

[constants]
delta = 0.3
maturity = true

[minor]
cg = 0.0

[noise]
c0 = constant
c0_value = 5.0

[laws]
xi_atoms = 0.0 2.0
xi_weights = 0.5 0.5
"""


@pytest.fixture
def good_model(tmp_path):
    path = tmp_path / "good.model"
    path.write_text(GOOD_MODEL)
    return path


def run(args):
    return main([str(a) for a in args])


def test_check_passes_on_benchmark(good_model, tmp_path) -> None:
    out = tmp_path / "out"
    assert run(["check", "--model", good_model, "--out", out]) == 0
    report = json.loads((out / "assumptions.json").read_text())
    assert report["all_passed"]
    assert (out / "manifest.json").exists()


def test_failed_manifest_write_is_reported(good_model, tmp_path, monkeypatch, capsys) -> None:
    import marketclear.cli as cli

    def refuse(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_manifest", refuse)
    out = tmp_path / "out"
    assert run(["check", "--model", good_model, "--out", out]) == 0
    err = capsys.readouterr().err
    assert str(out / "manifest.json") in err
    assert "disk full" in err


def test_check_fails_on_spread_curvatures(tmp_path) -> None:
    model = tmp_path / "bad.model"
    model.write_text(BAD_MODEL)
    out = tmp_path / "out"
    assert run(["check", "--model", model, "--out", out]) == 2
    report = json.loads((out / "assumptions.json").read_text())
    assert not report["passed"]["minor_B"]
    assert any("gamma_g" in msg for msg in report["failures"])


def test_check_sees_a_cost_curvature_between_grid_times(tmp_path) -> None:
    # cf = -3 only on [0.3, 0.6): no default grid time and neither t = 0 nor t = 1
    doc = {
        "dimensions": {"n": 1, "d0": 1, "d": 0, "N": 2},
        "constants": {"delta": 0.3},
        "minor": {"cf": {"kind": "time", "times": [0.0, 0.3, 0.6],
                         "values": [[[1.0]], [[-3.0]], [[1.0]]]}},
        "laws": {"xi_atoms": [[1.0]], "xi_weights": [1.0]},
    }
    model = tmp_path / "dip.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(["check", "--model", model, "--out", out]) == 2
    report = json.loads((out / "assumptions.json").read_text())
    assert not report["passed"]["minor_A_iv"]
    assert report["gamma_f"] == -3.0
    assert any("minor bundle 0" in msg and "t=0.3" in msg for msg in report["failures"])


def test_missing_model_is_usage_error(tmp_path) -> None:
    assert run(["check", "--model", tmp_path / "absent.model",
                "--out", tmp_path / "out"]) == 1


@pytest.mark.parametrize("flag, content", [("--model", None),
                                           ("--model", b"\xff" + GOOD_MODEL.encode()),
                                           ("--config", None)],
                         ids=["model-directory", "model-not-utf8", "config-directory"])
def test_unreadable_model_or_config_is_usage_error(good_model, tmp_path, capsys, flag,
                                                   content) -> None:
    bad = tmp_path / "bad"
    if content is None:
        bad.mkdir()
    else:
        bad.write_bytes(content)
    given = ["--model", bad] if flag == "--model" else ["--model", good_model, flag, bad]
    assert run(["check", *given, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and str(bad) in err


def test_check_builds_no_tree(tmp_path) -> None:
    # the checks read the model alone: a depth no tree could reach is no error
    out = tmp_path / "out"
    assert run(["check", "--model", SHIPPED / "benchmark.model", "--out", out,
                "--steps", 40, "--maturity"]) == 0
    report = json.loads((out / "assumptions.json").read_text())
    assert report["all_passed"] and report["skipped"]  # maturity mode skips terminal clauses


def test_config_hash_does_not_depend_on_the_host(good_model, tmp_path, monkeypatch) -> None:
    # --threads has no effect: unset, it stays out of the config, whatever the CPU count
    out = tmp_path / "out"
    configs = []
    for cpus, flags in ((1, []), (8, []), (8, ["--threads", 3])):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        assert run(["lattice-dump", "--model", good_model, "--out", out, "--steps", 2,
                    *flags]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        configs.append((manifest["config_hash"], manifest["config"].get("threads")))
    assert configs[0] == configs[1] and configs[0][1] is None
    assert configs[2][1] == 3


def test_unknown_flag_is_usage_error(good_model, tmp_path) -> None:
    assert run(["check", "--model", good_model, "--bogus"]) == 1


@pytest.mark.parametrize("command", ["check", "solve-n", "solve-mfg", "converge", "verify",
                                     "lattice-dump"])
def test_one_command_parser_parses_as_the_full_parser(command, capsys) -> None:
    # main builds the named command's parser alone; its help, defaults,
    # types and usage errors are those of the full parser's
    from marketclear.cli import UsageError, _build_parser
    full, alone = _build_parser(), _build_parser(command)
    assert list(alone.commands) == [command]
    a, b = full.commands[command], alone.commands[command]
    assert (a.format_help(), a.defaults, a.types) == (b.format_help(), b.defaults, b.types)
    for argv in ([command, "--model", "m", "--steps", "3"], [command, "--steps", "x"],
                 [command, "--model", "m", "--bogus"]):
        results = []
        for parser in (full, alone):
            try:
                results.append(vars(parser.parse_args(argv)))
            except UsageError as exc:
                results.append(str(exc))
        assert results[0] == results[1], argv
    for parser in (full, alone):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
    help_full, help_alone = capsys.readouterr().out.split("usage: ")[1:]
    assert help_full == help_alone


def test_unknown_command_and_top_level_flags_use_the_full_parser(capsys) -> None:
    from marketclear.cli import _build_parser
    assert list(_build_parser("--help").commands) == list(_build_parser().commands)
    assert run(["bogus"]) == 1
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["--version"])
    assert capsys.readouterr().out.strip() == marketclear.__version__


@pytest.mark.parametrize("args", [
    ["converge", "--n-list", "0,8,16"],
    ["converge", "--n-list", "8,16,x"],
    ["converge", "--n-list", "8,8,16,32"],
    ["converge", "--n-list=-4,8,16"],
    ["converge", "--resamples", 0],
    ["converge", "--resamples", -2],
    ["solve-n", "--n-agents", -3],
    ["solve-n", "--n-agents", 0],
    ["verify", "--directions", 0],
])
def test_bad_sizes_are_usage_errors(good_model, tmp_path, capsys, args) -> None:
    out = tmp_path / "out"
    assert run([*args, "--model", good_model, "--out", out, "--steps", 2]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve-n", "verify"])
@pytest.mark.parametrize("agents", [3, 10])
def test_agent_count_of_a_heterogeneous_model_is_fixed(tmp_path, capsys, command,
                                                       agents) -> None:
    # one coefficient bundle per agent: the model's 4 agents are its market
    out = tmp_path / "out"
    assert run([command, "--model", SHIPPED / "heterogeneous.json", "--out", out,
                "--steps", 2, "--n-agents", agents]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and f"4 agents, not {agents}" in err
    assert not out.exists()


def test_solve_n_writes_outputs(good_model, tmp_path, capsys) -> None:
    out = tmp_path / "out"
    code = run(["solve-n", "--model", good_model, "--out", out,
                "--steps", 3, "--n-agents", 2])
    assert code == 0
    captured = capsys.readouterr().out
    assert "price(t=0):" in captured and "clearing residual:" in captured
    summary = json.loads((out / "summary.json").read_text())
    assert summary["clearing_residual"] <= 1e-10
    assert (out / "equilibrium.csv").exists()


def test_zero_model_prints_zero_price(tmp_path, capsys) -> None:
    model = tmp_path / "zero.model"
    model.write_text(GOOD_MODEL.replace("xi_atoms = 0.0 2.0", "xi_atoms = 0.0 0.0")
                     .replace("c0_value = 0.1", "c0_value = 0.0"))
    out = tmp_path / "out"
    assert run(["solve-n", "--model", model, "--out", out, "--steps", 2]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["price_t0"] == [0.0]
    assert summary["clearing_residual"] == 0.0


def test_solve_n_noiseless_benchmark_price(tmp_path, capsys) -> None:
    # the major's shadow value tracks the market's, so she optimally stays
    # out and the closed-form clearing price survives the full solve
    model = tmp_path / "noiseless.model"
    model.write_text("""
[dimensions]
n = 1
d0 = 0
d = 0
N = 1

[constants]
delta = 0.0

[major]
c0f = 1e-6
h0f = 1.0
c0g = 1e-6
h0g = 1.0

[laws]
xi_atoms = 1.0
xi_weights = 1.0
""")
    out = tmp_path / "out"
    assert run(["solve-n", "--model", model, "--out", out, "--steps", 64]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["price_t0"][0] + 2.0) <= 2e-2


def test_solve_mfg_maturity_terminal_rows(tmp_path) -> None:
    model = tmp_path / "maturity.model"
    model.write_text(MATURITY_MODEL)
    out = tmp_path / "out"
    assert run(["solve-mfg", "--model", model, "--out", out, "--steps", 3]) == 0
    rows = (out / "equilibrium_mfg.csv").read_text().splitlines()
    header = rows[0].split(",")
    terminal_prices = []
    for line in rows[1:]:
        parts = dict(zip(header, line.split(",")))
        if parts["atom_id"] == "PRICE" and float(parts["t"]) == 1.0:
            terminal_prices.append(float(parts["value"]))
    assert terminal_prices
    assert all(p == 5.0 for p in terminal_prices)
    # row layout: one run of (node, component) rows per (atom_id, field_name)
    runs = []
    for line in rows[1:]:
        owner, name = line.split(",")[2:4]
        if runs and runs[-1][0] == (owner, name):
            runs[-1][1] += 1
        else:
            runs.append([(owner, name), 1])
    assert [key for key, _ in runs] == (
        [("MEAN", f) for f in ("x0", "p0", "xbar", "ybar", "pbar", "rbar")]
        + [("0", "x"), ("0", "y"), ("1", "x"), ("1", "y")]
        + [("MAJOR", "beta"), ("PRICE", "phi")])
    assert {count for _, count in runs} == {15}  # 1 + 2 + 4 + 8 nodes, n = 1


def test_solve_blocked_by_failing_assumptions_unless_forced(tmp_path, capsys) -> None:
    model = tmp_path / "bad.model"
    model.write_text(BAD_MODEL)
    out = tmp_path / "out"
    assert run(["solve-n", "--model", model, "--out", out, "--steps", 2]) == 2
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "assumption checks failed (use --force to attempt a solve anyway):"
    assert printed[1].startswith("  - terminal coupling constant a=")
    assert (out / "manifest.json").exists()
    assert run(["solve-n", "--model", model, "--out", out, "--steps", 2,
                "--force"]) == 0
    # forced past the checks, a fee matrix that is not positive definite still fails
    model.write_text(GOOD_MODEL.replace("lambda = 1.0", "lambda = -1.0"))
    assert run(["solve-n", "--model", model, "--out", out, "--steps", 2, "--force"]) == 2
    assert "assumption violation:" in capsys.readouterr().err


def test_converge_degenerate_point_mass(tmp_path, capsys) -> None:
    model = tmp_path / "point.model"
    model.write_text(GOOD_MODEL.replace("xi_atoms = 0.0 2.0", "xi_atoms = 1.0 1.0"))
    out = tmp_path / "out"
    code = run(["converge", "--model", model, "--out", out, "--steps", 2,
                "--n-list", "2,4,8", "--resamples", 2])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["degenerate"]
    assert "degenerate study" in capsys.readouterr().out


def test_converge_gate_and_outputs(good_model, tmp_path) -> None:
    out = tmp_path / "out"
    code = run(["converge", "--model", good_model, "--out", out, "--steps", 3,
                "--n-list", "8,16,32", "--resamples", 24, "--seed", 7])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["slope"] <= -0.35
    assert (out / "convergence.csv").exists()


def test_verify_gates(good_model, tmp_path) -> None:
    out = tmp_path / "out"
    code = run(["verify", "--model", good_model, "--out", out, "--steps", 3,
                "--n-agents", 2, "--directions", 4])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    for level in ("minor", "major-N", "major-mfg"):
        assert summary[level]["min_delta_j"] >= -1e-9
        assert summary[level]["gradient_norm"] <= 1e-6
        assert (out / f"perturbation_{level}.csv").exists()


def test_verify_all_shares_one_finite_solve(monkeypatch, tmp_path) -> None:
    # --level all solves the finite market once and writes, byte for byte,
    # what the three levels write when run one at a time
    import marketclear.optimality as optimality
    model = str(SHIPPED / "two_assets.json")
    common = ["--model", model, "--steps", 3, "--directions", 3, "--branching", 3]
    calls = []
    solve = optimality.solve_full_equilibrium
    monkeypatch.setattr(optimality, "solve_full_equilibrium",
                        lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    assert run(["verify", "--level", "all", "--out", tmp_path / "all", *common]) == 0
    assert len(calls) == 1
    for level in ("minor", "major-N", "major-mfg"):
        out = tmp_path / level
        assert run(["verify", "--level", level, "--out", out, *common]) == 0
        name = f"perturbation_{level}.csv"
        assert (out / name).read_bytes() == (tmp_path / "all" / name).read_bytes()
        alone = json.loads((out / "summary.json").read_text())
        assert alone[level] == json.loads((tmp_path / "all" / "summary.json").read_text())[level]


def test_verify_rejects_zero_directions_before_solving(good_model, monkeypatch, tmp_path,
                                                     capsys) -> None:
    import marketclear.optimality as optimality
    from marketclear.errors import SolverError

    def failing(*args, **kwargs):
        raise SolverError("singular")

    monkeypatch.setattr(optimality, "solve_full_equilibrium", failing)
    out = tmp_path / "out"
    assert run(["verify", "--model", good_model, "--out", out, "--steps", 2,
                "--directions", 0]) == 1
    assert "at least one perturbation direction" in capsys.readouterr().err
    assert not out.exists()


def test_lattice_dump(good_model, tmp_path) -> None:
    out = tmp_path / "out"
    assert run(["lattice-dump", "--model", good_model, "--out", out,
                "--steps", 2]) == 0
    lines = (out / "lattice.csv").read_text().splitlines()
    assert len(lines) == 1 + 7


def test_config_file_supplies_options(good_model, tmp_path) -> None:
    out = tmp_path / "out"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"steps": 2, "n_agents": 2}))
    assert run(["solve-n", "--model", good_model, "--out", out,
                "--config", cfg]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_agents"] == 2
    assert "config_hash" in manifest and "versions" in manifest


def test_config_file_overrides_defaults_and_flags_override_it(good_model, tmp_path) -> None:
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"steps": 3, "branching": 3}))
    for flags, nodes in (([], 40), (["--steps", 2], 13), (["--branching", 2], 15)):
        out = tmp_path / f"out{len(flags)}{nodes}"
        assert run(["lattice-dump", "--model", good_model, "--out", out,
                    "--config", cfg, *flags]) == 0
        assert len((out / "lattice.csv").read_text().splitlines()) == 1 + nodes


def test_null_config_entries_keep_the_defaults(good_model, tmp_path) -> None:
    out = tmp_path / "out"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": None, "steps": None, "n_agents": None}))
    assert run(["solve-n", "--model", good_model, "--out", out, "--config", cfg]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 0
    assert manifest["config"]["seed"] == 0 and manifest["config"]["steps"] == 8
    assert "n_agents" not in manifest["config"]


@pytest.mark.parametrize("text", ['{"steps": 3,', '[3]', '{"steps": "3"}', '{"steps": 2.5}',
                                  '{"force": 1}', '{"horizon": true}', '{"out": 7}',
                                  '{"step": 3}'])
def test_malformed_config_file_is_usage_error(good_model, tmp_path, capsys, text) -> None:
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    assert run(["lattice-dump", "--model", good_model, "--out", tmp_path / "out",
                "--config", cfg]) == 1
    assert "usage error: config file" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, config", [
    ("check", ["--branching", 5], None), ("check", [], {"branching": 5}),
    ("lattice-dump", [], {"branching": 1}), ("verify", [], {"level": "major"})],
    ids=["branching-flag", "branching-config", "branching-config-dump", "level-config"])
def test_option_outside_its_choices_is_usage_error(good_model, tmp_path, capsys, command,
                                                   flags, config) -> None:
    # a config file's value is checked against the flag's choices, as the flag is
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        flags = ["--config", tmp_path / "run.json"]
    out = tmp_path / "out"
    assert run([command, "--model", good_model, "--out", out, "--steps", 2, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "invalid choice" in err
    assert not out.exists()


def test_product_of_passing_laws_solves(tmp_path) -> None:
    # each law sums to 1 + 5.9e-13, their product to 1 + 1.2e-12
    thirds = " ".join(["0.33333333333353"] * 3)
    model = tmp_path / "thirds.model"
    model.write_text(GOOD_MODEL.replace("xi_atoms = 0.0 2.0\nxi_weights = 0.5 0.5", (
        f"xi_atoms = 0.0 1.0 2.0\nxi_weights = {thirds}\n"
        f"ci_atoms = 0.0 0.5 1.0\nci_weights = {thirds}")))
    for command in ("check", "solve-n"):
        assert run([command, "--model", model, "--out", tmp_path / command, "--steps", 2]) == 0


@pytest.mark.parametrize("model, old, token", [
    *(("benchmark.model", "lambda = 1.0", f"lambda = {t}")
      for t in ("nan", "inf", "-Infinity", "1e999")),
    *(("two_assets.json", '"delta": 0.25', f'"delta": {t}')
      for t in ("NaN", "Infinity", "-Infinity", "1e999")),
])
def test_non_finite_model_number_is_usage_error(tmp_path, capsys, model, old, token) -> None:
    text = (SHIPPED / model).read_text()
    assert old in text
    text = text.replace(old, token)
    path = tmp_path / model
    path.write_text(text)
    out = tmp_path / "out"
    assert run(["solve-n", "--model", path, "--out", out, "--steps", 3]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def _two_assets_with(section, key, value) -> str:
    doc = json.loads((SHIPPED / "two_assets.json").read_text())
    doc[section][key] = value
    return json.dumps(doc)


TWO_ASSET_TEXT = "[dimensions]\nn = 2\nd0 = 1\nd = 0\nN = 2\n"


@pytest.mark.parametrize("text, entry", [
    (TWO_ASSET_TEXT + "[major]\nc0f = 1 2 3\n", "[major] c0f"),
    (TWO_ASSET_TEXT + "[constants]\nchi0 = 1 2 3\n", "[constants] chi0"),
    (_two_assets_with("dimensions", "n", "two"), "[dimensions] n"),
    (_two_assets_with("minor", "cf", "abc"), "[minor] cf"),
    (_two_assets_with("constants", "lambda", {"kind": "time", "times": [0.0]}),
     "[constants] lambda: missing entry 'values'"),
    (_two_assets_with("constants", "lambda", {"kind": "time", "times": [0.0, 0.6, 0.3],
                                              "values": [[[1.0, 0.0], [0.0, 1.0]]] * 3}),
     "[constants] lambda: time table times must be finite and strictly increasing"),
    (TWO_ASSET_TEXT.replace("N = 2", "N = 8.7"), "[dimensions] N: expected one integral number"),
    (_two_assets_with("dimensions", "n", [2, 3]), "[dimensions] n: expected one integral number"),
    (_two_assets_with("constants", "maturity", "false"),
     "[constants] maturity: expected true or false"),
    (_two_assets_with("constants", "maturity", 1), "[constants] maturity: expected true or false"),
], ids=["text-c0f", "text-chi0", "json-n", "json-cf", "json-lambda",
        "json-lambda-unordered-times", "text-N-fraction",
        "json-n-list", "json-maturity-string", "json-maturity-number"])
def test_malformed_model_entry_is_usage_error(tmp_path, capsys, text, entry) -> None:
    path = tmp_path / "bad.model"
    path.write_text(text)
    out = tmp_path / "out"
    assert run(["check", "--model", path, "--out", out]) == 1
    assert f"usage error: {entry}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("horizon", ["nan", "inf"])
@pytest.mark.parametrize("command", ["check", "solve-n"])
def test_non_finite_horizon_is_usage_error(good_model, tmp_path, capsys, command,
                                           horizon) -> None:
    out = tmp_path / "out"
    assert run([command, "--model", good_model, "--out", out, "--steps", 2,
                "--horizon", horizon]) == 1
    assert "horizon must be finite and positive" in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "run.json"
    cfg.write_text(f'{{"horizon": {"NaN" if horizon == "nan" else "Infinity"}}}')
    assert run([command, "--model", good_model, "--out", out, "--steps", 2,
                "--config", cfg]) == 1
    assert not out.exists()


def test_thread_count_does_not_change_bytes(good_model, tmp_path) -> None:
    outs = []
    for threads in (1, 3):
        out = tmp_path / f"out{threads}"
        code = run(["converge", "--model", good_model, "--out", out, "--steps", 2,
                    "--n-list", "8,16,32", "--resamples", 6, "--seed", 5,
                    "--threads", threads])
        assert code == 0
        outs.append((out / "convergence.csv").read_bytes())
    assert outs[0] == outs[1]


def test_factor_budget_is_a_solver_failure(good_model, tmp_path, monkeypatch) -> None:
    from marketclear import fbsde
    monkeypatch.setattr(fbsde, "FACTOR_BUDGET_BYTES", 1024)
    out = tmp_path / "out"
    assert run(["solve-n", "--model", good_model, "--out", out, "--steps", 3]) == 3
    failure = json.loads((out / "solver_failure.json").read_text())
    assert "per-level factors" in failure["error"]
    assert not (out / "equilibrium.csv").exists()


def test_shipped_models_drive_the_cli(tmp_path) -> None:
    assert run(["check", "--model", SHIPPED / "benchmark.model",
                "--out", tmp_path / "a"]) == 0
    assert run(["solve-n", "--model", SHIPPED / "two_assets.json",
                "--out", tmp_path / "b", "--steps", 3]) == 0
    assert run(["solve-mfg", "--model", SHIPPED / "maturity.model",
                "--out", tmp_path / "c", "--steps", 3]) == 0


def _run_probe(probe: str, *args) -> str:
    """Run ``probe`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(marketclear.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", probe, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_optimize_and_sparse_unloaded() -> None:
    # process start is most of a small CLI run: the assignment solver (scipy,
    # whose optimize pulls in sparse), the column formatter (orjson) and the
    # random streams are imported on first use, and numpy.ma never, so
    # importing the CLI loads none of them
    probe = ("import sys, marketclear.cli; "
             "print(sorted(m for m in sys.modules if any(m == name or m.startswith(name + '.') "
             "for name in ('scipy', 'orjson', 'numpy.random', 'numpy.ma'))))")
    assert _run_probe(probe) == "[]"


def test_solve_and_converge_runs_leave_numpy_random_unloaded(good_model, tmp_path) -> None:
    # stream_rng's generators are built on first use (the verify directions),
    # so solving and the convergence study never import numpy.random
    probe = ("import sys, marketclear.cli as cli; args = sys.argv[1:]; cut = args.index('--then'); "
             "codes = [cli.main(a) for a in (args[:cut], args[cut + 1:])]; "
             "print(codes, sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    solve = ["solve-n", "--model", good_model, "--out", tmp_path / "s", "--steps", 3]
    converge = ["converge", "--model", good_model, "--out", tmp_path / "c", "--steps", 3,
                "--n-list", "8,16,32", "--resamples", 24, "--seed", 7]
    assert _run_probe(probe, *solve, "--then", *converge) == "[0, 0] []"


def test_only_node_sized_writers_load_orjson(good_model, tmp_path) -> None:
    # the column formatter imports orjson on first use; importing the CLI and
    # the study commands (which write tens of values through repr) must not,
    # and no command of this n = 1 model loads scipy
    probe = ("import sys, marketclear.cli as cli; before = 'orjson' in sys.modules; "
             "args = sys.argv[1:]; cut = args.index('--then'); "
             "codes = [cli.main(a) for a in (args[:cut], args[cut + 1:])]; "
             "print(before, codes, 'orjson' in sys.modules, 'scipy' in sys.modules)")
    converge = ["converge", "--model", good_model, "--out", tmp_path / "c", "--steps", 3,
                "--n-list", "8,16,32", "--resamples", 24, "--seed", 7]
    verify = ["verify", "--model", good_model, "--out", tmp_path / "v", "--steps", 3,
              "--n-agents", 2, "--directions", 2]
    assert _run_probe(probe, *converge, "--then", *verify) == "False [0, 0] False False"
    solve = ["solve-n", "--model", good_model, "--out", tmp_path / "s", "--steps", 3]
    assert _run_probe(probe, *solve, "--then", *solve, "--force") == "False [0, 0] True False"


def test_manifest_versions_leave_scipy_unloaded(good_model, tmp_path) -> None:
    # the manifest lists scipy and orjson only when the run loaded them, so
    # writing it never imports scipy
    probe = ("import sys, marketclear.cli as cli; args = sys.argv[1:]; cut = args.index('--then'); "
             "codes = [cli.main(a) for a in (args[:cut], args[cut + 1:])]; "
             "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    solve = ["solve-n", "--model", good_model, "--out", tmp_path / "s", "--steps", 3]
    verify = ["verify", "--model", good_model, "--out", tmp_path / "v", "--steps", 3,
              "--n-agents", 2, "--directions", 2]
    assert _run_probe(probe, *verify, "--then", *solve) == "[0, 0] []"
    versions = json.loads((tmp_path / "v" / "manifest.json").read_text())["versions"]
    assert sorted(versions) == ["marketclear", "numpy"]
    versions = json.loads((tmp_path / "s" / "manifest.json").read_text())["versions"]
    assert sorted(versions) == ["marketclear", "numpy", "orjson"]
