from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import marketclear
from marketclear.cli import main

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


def test_missing_model_is_usage_error(tmp_path) -> None:
    assert run(["check", "--model", tmp_path / "absent.model",
                "--out", tmp_path / "out"]) == 1


def test_unknown_flag_is_usage_error(good_model, tmp_path) -> None:
    assert run(["check", "--model", good_model, "--bogus"]) == 1


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


def test_solve_blocked_by_failing_assumptions_unless_forced(tmp_path) -> None:
    model = tmp_path / "bad.model"
    model.write_text(BAD_MODEL)
    out = tmp_path / "out"
    assert run(["solve-n", "--model", model, "--out", out, "--steps", 2]) == 2
    assert run(["solve-n", "--model", model, "--out", out, "--steps", 2,
                "--force"]) == 0


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


def test_shipped_models_drive_the_cli(tmp_path) -> None:
    models = Path(__file__).resolve().parent.parent / "models"
    assert run(["check", "--model", models / "benchmark.model",
                "--out", tmp_path / "a"]) == 0
    assert run(["solve-n", "--model", models / "two_assets.json",
                "--out", tmp_path / "b", "--steps", 3]) == 0
    assert run(["solve-mfg", "--model", models / "maturity.model",
                "--out", tmp_path / "c", "--steps", 3]) == 0


def test_cli_import_leaves_scipy_optimize_and_sparse_unloaded() -> None:
    # the assignment solver is imported on first use, so commands that never
    # need it do not pay for scipy.optimize (which pulls in scipy.sparse)
    src = str(Path(marketclear.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = ("import sys, marketclear.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[:2] in (['scipy', 'optimize'], ['scipy', 'sparse'])))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
