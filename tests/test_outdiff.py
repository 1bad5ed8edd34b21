"""``tools/outdiff.py`` on small output trees: identical trees, signed zeros, ``--max-rel``."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "outdiff.py"
_SPEC = importlib.util.spec_from_file_location("outdiff", _PATH)
outdiff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outdiff)


def write_tree(root: Path, price: str, leaf: float) -> Path:
    root.mkdir()
    (root / "f.csv").write_text(f"node,price,beta\n0,{price},1.5\n1,2.0,0.0\n")
    (root / "summary.json").write_text(json.dumps({"solve": {"residual": leaf, "n": 3}}))
    (root / "manifest.json").write_text(json.dumps({"wall_s": leaf + 1.0}))
    return root


def test_identical_trees_report_identical(tmp_path, capsys) -> None:
    a = write_tree(tmp_path / "a", "0.0", 0.0)
    b = write_tree(tmp_path / "b", "0.0", 0.0)
    (b / "manifest.json").write_text(json.dumps({"wall_s": 9.0}))  # never compared
    assert outdiff.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["identical: f.csv", "identical: summary.json",
                   "2 of 2 common files byte-identical"]


def test_signed_zeros_are_named(tmp_path, capsys) -> None:
    a = write_tree(tmp_path / "a", "0.0", 0.0)
    b = write_tree(tmp_path / "b", "-0.0", -0.0)
    assert outdiff.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "differs: f.csv" in out
    column = [line for line in out if line.startswith("  column ")]
    assert len(column) == 1
    assert column[0].startswith("  column price: max rel 0, max abs 0, 1 text cells differ")
    assert "differs: summary.json" in out
    key = [line for line in out if line.startswith("  key ")]
    assert len(key) == 1
    assert key[0].startswith("  key solve.residual: max rel 0, max abs 0, 1 text cells differ")
    assert out[-1] == "0 of 2 common files byte-identical"


def test_numeric_difference_is_measured(tmp_path, capsys) -> None:
    a = write_tree(tmp_path / "a", "2.0", 0.0)
    b = write_tree(tmp_path / "b", "2.5", 0.0)
    assert outdiff.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "  column price: max rel 0.25, max abs 0.5" in out
    assert "identical: summary.json" in out


def test_max_rel_passes_round_off_and_counts_what_exceeds_it(tmp_path, capsys) -> None:
    a = write_tree(tmp_path / "a", "2.0", 1e-16)
    # one ulp on the price; the residual moves but stays below the floor
    b = write_tree(tmp_path / "b", "2.0000000000000004", 3e-16)
    assert outdiff.main(["--max-rel", "1e-12", str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "  column price: max rel 2.22e-16, max abs 4.44e-16" in out
    assert out[-1] == "every difference within max rel 1e-12: yes"
    assert outdiff.main(["--max-rel", "1e-16", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "  column price: max rel 2.22e-16, max abs 4.44e-16, 1 beyond max rel 1e-16" in out
    assert out[-1] == "every difference within max rel 1e-16: no"
    assert outdiff.main([str(a), str(b)]) == 1  # without a tolerance any difference fails


def test_max_rel_refuses_a_value_leaving_the_floor(tmp_path, capsys) -> None:
    a = write_tree(tmp_path / "a", "2.0", 0.0)
    b = write_tree(tmp_path / "b", "2.0", 1e-3)
    assert outdiff.main(["--max-rel", "0.5", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "  key solve.residual: max rel 0, max abs 0.001, 1 beyond max rel 0.5" in out


def test_max_rel_passes_signed_zeros_but_not_text_or_missing_files(tmp_path, capsys) -> None:
    a = write_tree(tmp_path / "a", "0.0", 0.0)
    b = write_tree(tmp_path / "b", "-0.0", -0.0)
    assert outdiff.main(["--max-rel", "1e-12", str(a), str(b)]) == 0
    c = write_tree(tmp_path / "c", "nan", 0.0)
    assert outdiff.main(["--max-rel", "1e-12", str(a), str(c)]) == 1
    d = write_tree(tmp_path / "d", "n/a", 0.0)
    assert outdiff.main(["--max-rel", "1e-12", str(a), str(d)]) == 1
    (b / "extra.csv").write_text("x\n1\n")
    capsys.readouterr()
    assert outdiff.main(["--max-rel", "1e-12", str(a), str(b)]) == 1
    assert "only in B: extra.csv" in capsys.readouterr().out.splitlines()
