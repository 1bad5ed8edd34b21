"""Model files: a flat sectioned text format and an equivalent JSON rendering.

Text files hold sections [dimensions], [constants], [minor], [major],
[noise], [laws]; values are whitespace- or comma-separated numbers read
row-major into the shape each key requires.  Unknown sections and keys,
numbers that are not finite and entries that do not take their key's form
are rejected, naming the section and key.  A file whose first non-space
character is '{' is parsed as JSON with the same section/key schema; JSON
additionally accepts a list of minor bundles (heterogeneous agents) and
structured coefficient payloads {"kind": "time"|"affine", ...}.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .model import (CoefficientSpec, Dimensions, DiscreteLaw, MajorFlow,
                    MinorBundle, ModelSpec, QuadraticMajorCost, coeff)

_SECTION_KEYS = {
    "dimensions": {"n", "d0", "d", "N"},
    "constants": {"delta", "chi0", "lambda", "lambda0", "maturity"},
    "minor": {"l", "sigma0", "sigma", "cf", "hf", "cg", "hg",
              "l_c0", "l_ci", "hf_c0", "hf_ci", "hg_c0", "hg_ci"},
    "major": {"l0", "s0", "c0f", "h0f", "h0f_c0", "c0g", "h0g", "h0g_c0"},
    "noise": {"c0", "c0_value", "c0_start", "c0_drift", "c0_loading"},
    "laws": {"xi_atoms", "xi_weights", "ci_atoms", "ci_weights"},
}


def _finite(token: str, where: str = "model file") -> float:
    """A number of the model file; NaN, infinities and overflows such as 1e999 are refused."""
    value = float(token)
    if not math.isfinite(value):
        raise ValidationError(f"{where}: numbers must be finite, got {token}")
    return value


def _parse_numbers(raw: str, key: str) -> np.ndarray:
    toks = raw.replace(",", " ").split()
    try:
        return np.array([_finite(t, key) for t in toks])
    except ValueError:
        raise ValidationError(f"{key}: expected numbers, got {raw!r}")


def _parse_text(text: str) -> dict:
    sections: dict[str, dict] = {}
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTION_KEYS:
                raise ValidationError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if current is None or "=" not in line:
            raise ValidationError(f"line {lineno}: expected 'key = value' inside a section")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _SECTION_KEYS[current]:
            raise ValidationError(f"line {lineno}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        if (current, key) in (("noise", "c0"),):
            sections[current][key] = raw
        elif key == "maturity":
            low = raw.lower()
            if low not in ("true", "false"):
                raise ValidationError(f"line {lineno}: maturity must be true or false")
            sections[current][key] = low == "true"
        else:
            sections[current][key] = _parse_numbers(raw, key)
    return sections


def _check_json_keys(doc: dict):
    unknown = set(doc) - set(_SECTION_KEYS)
    if unknown:
        raise ValidationError(f"unknown sections: {sorted(unknown)}")
    for name, body in doc.items():
        entries = body if isinstance(body, list) and name == "minor" else [body]
        for entry in entries:
            if not isinstance(entry, dict):
                raise ValidationError(f"section {name!r} must hold key/value pairs")
            bad = set(entry) - _SECTION_KEYS[name]
            if bad:
                raise ValidationError(f"unknown keys in [{name}]: {sorted(bad)}")


def _coeff_from(value, shape, name):
    """Accept a number/array (constant) or a structured payload dict."""
    if isinstance(value, dict):
        kind = value.get("kind")
        if kind == "time":
            return CoefficientSpec("time", shape, times=value["times"],
                                   values=value["values"], name=name)
        if kind == "affine":
            return CoefficientSpec("affine", shape, const=value.get("const", 0.0),
                                   c0_mat=value.get("c0"), ci_mat=value.get("ci"),
                                   name=name)
        raise ValidationError(f"{name}: unknown coefficient payload kind {kind!r}")
    return coeff(np.asarray(value, dtype=float), shape, name)


def _boolean(value) -> bool:
    """A JSON boolean (the text format reads ``true``/``false`` into one); nothing else."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


class _Section:
    """One section's entries, each read into the form its key requires.

    An entry that cannot take that form (a string for a number, a wrong
    number of values, a payload missing an entry) is a ``ValidationError``
    naming the section and the key.
    """

    def __init__(self, name: str, entries: dict):
        self.name, self.entries = name, entries

    def read(self, key: str, default, convert):
        try:
            return convert(self.entries.get(key, default))
        except ValidationError as exc:  # a coefficient's own check, which names the key
            raise ValidationError(f"[{self.name}] {exc}") from None
        except (ValueError, TypeError, KeyError) as exc:
            detail = f"missing entry {exc}" if isinstance(exc, KeyError) else exc
            raise ValidationError(f"[{self.name}] {key}: {detail}") from None

    def number(self, key: str, default, kind):
        """One number of ``kind``; an int must be integral (8.0 reads as 8, 8.7 is refused)."""
        def one(value):
            flat = np.ravel(value)
            if flat.size != 1 or flat.dtype.kind not in "iuf" or kind(flat[0]) != flat[0]:
                raise ValueError(f"expected one {'integral ' * (kind is int)}number, "
                                 f"got {flat.tolist()}")
            return kind(flat[0])
        return self.read(key, default, one)

    def array(self, key: str, default, shape: tuple) -> np.ndarray:
        return self.read(key, default, lambda v: np.asarray(v, dtype=float).reshape(shape))

    def coefficient(self, key: str, default, shape: tuple) -> CoefficientSpec:
        return self.read(key, default, lambda v: _coeff_from(v, shape, key))

    def affine(self, key: str, shape: tuple) -> CoefficientSpec:
        """A vector coefficient: the key's constant plus its optional _c0 and _ci loadings."""
        m = shape[0]
        loading = lambda v: None if v is None else np.asarray(v, dtype=float).reshape(m, m)
        c0_mat, ci_mat = (self.read(key + part, None, loading) for part in ("_c0", "_ci"))
        if c0_mat is None and ci_mat is None:
            return self.read(key, 0.0, lambda v: coeff(np.asarray(v, dtype=float), shape, key))
        return self.read(key, 0.0, lambda v: CoefficientSpec(
            "affine", shape, const=np.asarray(v, dtype=float), c0_mat=c0_mat, ci_mat=ci_mat,
            name=key))


def _build_bundle(section: _Section, dims: Dimensions) -> MinorBundle:
    n = dims.n
    return MinorBundle(
        l=section.affine("l", (n,)), hf=section.affine("hf", (n,)), hg=section.affine("hg", (n,)),
        sigma0=section.coefficient("sigma0", 0.0, (n, dims.d0)),
        sigma=section.coefficient("sigma", 0.0, (n, dims.d)),
        cf=section.coefficient("cf", 1.0, (n, n)), cg=section.coefficient("cg", 1.0, (n, n)))


def _build_spec(doc: dict) -> ModelSpec:
    if "dimensions" not in doc:
        raise ValidationError("model file is missing the [dimensions] section")
    section = lambda name: _Section(name, doc.get(name, {}))
    dims_sec = section("dimensions")
    if missing := [key for key in ("n", "d0", "N") if key not in dims_sec.entries]:
        raise ValidationError(f"[dimensions] is missing {missing[0]!r}")
    dims = Dimensions(**{key: dims_sec.number(key, 0, int) for key in ("n", "d0", "d", "N")})
    n = dims.n

    consts = section("constants")
    delta = consts.number("delta", 0.0, float)
    chi0 = consts.array("chi0", np.zeros(n), (n,))
    lam = consts.coefficient("lambda", 1.0, (n, n))
    lam0 = consts.coefficient("lambda0", 1.0, (n, n))
    maturity = consts.read("maturity", False, _boolean)

    minor_doc = doc.get("minor", {})
    bundles = [_build_bundle(_Section("minor", b), dims) for b in
               (minor_doc if isinstance(minor_doc, list) else [minor_doc])]

    major = section("major")
    flow = MajorFlow(l0=major.coefficient("l0", 0.0, (n,)),
                     s0=major.coefficient("s0", 0.0, (n, dims.d0)))
    square = lambda key: major.read(key, 1.0, lambda v: coeff(v, (n, n), key).value)
    cost = QuadraticMajorCost(c0f=square("c0f"), h0f=major.affine("h0f", (n,)),
                              c0g=square("c0g"), h0g=major.affine("h0g", (n,)))

    noise = section("noise")
    kind = noise.entries.get("c0", "constant")
    if kind == "constant":
        c0_law = ("constant", noise.array("c0_value", np.zeros(n), (n,)))
    elif kind == "gaussian_walk":
        c0_law = ("gaussian_walk", noise.array("c0_start", np.zeros(n), (n,)),
                  noise.array("c0_drift", np.zeros(n), (n,)),
                  noise.array("c0_loading", np.zeros((n, dims.d0)), (n, dims.d0)))
    else:
        raise ValidationError(f"unknown c0 law {kind!r}")

    laws = section("laws")

    def law(name: str) -> DiscreteLaw:
        atoms = laws.array(f"{name}_atoms", np.zeros(n), (-1, n))
        return DiscreteLaw(atoms, laws.array(f"{name}_weights",
                                             np.ones(len(atoms)) / len(atoms), (-1,)))

    return ModelSpec(dims=dims, delta=delta, lambda_minor=lam, lambda_major=lam0,
                     minor=bundles, major_flow=flow, major_cost=cost, chi0=chi0,
                     xi_law=law("xi"), ci_law=law("ci") if "ci_atoms" in laws.entries else None,
                     c0_law=c0_law, maturity_mode=maturity)


def loads_model(text: str) -> ModelSpec:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text, parse_float=_finite, parse_constant=_finite)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"model file is not valid JSON: {exc}") from None
        _check_json_keys(doc)
        return _build_spec(doc)
    return _build_spec(_parse_text(text))


def load_model(path) -> ModelSpec:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"model file not found: {path}")
    return loads_model(path.read_text())
