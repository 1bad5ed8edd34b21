"""Model files: a flat sectioned text format and an equivalent JSON rendering.

Text files hold sections [dimensions], [constants], [minor], [major],
[noise], [laws]; values are whitespace- or comma-separated numbers read
row-major into the shape each key requires.  Unknown sections and keys, and
numbers that are not finite, are rejected.  A file whose first non-space
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
        entries = body if isinstance(body, list) else [body]
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


def _affine_or_const(section: dict, base_key: str, shape, name):
    """Build a vector coefficient from base/[_c0]/[_ci] keys of a text section."""
    base = section.get(base_key, 0.0)
    c0_mat = section.get(base_key + "_c0")
    ci_mat = section.get(base_key + "_ci")
    if c0_mat is None and ci_mat is None:
        return coeff(np.asarray(base, dtype=float), shape, name)
    m, n = shape[0], shape[0]
    return CoefficientSpec(
        "affine", shape, const=np.asarray(base, dtype=float),
        c0_mat=None if c0_mat is None else np.asarray(c0_mat, dtype=float).reshape(m, n),
        ci_mat=None if ci_mat is None else np.asarray(ci_mat, dtype=float).reshape(m, n),
        name=name)


def _build_bundle(section: dict, dims: Dimensions) -> MinorBundle:
    n, d0, d = dims.n, dims.d0, dims.d
    return MinorBundle(
        l=_affine_or_const(section, "l", (n,), "l"),
        sigma0=_coeff_from(section.get("sigma0", 0.0), (n, d0), "sigma0"),
        sigma=_coeff_from(section.get("sigma", 0.0), (n, d), "sigma"),
        cf=_coeff_from(section.get("cf", 1.0), (n, n), "cf"),
        hf=_affine_or_const(section, "hf", (n,), "hf"),
        cg=_coeff_from(section.get("cg", 1.0), (n, n), "cg"),
        hg=_affine_or_const(section, "hg", (n,), "hg"),
    )


def _build_spec(doc: dict) -> ModelSpec:
    for required in ("dimensions",):
        if required not in doc:
            raise ValidationError(f"model file is missing the [{required}] section")
    dims_sec = doc["dimensions"]
    try:
        dims = Dimensions(n=int(np.ravel(dims_sec["n"])[0]),
                          d0=int(np.ravel(dims_sec["d0"])[0]),
                          d=int(np.ravel(dims_sec.get("d", 0))[0]),
                          N=int(np.ravel(dims_sec["N"])[0]))
    except KeyError as exc:
        raise ValidationError(f"[dimensions] is missing {exc}")
    n = dims.n

    consts = doc.get("constants", {})
    delta = float(np.ravel(consts.get("delta", 0.0))[0])
    chi0 = np.asarray(consts.get("chi0", np.zeros(n)), dtype=float).reshape(n)
    lam = _coeff_from(consts.get("lambda", 1.0), (n, n), "lambda")
    lam0 = _coeff_from(consts.get("lambda0", 1.0), (n, n), "lambda0")
    maturity = bool(consts.get("maturity", False))

    minor_doc = doc.get("minor", {})
    bundles = [_build_bundle(b, dims) for b in
               (minor_doc if isinstance(minor_doc, list) else [minor_doc])]

    major_doc = doc.get("major", {})
    flow = MajorFlow(l0=_coeff_from(major_doc.get("l0", 0.0), (n,), "l0"),
                     s0=_coeff_from(major_doc.get("s0", 0.0), (n, dims.d0), "s0"))
    cost = QuadraticMajorCost(
        c0f=_as_square(major_doc.get("c0f", 1.0), n, "c0f"),
        h0f=_affine_or_const(major_doc, "h0f", (n,), "h0f"),
        c0g=_as_square(major_doc.get("c0g", 1.0), n, "c0g"),
        h0g=_affine_or_const(major_doc, "h0g", (n,), "h0g"))

    noise = doc.get("noise", {})
    kind = noise.get("c0", "constant")
    if isinstance(kind, np.ndarray):
        raise ValidationError("noise.c0 must be 'constant' or 'gaussian_walk'")
    if kind == "constant":
        c0_law = ("constant", np.asarray(noise.get("c0_value", np.zeros(n)),
                                         dtype=float).reshape(n))
    elif kind == "gaussian_walk":
        c0_law = ("gaussian_walk",
                  np.asarray(noise.get("c0_start", np.zeros(n)), dtype=float).reshape(n),
                  np.asarray(noise.get("c0_drift", np.zeros(n)), dtype=float).reshape(n),
                  np.asarray(noise.get("c0_loading", np.zeros((n, dims.d0))),
                             dtype=float).reshape(n, dims.d0))
    else:
        raise ValidationError(f"unknown c0 law {kind!r}")

    laws = doc.get("laws", {})
    xi_atoms = np.asarray(laws.get("xi_atoms", np.zeros(n)), dtype=float).reshape(-1, n)
    xi_weights = np.asarray(laws.get("xi_weights", np.ones(len(xi_atoms)) / len(xi_atoms)),
                            dtype=float).reshape(-1)
    xi_law = DiscreteLaw(xi_atoms, xi_weights)
    ci_law = None
    if "ci_atoms" in laws:
        ci_atoms = np.asarray(laws["ci_atoms"], dtype=float).reshape(-1, n)
        ci_weights = np.asarray(laws.get("ci_weights", np.ones(len(ci_atoms)) / len(ci_atoms)),
                                dtype=float).reshape(-1)
        ci_law = DiscreteLaw(ci_atoms, ci_weights)

    return ModelSpec(dims=dims, delta=delta, lambda_minor=lam, lambda_major=lam0,
                     minor=bundles, major_flow=flow, major_cost=cost, chi0=chi0,
                     xi_law=xi_law, ci_law=ci_law, c0_law=c0_law,
                     maturity_mode=maturity)


def _as_square(value, n, name):
    arr = np.asarray(value, dtype=float)
    if arr.shape == ():
        return float(arr) * np.eye(n)
    return arr.reshape(n, n)


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
