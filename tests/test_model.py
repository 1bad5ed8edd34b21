from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketclear.errors import ValidationError
from marketclear.finite_market import MarketContext
from marketclear.model import (CallableMajorCost, CoefficientSpec, Dimensions,
                               DiscreteLaw, MajorFlow, MinorBundle, QuadraticMajorCost,
                               check_all_assumptions, make_spec)
from marketclear.scenario import TimeGrid, build_lattice
from marketclear.modelfile import loads_model

from conftest import scalar_market_spec
from hamiltonian_oracle import agent_bundle, eval_point


def unit_dims(N=1):
    return Dimensions(n=1, d0=1, d=0, N=N)


def two_bundles(delta, cg):
    """A two-agent scalar model whose agents' terminal curvatures are ``cg``."""
    dims = unit_dims(N=2)
    return make_spec(dims, delta=delta, minor=[MinorBundle.build(dims, cg=c) for c in cg])


# -- terminal-coupling constant and the minor clauses ------------------------
#
# The witness c of the terminal-coupling clause is the mean of the cg values,
# so the pinned constants a = delta/(1-delta) max ||c - cg|| come from models
# whose spread of cg gives them.


def test_zero_discount_forces_zero_coupling_constant() -> None:
    # the cg values 1 and 9 sit 4 away from their mean 5
    rep = check_all_assumptions(two_bundles(0.0, (1.0, 9.0)))
    assert rep.a_const == 0.0
    assert rep.passed["minor_B"]


def test_exact_candidate_cancels_coupling() -> None:
    spec = make_spec(unit_dims(), delta=0.5, minor=MinorBundle.build(unit_dims(), cg=1.0))
    rep = check_all_assumptions(spec)
    assert rep.a_const == 0.0
    assert rep.gamma_g == pytest.approx(1.0)
    assert rep.passed["minor_B"]


def test_large_discount_with_bad_candidate_fails() -> None:
    # the cg values 1 and 3 sit 1 away from their mean 2: a = 9 * 1
    rep = check_all_assumptions(two_bundles(0.9, (1.0, 3.0)))
    assert rep.a_const == pytest.approx(9.0)
    assert not rep.passed["minor_B"]
    assert any("gamma_g" in msg for msg in rep.failures)


def test_default_candidate_is_mean_of_terminal_curvatures() -> None:
    spec = make_spec(unit_dims(), delta=0.5)
    rep = check_all_assumptions(spec)
    # cg constant 1.0, so the averaged candidate cancels exactly
    assert rep.a_const == pytest.approx(0.0)


def test_coupling_constant_monotone_in_discount() -> None:
    values = []
    for delta in (0.0, 0.2, 0.4, 0.6, 0.8):
        rep = check_all_assumptions(two_bundles(delta, (0.5, 1.5)))
        values.append(rep.a_const)
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_checks_are_pure() -> None:
    spec = scalar_market_spec()
    a = check_all_assumptions(spec).to_dict()
    b = check_all_assumptions(spec).to_dict()
    assert a == b


def test_malformed_coefficient_names_offender() -> None:
    with pytest.raises(ValidationError, match="cf"):
        MinorBundle.build(unit_dims(), cf=np.ones((2, 3)))


# -- major clauses ------------------------------------------------------------


def test_combined_fee_bound_passes() -> None:
    spec = make_spec(unit_dims(), lam=1.0, lam0=2.0)
    rep = check_all_assumptions(spec)
    assert rep.passed["major_i"]
    assert rep.combo_bounds[0] == pytest.approx(4.0)
    assert rep.combo_bounds[1] == pytest.approx(4.0)


def test_identity_terminal_gradient_unit_convexity() -> None:
    spec = make_spec(unit_dims(),
                     major_cost=QuadraticMajorCost.build(unit_dims(), c0g=1.0))
    rep = check_all_assumptions(spec)
    assert rep.gamma0_g == pytest.approx(1.0)


def test_concave_callable_running_cost_fails_clause_v() -> None:
    cost = CallableMajorCost(dfdx=lambda t, x, c0: -x, dgdx=lambda x, c0: x)
    spec = make_spec(unit_dims(), major_cost=cost)
    rep = check_all_assumptions(spec)
    assert rep.gamma0_f <= -1.0 + 1e-9
    assert not rep.passed["major_v"]


def test_singular_combined_fee_fails_with_witness() -> None:
    spec = make_spec(unit_dims(), lam=1.0, lam0=-2.0)
    rep = check_all_assumptions(spec)
    assert not rep.passed["major_i"]
    assert rep.failures


def test_margins_positive_when_all_clauses_pass() -> None:
    spec = scalar_market_spec(N=4)
    rep = check_all_assumptions(spec)
    assert rep.all_passed
    assert rep.beta1 > 0 and rep.mu1 > 0
    assert rep.beta1 == pytest.approx(min(rep.gamma0_f / 4, rep.gamma_f))
    assert rep.mu1 == pytest.approx(min(rep.gamma0_g / 4, rep.gamma_g - rep.a_const))


def test_maturity_mode_skips_terminal_convexity() -> None:
    spec = make_spec(unit_dims(), delta=0.9, maturity_mode=True)
    rep = check_all_assumptions(spec)
    assert rep.all_passed
    assert rep.skipped


# -- coefficient specs ---------------------------------------------------------


def test_affine_coefficient_evaluates_both_channels() -> None:
    spec = CoefficientSpec("affine", (2,), const=[1.0, 0.0],
                           c0_mat=[[1.0, 0.0], [0.0, 0.0]],
                           ci_mat=[[0.0, 0.0], [0.0, 2.0]])
    out = eval_point(spec, 0.0, np.array([3.0, 9.0]), np.array([0.0, 1.5]))
    assert out == pytest.approx([4.0, 3.0])


def test_time_table_is_left_continuous() -> None:
    spec = CoefficientSpec("time", (1,), times=[0.0, 0.5], values=[[1.0], [2.0]])
    assert spec.value_at_time(0.25)[0] == 1.0
    assert spec.value_at_time(0.5)[0] == 2.0
    assert spec.value_at_time(0.9)[0] == 2.0


@pytest.mark.parametrize("times", [[0.0, 0.6, 0.3], [0.0, 0.3, 0.3], [0.0, np.nan],
                                   [0.0, np.inf]],
                         ids=["unordered", "repeated", "nan", "inf"])
def test_time_table_times_must_be_finite_and_increasing(times) -> None:
    # an unordered table would be read wrongly by the left-continuous lookup
    values = [[[1.0]], [[2.0]], [[-3.0]]][:len(times)]
    with pytest.raises(ValidationError, match="cf: time table times must be finite and "
                                              "strictly increasing"):
        CoefficientSpec("time", (1, 1), times=times, values=values, name="cf")


def test_matrix_coefficients_validated_at_the_boundary() -> None:
    dims = Dimensions(2, 1, 0, 2)
    affine = CoefficientSpec("affine", (2,), const=[1.0, 1.0], c0_mat=np.eye(2), name="x")
    wrong_shape = CoefficientSpec("time", (1, 1), times=[0.0], values=[[[1.0]]], name="x")
    with pytest.raises(ValidationError, match="lambda0"):
        make_spec(dims, lam0=affine)
    with pytest.raises(ValidationError, match="lambda"):
        make_spec(dims, lam=wrong_shape)
    bundle = MinorBundle.build(dims)
    bundle.cg = wrong_shape
    with pytest.raises(ValidationError, match="minor bundle 1: cg"):
        make_spec(dims, minor=[MinorBundle.build(dims), bundle])
    timed = CoefficientSpec("time", (2, 2), times=[0.0, 0.5],
                            values=[np.eye(2), 2 * np.eye(2)], name="cf")
    make_spec(dims, lam=timed, minor=MinorBundle.build(dims, cf=timed, cg=timed))


# -- model files ---------------------------------------------------------------


TEXT_MODEL = """
[dimensions]
n = 1
d0 = 1
d = 0
N = 2

[constants]
delta = 0.25
chi0 = 0.3
lambda = 1.3
lambda0 = 0.7

[minor]
l = 0.2
sigma0 = 0.5
cf = 1.1
hf = 0.3
cg = 0.9
hg = -0.2

[major]
l0 = 0.1
s0 = 0.4
c0f = 0.8
h0f = 0.15
c0g = 1.2
h0g = 0.05

[noise]
c0 = constant
c0_value = 0.1

[laws]
xi_atoms = 0.5 1.5
xi_weights = 0.5 0.5
"""


def test_text_model_parses() -> None:
    spec = loads_model(TEXT_MODEL)
    assert spec.dims.N == 2
    assert spec.delta == 0.25
    assert spec.lambda_minor.value[0, 0] == pytest.approx(1.3)
    assert spec.xi_law.atoms.shape == (2, 1)


def test_json_model_equivalent_to_text() -> None:
    doc = {
        "dimensions": {"n": 1, "d0": 1, "d": 0, "N": 2},
        "constants": {"delta": 0.25, "chi0": [0.3], "lambda": 1.3, "lambda0": 0.7},
        "minor": {"l": 0.2, "sigma0": 0.5, "cf": 1.1, "hf": 0.3, "cg": 0.9, "hg": -0.2},
        "major": {"l0": 0.1, "s0": 0.4, "c0f": 0.8, "h0f": 0.15, "c0g": 1.2, "h0g": 0.05},
        "noise": {"c0": "constant", "c0_value": [0.1]},
        "laws": {"xi_atoms": [[0.5], [1.5]], "xi_weights": [0.5, 0.5]},
    }
    a = loads_model(TEXT_MODEL)
    b = loads_model(json.dumps(doc))
    assert a.delta == b.delta
    assert np.allclose(a.chi0, b.chi0)
    assert np.allclose(a.minor[0].cf.value, b.minor[0].cf.value)
    assert np.allclose(a.xi_law.atoms, b.xi_law.atoms)


def test_unknown_key_rejected() -> None:
    with pytest.raises(ValidationError, match="unknown key"):
        loads_model("[dimensions]\nn = 1\nd0 = 1\nd = 0\nN = 1\nbogus = 2\n")


def test_unknown_section_rejected() -> None:
    with pytest.raises(ValidationError, match="unknown section"):
        loads_model("[nonsense]\nx = 1\n")


def test_json_unknown_key_rejected() -> None:
    doc = {"dimensions": {"n": 1, "d0": 1, "d": 0, "N": 1, "bogus": 1}}
    with pytest.raises(ValidationError, match="unknown keys"):
        loads_model(json.dumps(doc))


def test_malformed_json_model_is_a_validation_error() -> None:
    with pytest.raises(ValidationError, match="not valid JSON"):
        loads_model('{"dimensions": {"n": 1,')


def test_heterogeneous_bundles_via_json() -> None:
    doc = {
        "dimensions": {"n": 1, "d0": 1, "d": 0, "N": 2},
        "minor": [{"cf": 1.0}, {"cf": 2.0}],
        "laws": {"xi_atoms": [[1.0]], "xi_weights": [1.0]},
    }
    spec = loads_model(json.dumps(doc))
    assert not spec.homogeneous
    assert agent_bundle(spec, 1).cf.value[0, 0] == 2.0


def _two_assets(section, key, value) -> str:
    doc = json.loads((Path(__file__).resolve().parent.parent / "models" / "two_assets.json")
                     .read_text())
    doc[section][key] = value
    return json.dumps(doc)


@pytest.mark.parametrize("section, key, value, message", [
    *(("constants", "maturity", v, "expected true or false") for v in ("false", "true", 1, None)),
    *(("dimensions", k, v, "expected one integral number")
      for k, v in (("N", 8.7), ("n", [2, 3]), ("d0", "1"), ("N", True))),
])
def test_json_entry_of_another_form_is_refused(section, key, value, message) -> None:
    with pytest.raises(ValidationError, match=rf"\[{section}\] {key}: {message}"):
        loads_model(_two_assets(section, key, value))


def test_json_maturity_boolean_loads() -> None:
    assert loads_model(_two_assets("constants", "maturity", True)).maturity_mode is True
    assert loads_model(_two_assets("constants", "maturity", False)).maturity_mode is False


def test_text_dimensions_must_be_integral() -> None:
    with pytest.raises(ValidationError, match=r"\[dimensions\] N: expected one integral"):
        loads_model(TEXT_MODEL.replace("N = 2", "N = 8.7"))
    with pytest.raises(ValidationError, match=r"\[dimensions\] n: expected one integral"):
        loads_model(TEXT_MODEL.replace("n = 1", "n = 1 2"))
    assert loads_model(TEXT_MODEL.replace("N = 2", "N = 8.0")).dims.N == 8
    assert loads_model(_two_assets("dimensions", "N", 4.0)).dims.N == 4


def test_law_weights_validated() -> None:
    with pytest.raises(ValidationError):
        DiscreteLaw(np.array([[0.0], [1.0]]), np.array([0.7, 0.7]))


# -- shapes are checked where the model is built ------------------------------

# every coefficient and c0-law entry that is not a fee or cost-curvature
# matrix, with its shape in the dimensions n, d0 and d
ENTRIES = {"l": ("n",), "sigma0": ("n", "d0"), "sigma": ("n", "d"), "hf": ("n",),
           "hg": ("n",), "l0": ("n",), "s0": ("n", "d0"), "h0f": ("n",), "h0g": ("n",),
           "c0f": ("n", "n"), "c0g": ("n", "n"), "c0_value": ("n",), "c0_start": ("n",),
           "c0_drift": ("n",), "c0_loading": ("n", "d0")}
VECTORS = ("l", "hf", "hg", "h0f", "h0g")


def spec_with(dims, entries: dict):
    """``make_spec`` on ``dims`` with the given entries, each a raw array or a coefficient."""
    minor = {k: entries[k] for k in ("l", "sigma0", "sigma", "hf", "hg") if k in entries}
    major = {k: entries[k] for k in ("c0f", "h0f", "c0g", "h0g") if k in entries}
    if "c0_value" in entries:
        c0_law = ("constant", entries["c0_value"])
    else:
        c0_law = ("gaussian_walk", *(entries.get(k, np.zeros(shape)) for k, shape in (
            ("c0_start", (dims.n,)), ("c0_drift", (dims.n,)),
            ("c0_loading", (dims.n, dims.d0)))))
    return make_spec(dims, minor=MinorBundle.build(dims, **minor),
                     major_flow=MajorFlow.build(dims, **{k: entries[k] for k in ("l0", "s0")
                                                         if k in entries}),
                     major_cost=QuadraticMajorCost(**{
                         "c0f": np.eye(dims.n), "h0f": CoefficientSpec.constant(0.0, (dims.n,)),
                         "c0g": np.eye(dims.n), "h0g": CoefficientSpec.constant(0.0, (dims.n,)),
                         **major}),
                     c0_law=c0_law)


@settings(derandomize=True, max_examples=120)
@given(st.integers(1, 2), st.integers(0, 2), st.integers(0, 1), st.sampled_from(sorted(ENTRIES)),
       st.data())
def test_a_malformed_entry_is_refused_at_build(n, d0, d, name, data) -> None:
    # one entry with a wrong n, d0 or d is a ValidationError where the model is
    # built, never a numpy error later; the well-formed model builds and its
    # context materializes
    dims = Dimensions(n, d0, d, 2)
    sizes = {"n": n, "d0": d0, "d": d}
    shape = tuple(sizes[a] for a in ENTRIES[name])
    wrong = data.draw(st.sampled_from(sorted(set(ENTRIES[name]))), label="wrong axis")
    bad = tuple(size + (axis == wrong) for axis, size in zip(ENTRIES[name], shape))
    affine = name in VECTORS and data.draw(st.booleans(), label="affine")
    loading = data.draw(st.booleans(), label="wrong loading") if affine else False

    def entry(shape, loading_cols):
        if name in ("c0f", "c0g"):
            return np.eye(*shape)
        if name.startswith("c0_"):
            return np.full(shape, 0.5)
        if affine:
            return CoefficientSpec("affine", shape, const=np.full(shape, 0.1),
                                   c0_mat=np.full(shape + (loading_cols,), 0.1), name=name)
        return CoefficientSpec.constant(0.0 if name == "sigma" else 0.2, shape, name)

    good = spec_with(dims, {name: entry(shape, n)})
    MarketContext(good, build_lattice(TimeGrid(1.0, 1), d0=d0), force=True)
    message = f"c0 law {name[3:]}" if name.startswith("c0_") else name
    with pytest.raises(ValidationError, match=message):
        spec_with(dims, {name: entry(shape, n + 1) if loading else entry(bad, n)})


def test_c0_law_entries_take_their_shapes() -> None:
    dims = unit_dims()
    spec = make_spec(dims, c0_law=("gaussian_walk", [0.1], [0.0], [[0.3]]))
    assert all(isinstance(e, np.ndarray) and e.dtype == float for e in spec.c0_law[1:])
    with pytest.raises(ValidationError, match="c0 law"):
        make_spec(dims, c0_law=("gaussian_walk", [0.0], [0.0], [1.0, 2.0, 3.0]))
    with pytest.raises(ValidationError, match="c0 law"):
        make_spec(dims, c0_law=("gaussian_walk", [0.0], [0.0], [[1.0], [2.0, 3.0]]))


def test_bundle_of_another_noise_dimension_is_refused() -> None:
    # a bundle built for d0 = 2 inside a d0 = 1 model
    other = Dimensions(1, 2, 0, 1)
    with pytest.raises(ValidationError, match="sigma0"):
        make_spec(unit_dims(), minor=MinorBundle.build(other, sigma0=[[0.1, 0.2]]))


@pytest.mark.parametrize("d0", [0, 2])
def test_context_refuses_a_lattice_of_another_noise_dimension(d0) -> None:
    spec = make_spec(unit_dims(), c0_law=("gaussian_walk", [0.1], [0.0], [[0.3]]))
    with pytest.raises(ValidationError, match=f"lattice d0 = {d0} .* d0 = 1"):
        MarketContext(spec, build_lattice(TimeGrid(1.0, 2), d0=d0))
