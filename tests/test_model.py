from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from marketclear.errors import ValidationError
from marketclear.model import (CallableMajorCost, CoefficientSpec, Dimensions,
                               DiscreteLaw, MinorBundle, QuadraticMajorCost,
                               check_all_assumptions, check_major_assumptions,
                               check_minor_assumptions, make_spec)
from marketclear.modelfile import loads_model

from conftest import scalar_market_spec
from hamiltonian_oracle import agent_bundle, eval_point


def unit_dims(N=1):
    return Dimensions(n=1, d0=1, d=0, N=N)


# -- terminal-coupling constant and the minor clauses ------------------------


def test_zero_discount_forces_zero_coupling_constant() -> None:
    spec = make_spec(unit_dims(), delta=0.0)
    rep = check_minor_assumptions(spec, candidate_c=np.array([[5.0]]))
    assert rep.a_const == 0.0
    assert rep.passed["minor_B"]


def test_exact_candidate_cancels_coupling() -> None:
    spec = make_spec(unit_dims(), delta=0.5, minor=MinorBundle.build(unit_dims(), cg=1.0))
    rep = check_minor_assumptions(spec, candidate_c=np.array([[1.0]]))
    assert rep.a_const == 0.0
    assert rep.gamma_g == pytest.approx(1.0)
    assert rep.passed["minor_B"]


def test_large_discount_with_bad_candidate_fails() -> None:
    spec = make_spec(unit_dims(), delta=0.9, minor=MinorBundle.build(unit_dims(), cg=1.0))
    rep = check_minor_assumptions(spec, candidate_c=np.array([[0.0]]))
    assert rep.a_const == pytest.approx(9.0)
    assert not rep.passed["minor_B"]
    assert any("gamma_g" in msg for msg in rep.failures)


def test_default_candidate_is_mean_of_terminal_curvatures() -> None:
    spec = make_spec(unit_dims(), delta=0.5)
    rep = check_minor_assumptions(spec)
    # cg constant 1.0, so the averaged candidate cancels exactly
    assert rep.a_const == pytest.approx(0.0)


def test_coupling_constant_monotone_in_discount() -> None:
    values = []
    for delta in (0.0, 0.2, 0.4, 0.6, 0.8):
        spec = make_spec(unit_dims(), delta=delta)
        rep = check_minor_assumptions(spec, candidate_c=np.array([[0.5]]))
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
    rep = check_major_assumptions(spec)
    assert rep.passed["major_i"]
    assert rep.combo_bounds[0] == pytest.approx(4.0)
    assert rep.combo_bounds[1] == pytest.approx(4.0)


def test_identity_terminal_gradient_unit_convexity() -> None:
    spec = make_spec(unit_dims(),
                     major_cost=QuadraticMajorCost.build(unit_dims(), c0g=1.0))
    rep = check_major_assumptions(spec)
    assert rep.gamma0_g == pytest.approx(1.0)


def test_concave_callable_running_cost_fails_clause_v() -> None:
    cost = CallableMajorCost(dfdx=lambda t, x, c0: -x, dgdx=lambda x, c0: x)
    spec = make_spec(unit_dims(), major_cost=cost)
    rep = check_major_assumptions(spec)
    assert rep.gamma0_f <= -1.0 + 1e-9
    assert not rep.passed["major_v"]


def test_singular_combined_fee_fails_with_witness() -> None:
    spec = make_spec(unit_dims(), lam=1.0, lam0=-2.0)
    rep = check_major_assumptions(spec)
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
