from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from marketclear.model import CallableMajorCost, Dimensions, DiscreteLaw, make_spec
from marketclear.scenario import TimeGrid, build_lattice

# every property test is reproducible: each keeps only its own max_examples
settings.register_profile("properties", deadline=None, derandomize=True, database=None)
settings.load_profile("properties")


def noiseless_unit_spec():
    """n=1, N=1, no noise, unit coefficients, xi = 1: closed form Y = 2 - t."""
    dims = Dimensions(n=1, d0=0, d=0, N=1)
    return make_spec(dims, delta=0.0, xi_law=DiscreteLaw.point([1.0]))


def scalar_market_spec(delta=0.4, N=2, xi_atoms=((0.5,), (1.5,)), lam=1.3, lam0=0.7):
    """Scalar LQ benchmark with common noise and a two-atom initial law."""
    dims = Dimensions(n=1, d0=1, d=0, N=N)
    atoms = np.array(xi_atoms, dtype=float)
    weights = np.full(len(atoms), 1.0 / len(atoms))
    return make_spec(
        dims, delta=delta, lam=lam, lam0=lam0,
        xi_law=DiscreteLaw(atoms, weights),
        c0_law=("gaussian_walk", [0.2], [0.1], [[0.3]]),
        chi0=[0.3])


def callable_twin(spec, a=0.0):
    """The spec with its quadratic major cost as callable gradients, plus ``a tanh(x)``."""
    cost, zero = spec.major_cost, np.zeros(spec.dims.n)
    return replace(spec, major_cost=CallableMajorCost(
        dfdx=lambda t, x, c0: cost.c0f @ x + cost.h0f.eval_point(t, c0, zero) + a * np.tanh(x),
        dgdx=lambda x, c0: cost.c0g @ x + cost.h0g.eval_point(0.0, c0, zero) + a * np.tanh(x)))


def homogeneous_study_spec(N=8, delta=0.3):
    """Homogeneous scalar model with a two-atom initial law, constant news."""
    dims = Dimensions(n=1, d0=1, d=0, N=N)
    return make_spec(
        dims, delta=delta,
        xi_law=DiscreteLaw(np.array([[0.0], [2.0]]), np.array([0.5, 0.5])),
        c0_law=("constant", [0.1]))


@pytest.fixture
def chain_lattice_64():
    return build_lattice(TimeGrid(1.0, 64), d0=0)


@pytest.fixture
def small_tree():
    return build_lattice(TimeGrid(1.0, 4), d0=1)
