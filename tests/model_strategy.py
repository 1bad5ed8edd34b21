"""One Hypothesis strategy for the market models of the property tests.

``shapes`` draws a ``Shape``: n in {1, 2}, d0 in {0, 1, 2}, a binary or
trinomial tree of K <= 3 steps and at most ``MAX_NODES`` nodes, a horizon
in {1, 2, 4}, maturity mode, the population of up to 12 agents and the form
of the major cost.  ``build`` turns a shape into ``(spec, lattice)`` and
draws every coefficient from the shape's seed:

- fee and cost matrices symmetric positive definite (cg's floor may come
  near 0), each constant or switching value once in time;
- vector coefficients constant or affine in the common news c0 and the
  idiosyncratic value ci, a major flow ``l0``/``s0``;
- one shared minor bundle, or 1-5 cost classes of 1-3 bundles sharing
  their cf and cg, one bundle per agent, in permuted order;
- xi atoms on a continuous range or on the grid {-1, 0, 1} (ties), weights
  uniform, random or the agents' ``counts/N``, and an optional ci law (at
  most one atom under count weights, so the law stays the agents' one);
- a quadratic major cost, or its gradients as a callable plus ``a tanh(x)``.

A solvable shape meets the standing assumptions by construction: the
discount keeps the terminal coupling constant below the floor of cg.  An
unsolvable one draws the discount up to 0.9 whatever cg is, so its context
must be forced.  A test pins a keyword where it needs one value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from conftest import callable_twin
from marketclear.model import (CoefficientSpec, Dimensions, DiscreteLaw, MajorFlow,
                               MinorBundle, QuadraticMajorCost, make_spec)
from marketclear.scenario import TimeGrid, build_lattice

MAX_NODES = 200
EIG_MAX = 2.1  # with lo = 0.4: every I + S and 1.5 I + S, S symmetric 2x2, |S_ij| <= 0.3


@dataclass(frozen=True)
class Shape:
    """What hypothesis draws of a model; ``build`` draws the rest from ``seed``."""

    n: int
    d0: int
    branching: int
    steps: int
    seed: int
    assignments: tuple = (0, 1)   # the agents' atoms; its length is N
    horizon: float = 1.0
    maturity: bool = False
    classes: tuple | None = None  # bundles per cost class; None: one shared bundle
    xi_atoms: int = 3
    ci_atoms: int = 2             # 0: no ci law
    weights: str = "uniform"      # of the xi law: "uniform", "random" or "counts"
    ties: bool = False
    tanh: float | None = None     # None: a quadratic major cost
    solvable: bool = True
    varied: bool = False          # every vector coefficient affine


def spd(rng, n: int, lo: float = 0.4) -> np.ndarray:
    """A symmetric matrix with eigenvalues drawn in [lo, EIG_MAX], in a random basis."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * rng.uniform(lo, EIG_MAX, n)) @ q.T


def matrix(rng, n: int, horizon: float, name: str, lo: float = 0.4) -> CoefficientSpec:
    """An ``spd`` coefficient, constant or switching value at a time in (0, horizon)."""
    if rng.random() < 0.5:
        return CoefficientSpec("constant", (n, n), value=spd(rng, n, lo), name=name)
    return CoefficientSpec("time", (n, n), times=[0.0, rng.uniform(0.05, 0.95) * horizon],
                           values=[spd(rng, n, lo), spd(rng, n, lo)], name=name)


def vector(rng, n: int, name: str, affine: bool) -> CoefficientSpec:
    """A vector coefficient affine in the common news c0 and ci, or maybe constant."""
    const = rng.uniform(-1, 1, n)
    if not affine and rng.random() < 0.5:
        return CoefficientSpec("constant", (n,), value=const, name=name)
    return CoefficientSpec("affine", (n,), const=const, c0_mat=rng.uniform(-0.5, 0.5, (n, n)),
                           ci_mat=rng.uniform(-0.5, 0.5, (n, n)), name=name)


def _discount(rng, shape: Shape, cgs) -> float:
    """delta whose coupling delta/(1-delta) * max |mean(cg) - cg| stays below cg's floor.

    The widest gap between two values of cg bounds every value's gap to their mean.
    """
    cap = 0.6 if shape.solvable else 0.9
    values = [v for c in cgs for v in (c.values if c.kind == "time" else [c.value])]
    spread = max(np.linalg.norm(a - b, 2) for a in values for b in values)
    if shape.solvable and not shape.maturity and spread > 0:
        floor = min(np.linalg.eigvalsh(v)[0] for v in values)
        cap = min(cap, floor / (floor + spread))
    return rng.uniform(0.0, cap)


def _weights(rng, kind: str, count: int, assignments) -> np.ndarray:
    if kind == "counts":
        return np.bincount(assignments, minlength=count) / len(assignments)
    w = np.full(count, 1.0) if kind == "uniform" else rng.uniform(0.05, 1.0, count)
    return w / w.sum()


def build(shape: Shape):
    """The shape's ``(spec, lattice)``, every coefficient drawn from ``shape.seed``."""
    rng = np.random.default_rng(shape.seed)
    n, d0, T, N = shape.n, shape.d0, shape.horizon, len(shape.assignments)
    dims = Dimensions(n, d0, 0, N)
    vec = lambda name: vector(rng, n, name, shape.varied)
    bundles, cgs = [], []
    for size in shape.classes or (1,):
        cf, cg = matrix(rng, n, T, "cf"), matrix(rng, n, T, "cg", lo=0.0)
        cgs.append(cg)
        bundles += [MinorBundle.build(dims, l=vec("l"), cf=cf, cg=cg, hf=vec("hf"), hg=vec("hg"),
                                      sigma0=rng.uniform(-0.5, 0.5, (n, d0)))
                    for _ in range(size)]
    xi = (rng.integers(-1, 2, (shape.xi_atoms, n)).astype(float) if shape.ties
          else rng.uniform(-2, 2, (shape.xi_atoms, n)))
    ci_kind = "uniform" if shape.ci_atoms == 1 or rng.random() < 0.5 else "random"
    c0_law = (("gaussian_walk", rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
               rng.uniform(-1, 1, (n, d0))) if d0 else ("constant", rng.uniform(-1, 1, n)))
    spec = make_spec(
        dims, delta=_discount(rng, shape, cgs), lam=matrix(rng, n, T, "lambda"),
        lam0=matrix(rng, n, T, "lambda0"),
        minor=[bundles[i] for i in rng.permutation(len(bundles))],
        major_flow=MajorFlow.build(dims, l0=rng.uniform(-1, 1, n),
                                   s0=rng.uniform(-0.5, 0.5, (n, d0))),
        major_cost=QuadraticMajorCost.build(dims, c0f=spd(rng, n), h0f=vec("h0f"),
                                            c0g=spd(rng, n), h0g=vec("h0g")),
        chi0=rng.uniform(-1, 1, n), c0_law=c0_law, maturity_mode=shape.maturity,
        xi_law=DiscreteLaw(xi, _weights(rng, shape.weights, shape.xi_atoms, shape.assignments)),
        ci_law=(DiscreteLaw(rng.uniform(-1, 1, (shape.ci_atoms, n)),
                            _weights(rng, ci_kind, shape.ci_atoms, None))
                if shape.ci_atoms else None))
    if shape.tanh is not None:
        spec = callable_twin(spec, shape.tanh)
    lattice = build_lattice(TimeGrid(T, shape.steps), d0=d0, branching=shape.branching)
    return spec, lattice


@st.composite
def shapes(draw, *, n=None, d0=None, branching=None, maturity=None, homogeneous=None,
           weights=None, major=None, solvable=True, varied=False) -> Shape:
    """A ``Shape``; a keyword given pins that choice, ``solvable=False`` widens delta.

    ``varied`` makes every vector coefficient affine and gives ci 2-3 atoms
    (so no count weights), so that every constant differs between atoms.
    """
    pick = lambda value, choices: draw(st.sampled_from(choices)) if value is None else value
    n, d0 = pick(n, (1, 2)), pick(d0, (0, 1, 2))
    branching, maturity = pick(branching, (2, 3)), pick(maturity, (False, True))
    steps = draw(st.integers(1, 3))
    while steps > 1 and sum((branching**d0)**k for k in range(steps + 1)) > MAX_NODES:
        steps -= 1
    classes = (None if pick(homogeneous, (True, False))
               else tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))))
    weights = pick(weights, ("uniform", "random") + (() if varied else ("counts",)))
    counts = weights == "counts"   # every atom is some agent's, ci has at most one atom
    xi_atoms = draw(st.integers(1, min(6, sum(classes)) if counts and classes else 6))
    N = sum(classes) if classes else draw(st.integers(xi_atoms if counts else 1, 12))
    ci_atoms = draw(st.integers(2 if varied else 0, 1 if counts else 3))
    if counts:
        cuts = draw(st.lists(st.integers(1, max(N - 1, 1)), min_size=xi_atoms - 1,
                             max_size=xi_atoms - 1, unique=True))
        assignments = np.repeat(np.arange(xi_atoms), np.diff([0, *sorted(cuts), N]))
    else:
        atoms = xi_atoms * max(ci_atoms, 1)
        assignments = draw(st.lists(st.integers(0, atoms - 1), min_size=N, max_size=N))
    tanh = (None if pick(major, ("quadratic", "callable")) == "quadratic"
            else draw(st.one_of(st.just(0.0), st.floats(0.05, 1.0))))
    return Shape(n=n, d0=d0, branching=branching, steps=steps,
                 seed=draw(st.integers(0, 2**32 - 1)),
                 assignments=tuple(int(a) for a in assignments),
                 horizon=draw(st.sampled_from((1.0, 2.0, 4.0))), maturity=maturity,
                 classes=classes, xi_atoms=xi_atoms, ci_atoms=ci_atoms, weights=weights,
                 ties=draw(st.booleans()), tanh=tanh, solvable=solvable, varied=varied)
