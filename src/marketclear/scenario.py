"""Discrete-time, discrete-noise scenario lattices and adapted node fields.

The lattice is a non-recombining tree over the common Brownian motion: each
node is a full history of common shocks, so path-dependent coefficients and
exact conditional expectations come for free.  Idiosyncratic randomness is
carried by finite atoms for the initial positions and the per-agent exogenous
processes, which turns conditional means into finite sums.

Nodes are laid out breadth-first, so the children of the ``i``-th node of a
level occupy a contiguous block of the next level.  Conditional expectations
and forward propagation are plain reshapes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolationError, BudgetError, ValidationError

DEFAULT_NODE_BUDGET = 2**20

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _SPLITMIX_GAMMA) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def stream_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for a named substream of ``seed``.

    Streams derived from the same seed but different ``stream`` tuples are
    independent, and the draw for a given tuple does not depend on how many
    other streams exist or in which order they are consumed.
    """
    lane = 0
    for part in stream:
        lane = _splitmix64(lane ^ (int(part) & 0xFFFFFFFFFFFFFFFF))
    key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, lane], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k*T/K on [0, T]."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError("time grid needs at least one step")
        if self.horizon <= 0:
            raise ValidationError("horizon must be positive")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class IdiosyncraticAtoms:
    """Finite joint law of (initial position, idiosyncratic process path).

    ``ci`` holds one path per atom, one value per grid time: shape (A, K+1, n).
    """

    xi: np.ndarray        # (A, n)
    ci: np.ndarray        # (A, K+1, n)
    weights: np.ndarray   # (A,)

    def __post_init__(self):
        if len(self.weights) == 0:
            raise ValidationError("idiosyncratic law has no atoms")
        if np.any(self.weights <= 0):
            raise ValidationError("atom weights must be positive")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValidationError("atom weights must sum to 1")

    @property
    def count(self) -> int:
        return len(self.weights)


class NoiseLattice:
    """Non-recombining scenario tree for the common noise.

    Attributes
    ----------
    dW : (num_nodes, d0) increment of the common Brownian motion on the edge
        into each node (zeros for the root).
    edge_prob : probability of the edge into each node (1 for the root).
    path_prob : product of edge probabilities along the node's history.
    """

    def __init__(self, grid: TimeGrid, d0: int, branching: int = 2,
                 node_budget: int = DEFAULT_NODE_BUDGET,
                 atoms: IdiosyncraticAtoms | None = None):
        if branching not in (2, 3):
            raise ValidationError("branching must be 2 or 3")
        if d0 < 0:
            raise ValidationError("d0 must be nonnegative")
        K = grid.steps
        fanout = branching**d0
        counts = [fanout**k for k in range(K + 1)]
        total = int(sum(counts))
        if total > node_budget:
            raise BudgetError(
                f"lattice needs {total} nodes, budget is {node_budget}; "
                f"lower K/branching or raise the budget")

        self.grid = grid
        self.d0 = d0
        self.branching = branching
        self.fanout = fanout
        self.num_nodes = total
        self.atoms = atoms
        self._level_start = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

        dt = grid.dt
        if branching == 2:
            outcomes = np.array([np.sqrt(dt), -np.sqrt(dt)])
            probs = np.array([0.5, 0.5])
        else:
            outcomes = np.array([np.sqrt(3.0 * dt), 0.0, -np.sqrt(3.0 * dt)])
            probs = np.array([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])
        if d0 == 0:
            child_dw = np.zeros((1, 0))
            child_p = np.ones(1)
        else:
            combos = np.array(list(itertools.product(range(branching), repeat=d0)))
            child_dw = outcomes[combos]                  # (fanout, d0)
            child_p = probs[combos].prod(axis=1)         # (fanout,)
        self.child_dw = child_dw
        self.child_probs = child_p

        self.dW = np.zeros((total, d0))
        self.edge_prob = np.ones(total)
        self.path_prob = np.ones(total)
        self.parent = np.full(total, -1, dtype=np.int64)
        self.level_of = np.zeros(total, dtype=np.int64)
        for k in range(K + 1):
            lo, hi = self.level_range(k)
            self.level_of[lo:hi] = k
            if k == 0:
                continue
            plo, phi = self.level_range(k - 1)
            m = phi - plo
            self.parent[lo:hi] = np.repeat(np.arange(plo, phi), fanout)
            self.dW[lo:hi] = np.tile(child_dw, (m, 1))
            self.edge_prob[lo:hi] = np.tile(child_p, m)
            # fixed-order accumulation keeps path probabilities reproducible
            self.path_prob[lo:hi] = (self.path_prob[plo:phi, None] *
                                     np.tile(child_p, (m, 1))).reshape(-1)

    # -- layout helpers -------------------------------------------------

    @property
    def steps(self) -> int:
        return self.grid.steps

    @property
    def dt(self) -> float:
        return self.grid.dt

    def level_range(self, k: int) -> tuple[int, int]:
        return int(self._level_start[k]), int(self._level_start[k + 1])

    def level_slice(self, k: int) -> slice:
        lo, hi = self.level_range(k)
        return slice(lo, hi)

    def nodes_at(self, k: int) -> int:
        lo, hi = self.level_range(k)
        return hi - lo

    @property
    def terminal_slice(self) -> slice:
        return self.level_slice(self.steps)

    # -- field algebra ---------------------------------------------------

    def cond_expect(self, child_values: np.ndarray, k: int) -> np.ndarray:
        """Conditional expectation at level ``k`` of values on level ``k+1``.

        ``child_values`` covers level k+1 in layout order; the result covers
        level k.  Reduction order is fixed, so results are worker-independent.
        """
        m = self.nodes_at(k)
        vals = child_values.reshape((m, self.fanout) + child_values.shape[1:])
        w = self.child_probs.reshape((1, self.fanout) + (1,) * (vals.ndim - 2))
        return (vals * w).sum(axis=1)

    def repeat_to_children(self, parent_values: np.ndarray) -> np.ndarray:
        return np.repeat(parent_values, self.fanout, axis=0)

    def running_expectation(self, per_node: np.ndarray) -> float:
        """Probability- and dt-weighted sum over the non-terminal nodes."""
        cutoff = self.level_range(self.steps)[0]
        return self.dt * float(np.dot(self.path_prob[:cutoff], per_node[:cutoff]))

    def terminal_expectation(self, per_leaf: np.ndarray) -> float:
        """Probability-weighted sum of values given on the terminal level only."""
        return float(np.dot(self.path_prob[self.terminal_slice], per_leaf))

    def signature(self) -> tuple:
        return (self.grid.horizon, self.grid.steps, self.d0, self.branching)


def build_lattice(grid: TimeGrid, d0: int, branching: int = 2,
                  node_budget: int = DEFAULT_NODE_BUDGET,
                  atoms: IdiosyncraticAtoms | None = None) -> NoiseLattice:
    """Build the common-noise tree with exact two- or three-point increments."""
    return NoiseLattice(grid, d0, branching, node_budget, atoms)


@dataclass
class NodeField:
    """An adapted process: one value of fixed shape per lattice node."""

    lattice: NoiseLattice
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] != self.lattice.num_nodes:
            raise ValidationError(
                f"node field has {self.values.shape[0]} values for "
                f"{self.lattice.num_nodes} nodes")

    @property
    def item_shape(self) -> tuple:
        return self.values.shape[1:]

    def at_level(self, k: int) -> np.ndarray:
        return self.values[self.lattice.level_slice(k)]

    def root(self) -> np.ndarray:
        return self.values[0]


def constant_field(lattice: NoiseLattice, value) -> NodeField:
    value = np.asarray(value, dtype=float)
    vals = np.broadcast_to(value, (lattice.num_nodes,) + value.shape).copy()
    return NodeField(lattice, vals)


# -- exogenous processes --------------------------------------------------


@dataclass
class ExogenousFields:
    """Common exogenous symbols: c0 node by node, the fee matrices per time level."""

    c0: np.ndarray      # (num_nodes, n)
    lam: np.ndarray     # (K+1, n, n)  minor trading-fee matrix, SPD
    lam0: np.ndarray    # (K+1, n, n)  major trading-fee matrix, PSD
    lam_inv: np.ndarray  # (K+1, n, n)
    v0bar: np.ndarray   # (K+1, n, n)  (lam0 + 2 lam)^{-1}


def level_table(lattice: NoiseLattice, coefficient) -> np.ndarray:
    """A constant or time-dependent coefficient at every grid time: (K+1, *shape)."""
    return np.stack([coefficient.value_at_time(k * lattice.dt)
                     for k in range(lattice.steps + 1)])


def evaluate_exogenous(lattice: NoiseLattice, spec) -> ExogenousFields:
    """Materialize c0 on every node of the tree and the fee matrices per level.

    The c0 law is either constant or a Gaussian walk driven by the common
    increments; the fee matrices are constant or deterministic in time, so
    one matrix per time level serves all of its nodes.
    """
    n = spec.dims.n
    c0 = np.zeros((lattice.num_nodes, n))
    law = spec.c0_law
    if law[0] == "constant":
        c0[:] = np.asarray(law[1], dtype=float)
    elif law[0] == "gaussian_walk":
        start = np.asarray(law[1], dtype=float)
        drift = np.asarray(law[2], dtype=float)
        loading = np.asarray(law[3], dtype=float).reshape(n, lattice.d0)
        c0[0] = start
        dt = lattice.dt
        for k in range(1, lattice.steps + 1):
            lo, hi = lattice.level_range(k)
            par = lattice.parent[lo:hi]
            c0[lo:hi] = c0[par] + drift * dt + lattice.dW[lo:hi] @ loading.T
    else:
        raise ValidationError(f"unsupported c0 law kind {law[0]!r}")

    lam = level_table(lattice, spec.lambda_minor)
    lam0 = level_table(lattice, spec.lambda_major)

    try:
        np.linalg.cholesky(0.5 * (lam + lam.transpose(0, 2, 1)))
    except np.linalg.LinAlgError:
        raise AssumptionViolationError(
            "lambda loses positive definiteness at a time level")
    lam_inv = np.linalg.inv(lam)
    combo = lam0 + 2.0 * lam
    try:
        v0bar = np.linalg.inv(combo)
    except np.linalg.LinAlgError:
        raise AssumptionViolationError("lambda0 + 2*lambda is singular at a time level")
    return ExogenousFields(c0=c0, lam=lam, lam0=lam0, lam_inv=lam_inv, v0bar=v0bar)


def idiosyncratic_atoms(spec, grid: TimeGrid) -> IdiosyncraticAtoms:
    """Joint (xi, ci) atom law: product of the two marginal atom laws."""
    n = spec.dims.n
    xi_atoms = np.atleast_2d(np.asarray(spec.xi_law.atoms, dtype=float))
    xi_w = np.asarray(spec.xi_law.weights, dtype=float)
    if spec.ci_law is None:
        ci_atoms = np.zeros((1, n))
        ci_w = np.ones(1)
    else:
        ci_atoms = np.atleast_2d(np.asarray(spec.ci_law.atoms, dtype=float))
        ci_w = np.asarray(spec.ci_law.weights, dtype=float)
    A1, A2 = len(xi_w), len(ci_w)
    xi = np.repeat(xi_atoms, A2, axis=0)
    ci = np.tile(ci_atoms, (A1, 1))
    w = (xi_w[:, None] * ci_w[None, :]).reshape(-1)
    ci_paths = np.broadcast_to(ci[:, None, :], (A1 * A2, grid.steps + 1, n)).copy()
    return IdiosyncraticAtoms(xi=xi, ci=ci_paths, weights=w)


def sample_idiosyncratic(law: IdiosyncraticAtoms, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` i.i.d. atom indices, one independent stream per draw.

    Draw ``i`` depends only on (seed, i): adding or removing other agents, or
    reordering the loop, never changes it.
    """
    if law.count == 0:
        raise ValidationError("empty idiosyncratic law")
    cdf = np.cumsum(law.weights)
    cdf[-1] = 1.0
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        u = stream_rng(seed, i).random()
        out[i] = int(np.searchsorted(cdf, u, side="right"))
    return out
