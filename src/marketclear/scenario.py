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
import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolationError, BudgetError, ValidationError

DEFAULT_NODE_BUDGET = 2**20
WEIGHT_TOL = 1e-12  # how far a law's weights may sum from 1

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # round multipliers
_PHILOX_W = (_U64(0x9E3779B97F4A7C15), _U64(0xBB67AE8584CAA73B))  # key bumps
_DRAW_BLOCK = 1 << 10  # draws per block of Philox lanes; bounds their ~20 temporaries


def _splitmix64(x: int) -> int:
    x = (x + _SPLITMIX_GAMMA) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _splitmix64_lanes(x: np.ndarray) -> np.ndarray:
    """``_splitmix64`` of every element of a uint64 array (wrapping arithmetic)."""
    z = x + _U64(_SPLITMIX_GAMMA)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def _stream_key(seed: int, stream: tuple) -> list[int]:
    """The Philox key of a named substream of ``seed``."""
    lane = 0
    for part in stream:
        lane = _splitmix64(lane ^ (int(part) & 0xFFFFFFFFFFFFFFFF))
    return [int(seed) & 0xFFFFFFFFFFFFFFFF, lane]


def _mulhilo64(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product of each element of ``a`` and ``m``."""
    m_lo, m_hi = _U64(m & 0xFFFFFFFF), _U64(m >> 32)
    a_lo, a_hi = a & _LOW32, a >> _U64(32)
    lo_lo, lo_hi, hi_lo = a_lo * m_lo, a_lo * m_hi, a_hi * m_lo
    carry = (lo_lo >> _U64(32)) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    high = a_hi * m_hi + (lo_hi >> _U64(32)) + (hi_lo >> _U64(32)) + (carry >> _U64(32))
    return high, a * _U64(m)


def _philox_first(key0: np.ndarray, key1: np.ndarray) -> np.ndarray:
    """First 64-bit output of ``np.random.Philox(key=[key0, key1])``, per lane.

    A fresh generator's first ``random_raw`` is word 0 of Philox4x64-10 at
    counter (1, 0, 0, 0) (Salmon et al., SC'11): ten rounds, the key bumped
    by the Weyl constants before each round after the first.
    """
    c0 = np.ones_like(key0)
    c1 = c2 = c3 = np.zeros_like(key0)
    for r in range(10):
        if r:
            key0, key1 = key0 + _PHILOX_W[0], key1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo64(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo64(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0
    return c0


def _stream_uniforms(seeds: np.ndarray, streams: np.ndarray) -> np.ndarray:
    """``stream_rng(seeds[i], streams[i]).random()`` for every i, in one pass.

    The key of each pair is ``_stream_key`` on uint64 lanes, its first raw
    Philox output comes from ``_philox_first`` and is mapped to [0, 1) as
    ``Generator.random`` maps it, ``(raw >> 11) * 2**-53``.  Lanes run in
    blocks of ``_DRAW_BLOCK``, which bounds the temporaries.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    streams = np.asarray(streams, dtype=np.uint64)
    out = np.empty(seeds.shape[0])
    for lo in range(0, len(out), _DRAW_BLOCK):
        block = slice(lo, lo + _DRAW_BLOCK)
        raw = _philox_first(seeds[block], _splitmix64_lanes(streams[block]))
        out[block] = (raw >> _U64(11)).astype(np.float64) * 2.0**-53
    return out


def stream_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for a named substream of ``seed``.

    Streams derived from the same seed but different ``stream`` tuples are
    independent, and the draw for a given tuple does not depend on how many
    other streams exist or in which order they are consumed.
    """
    key = np.array(_stream_key(seed, stream), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def apply_block(mat: np.ndarray, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One (p, q) block applied to every node of an (m, q) or (m, B, q) array: (m, [B,] p).

    The product is one GEMM per flow, ``values[:, b] @ mat.T`` on the
    flows-first view, written to ``out`` if given.  A GEMM's rounding may
    depend on its row count, and here that count is the flow's own node
    count whatever the batch, so a flow of a batch gets the bytes it gets
    alone.  When ``out`` is None the result is flows-first in memory.
    """
    res = np.matmul(values.swapaxes(0, -2), mat.T,
                    out=None if out is None else out.swapaxes(0, -2))
    return res.swapaxes(0, -2)


def squared_norms(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of an (m, ...) array, over its trailing axes.

    A strided ``x`` is copied first: ``einsum`` can round a row of a view
    with three or more components differently from the same row of its copy.
    """
    x = np.ascontiguousarray(x)
    axes = "ijk"[:x.ndim - 1]
    return np.einsum(f"v{axes},v{axes}->v", x, x)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k*T/K on [0, T]."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError("time grid needs at least one step")
        if not 0 < self.horizon < math.inf:  # also refuses nan
            raise ValidationError(f"horizon must be finite and positive, got {self.horizon}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class IdiosyncraticAtoms:
    """Finite joint law of (initial position, idiosyncratic value), constant in time.

    Its weights sum to 1 as closely as the product of two laws whose sums
    each pass ``WEIGHT_TOL`` does (``idiosyncratic_atoms``): within twice
    that plus the round-off of forming and summing its A products.  The
    product's weights are kept as computed, not renormalized.
    """

    xi: np.ndarray        # (A, n)
    ci: np.ndarray        # (A, n)
    weights: np.ndarray   # (A,)

    def __post_init__(self):
        if len(self.weights) == 0:
            raise ValidationError("idiosyncratic law has no atoms")
        if np.any(self.weights <= 0):
            raise ValidationError("atom weights must be positive")
        tolerance = 2 * WEIGHT_TOL + 4 * (len(self.weights) + 1) * np.finfo(float).eps
        if abs(float(self.weights.sum()) - 1.0) > tolerance:
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
                 node_budget: int = DEFAULT_NODE_BUDGET):
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
        starts = np.concatenate([[0], np.cumsum(counts)]).tolist()
        self._levels = list(zip(starts[:-1], starts[1:]))  # (lo, hi) per level, as ints

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
        return self._levels[k]

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
        level k; trailing axes (a field's width, a batch of flows) ride along.
        Reduction order is fixed: the weighted children are added one by one
        in layout order, so a node's result depends neither on the worker nor
        on the trailing shape of the array it sits in.
        """
        return self._children_mean(child_values, self.nodes_at(k))

    def tree_cond_expect(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``cond_expect`` of every non-terminal node at once, bit for bit, from all nodes.

        The children of nodes 0..I-1 are nodes 1..N-1 in layout order: one
        reshape.  The result is written to ``out`` if given.
        """
        return self._children_mean(values[1:], self.level_range(self.steps)[0], out)

    def _children_mean(self, child_values: np.ndarray, m: int, out=None) -> np.ndarray:
        vals = child_values.reshape((m, self.fanout) + child_values.shape[1:])
        out = np.multiply(vals[:, 0], self.child_probs[0], out=out)
        for j in range(1, self.fanout):
            out += vals[:, j] * self.child_probs[j]
        return out

    def repeat_to_children(self, parent_values: np.ndarray) -> np.ndarray:
        return np.repeat(parent_values, self.fanout, axis=0)

    def edge_noise(self, loading: np.ndarray, k: int) -> np.ndarray:
        """``loading(v) dW`` on every child edge of level ``k``, in child layout.

        ``loading`` is (m|1, ..., d0) on the level's m nodes, or shared by
        them; the result is (m * fanout, ...).  Every parent's children carry
        the rows of ``child_dw``, so the product is d0 elementwise terms,
        added in component order.
        """
        m, d0 = self.nodes_at(k), self.d0
        trail = loading.shape[1:-1]
        if d0 == 0:
            return np.zeros((m,) + trail)
        dw = self.child_dw.reshape((1, self.fanout) + (1,) * len(trail) + (d0,))
        S = loading[:, None]
        out = S[..., 0] * dw[..., 0]
        for c in range(1, d0):
            out = out + S[..., c] * dw[..., c]
        if out.shape[0] != m:  # a loading shared by the level's nodes
            out = np.broadcast_to(out, (m,) + out.shape[1:])
        return out.reshape((-1,) + trail)

    def apply_levels(self, table: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``table[k] @ values(v)`` on every node v of every level k.

        ``table`` is a (K+1, p, q) level table and ``values`` a (nodes, [B,] q)
        node array; each level is one ``apply_block``.
        """
        out = np.empty(values.swapaxes(0, -2).shape[:-1] + table.shape[1:2]).swapaxes(0, -2)
        for k in range(self.steps + 1):
            sl = self.level_slice(k)
            apply_block(table[k], values[sl], out=out[sl])
        return out

    def running_expectation(self, per_node: np.ndarray) -> float:
        """Probability- and dt-weighted sum over the non-terminal nodes.

        A strided ``per_node`` is copied first: the dot product of a view can
        round differently from that of its contiguous copy.
        """
        cutoff = self.level_range(self.steps)[0]
        per_node = np.ascontiguousarray(per_node[:cutoff])
        return self.dt * float(np.dot(self.path_prob[:cutoff], per_node))

    def terminal_expectation(self, per_leaf: np.ndarray) -> float:
        """Probability-weighted sum of values given on the terminal level only.

        Like ``running_expectation``, it copies a strided ``per_leaf`` first.
        """
        per_leaf = np.ascontiguousarray(per_leaf)
        return float(np.dot(self.path_prob[self.terminal_slice], per_leaf))

    def signature(self) -> tuple:
        return (self.grid.horizon, self.grid.steps, self.d0, self.branching)


def build_lattice(grid: TimeGrid, d0: int, branching: int = 2,
                  node_budget: int = DEFAULT_NODE_BUDGET) -> NoiseLattice:
    """Build the common-noise tree with exact two- or three-point increments."""
    return NoiseLattice(grid, d0, branching, node_budget)


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


def idiosyncratic_atoms(spec) -> IdiosyncraticAtoms:
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
    return IdiosyncraticAtoms(xi=xi, ci=ci, weights=w)


def sample_idiosyncratic(law: IdiosyncraticAtoms, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` i.i.d. atom indices, one independent stream per draw.

    Draw ``i`` is the first ``stream_rng(seed, i).random()`` value: adding or
    removing other agents, or reordering the loop, never changes it.  The
    streams are those of ``stream_rng``, computed for all draws in one
    vectorised pass (``_stream_uniforms``) rather than one generator each.
    """
    return _draw_atoms(law, np.full(count, int(seed) & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64),
                      np.arange(count, dtype=np.uint64))


def _draw_atoms(law: IdiosyncraticAtoms, seeds: np.ndarray, streams: np.ndarray) -> np.ndarray:
    """The atom index drawn by each (seed, stream) pair, by inversion of the law's cdf."""
    cdf = np.cumsum(law.weights)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, _stream_uniforms(seeds, streams), side="right").astype(np.int64)
