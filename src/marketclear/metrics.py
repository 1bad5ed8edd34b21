"""Wasserstein distances, price gaps, and the population-convergence studies.

The reference side of every distance is the exact atom law carried by the
population-limit solution, so only the finite-population empirical side
fluctuates.  One-dimensional distances use the exact quantile coupling (any
weights), split in two: the interval structure (sort orders, merged
cumulative-weight breakpoints, widths and the atom held on each side of
every interval) and the sum of ``width * |xa - xb| ** power`` in interval
order.  Multi-dimensional ones use an exact assignment between equal-count
uniform clouds.  The convergence study prices every row on one basis: a
homogeneous finite market is the population limit on its empirical law,
whose price is affine in the atom weights, so the A atom prices, solved
together once, give every row's price gap.  Its distance terms compare two
weightings of the same atom values at every node, so a node's interval
structure depends on its values only through their sort order: the nodes
are sorted and grouped by order once per study, and each count row builds
one structure per order.  All agents' draws of all rows come from one
vectorised pass over their Philox streams.  The study takes the homogeneous
market's ``MarketContext``; ``stability_gap`` compares the contexts of two
models on one lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, UnsupportedModelError, ValidationError
from .fbsde import DirectSolver
from .finite_market import (MarketContext, _flow_and_price, build_full_system,
                            make_population, solve_full_equilibrium, stack_tables)
from .mean_field import MfgSolution, solve_mfg
from .scenario import (NodeField, NoiseLattice, apply_block, sample_idiosyncratic,
                       squared_norms, _draw_atoms, _splitmix64)

ATOM_BUDGET = 4096
AGENT_BUDGET = 4096
ZERO_GAP = 1e-14
_COUPLING_BLOCK = 1 << 16  # work-array elements per block of coupled columns


def derive_seed(seed: int, *parts: int) -> int:
    x = int(seed) & 0xFFFFFFFFFFFFFFFF
    for p in parts:
        x = _splitmix64(x ^ (int(p) & 0xFFFFFFFFFFFFFFFF))
    return x


@dataclass
class EmpiricalMeasure:
    """Finite atom cloud; uniform weights unless given."""

    atoms: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        if self.atoms.shape[0] > ATOM_BUDGET:
            raise BudgetError(f"at most {ATOM_BUDGET} atoms are supported")
        if self.weights is None:
            m = self.atoms.shape[0]
            self.weights = np.full(m, 1.0 / m)
        else:
            self.weights = np.asarray(self.weights, dtype=float)
            if len(self.weights) != self.atoms.shape[0]:
                raise ValidationError("weights and atoms disagree in length")
            if np.any(self.weights <= 0) or abs(self.weights.sum() - 1.0) > 1e-12:
                raise ValidationError("weights must be positive and sum to 1")

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def uniform(self) -> bool:
        m = self.atoms.shape[0]
        return bool(np.allclose(self.weights, 1.0 / m, rtol=0.0, atol=1e-15))

    def mean(self) -> np.ndarray:
        return self.weights @ self.atoms


def _quantile_coupling_cost(xa: np.ndarray, wa: np.ndarray, xb: np.ndarray,
                            wb: np.ndarray, power: int) -> np.ndarray:
    """Exact cost of the monotone coupling of two 1-d discrete laws, per column.

    ``xa`` (Aa, m) and ``xb`` (Ab, m) hold m pairs of atom clouds weighted by
    ``wa`` (Aa,) and ``wb`` (Ab,).  Each column gets its own interval
    structure.  Columns are processed in blocks that keep the (Aa + Ab,
    columns) work arrays near ``_COUPLING_BLOCK`` elements.
    """
    Aa, m = xa.shape
    out = np.empty(m)
    block = max(1, _COUPLING_BLOCK // (Aa + xb.shape[0]))
    for lo in range(0, m, block):
        cols = slice(lo, lo + block)
        widths, ja, jb = _interval_structure(xa[:, cols], wa, xb[:, cols], wb)
        out[cols] = _interval_sum(widths, np.take_along_axis(xa[:, cols], ja, axis=0),
                                  np.take_along_axis(xb[:, cols], jb, axis=0), power)
    return out


def _interval_structure(xa, wa, xb, wb):
    """Intervals of the quantile coupling through merged cumulative-weight breakpoints.

    Per column each side is sorted and its cumulative weights are the
    breakpoints where it moves to its next atom.  Between consecutive merged
    breakpoints both sides hold one atom each, the index being the count of
    that side's breakpoints already passed.  Returns the interval widths and
    the row of ``xa`` and of ``xb`` held on each interval, all (Aa + Ab, m).
    They depend on the values only through each column's sort orders.
    """
    Aa, Ab = xa.shape[0], xb.shape[0]
    oa = np.argsort(xa, axis=0, kind="stable")
    ob = np.argsort(xb, axis=0, kind="stable")
    breaks = np.concatenate([np.cumsum(wa[oa], axis=0), np.cumsum(wb[ob], axis=0)])
    order = np.argsort(breaks, axis=0, kind="stable")
    widths = np.diff(np.take_along_axis(breaks, order, axis=0), axis=0, prepend=0.0)
    from_a = order < Aa
    ia = np.cumsum(from_a, axis=0) - from_a
    ib = np.arange(Aa + Ab)[:, None] - ia
    # round-off can leave the last breakpoints of the two sides apart; the
    # sliver between them stays on each side's last atom
    np.minimum(ia, Aa - 1, out=ia)
    np.minimum(ib, Ab - 1, out=ib)
    return widths, np.take_along_axis(oa, ia, axis=0), np.take_along_axis(ob, ib, axis=0)


def _interval_sum(widths, xa, xb, power):
    """Sum over intervals j of ``widths[j] * |xa[j] - xb[j]| ** power``.

    ``xa`` and ``xb`` hold each side's atom value on every interval, with
    the columns behind the interval axis.  The terms are added in interval
    order, so a column's cost depends neither on its block nor on the other
    columns it is computed with.
    """
    acc = widths[0] * np.abs(xa[0] - xb[0]) ** power
    for j in range(1, len(widths)):
        acc = acc + widths[j] * np.abs(xa[j] - xb[j]) ** power
    return acc


def _canonical_order(a: EmpiricalMeasure, b: EmpiricalMeasure):
    """Fixed argument order so the distance is exactly symmetric in floats."""
    ka = (a.atoms.shape[0], a.atoms.tobytes(), a.weights.tobytes())
    kb = (b.atoms.shape[0], b.atoms.tobytes(), b.weights.tobytes())
    return (a, b) if ka <= kb else (b, a)


def wasserstein2(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Exact quadratic transport distance between finite atom clouds.

    One-dimensional clouds use the quantile coupling (any weights, any
    counts); higher dimensions use an exact assignment and require uniform
    clouds of equal size.
    """
    if a.dim != b.dim:
        raise ValidationError("clouds live in different dimensions")
    a, b = _canonical_order(a, b)
    if a.dim == 1:
        return float(np.sqrt(_quantile_coupling_cost(
            a.atoms, a.weights, b.atoms, b.weights, 2)[0]))
    if not (a.uniform and b.uniform):
        raise UnsupportedModelError("weighted clouds are supported in one dimension only")
    if a.atoms.shape[0] != b.atoms.shape[0]:
        raise UnsupportedModelError("assignment path needs equal atom counts")
    from scipy.optimize import linear_sum_assignment  # slow import, n > 1 only

    diff = a.atoms[:, None, :] - b.atoms[None, :, :]
    cost = np.einsum("ijk,ijk->ij", diff, diff)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def wasserstein1_1d(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """First-order transport distance, one-dimensional clouds only."""
    if a.dim != 1 or b.dim != 1:
        raise UnsupportedModelError("first-order distance is provided in one dimension only")
    return float(_quantile_coupling_cost(a.atoms, a.weights, b.atoms, b.weights, 1)[0])


def epsilon_rate(N: int, n: int) -> float:
    """Empirical-measure convergence rate N^(-2/max(n,4)) with the N=4 log factor."""
    if N < 1 or n < 1:
        raise ValidationError("N and n must be positive")
    return float(N ** (-2.0 / max(n, 4)) * (1.0 + (np.log(N) if N == 4 else 0.0)))


def price_gap(phi_a: NodeField, phi_b: NodeField, lattice: NoiseLattice) -> float:
    """Probability- and dt-weighted squared price difference over interior nodes."""
    for f in (phi_a, phi_b):
        if f.lattice.signature() != lattice.signature() or \
                f.values.shape[0] != lattice.num_nodes:
            raise ValidationError("price fields live on an incompatible lattice")
        if not np.array_equal(f.lattice.path_prob, lattice.path_prob):
            raise ValidationError("price fields live on an incompatible lattice")
    diff = phi_a.values - phi_b.values
    return lattice.running_expectation(squared_norms(diff))


def fit_loglog(ns, values, exclude=(4,), drop_below=ZERO_GAP):
    """OLS slope of log(values) on log(ns); returns (slope, intercept, stderr, used_ns)."""
    pts = [(N, v) for N, v in zip(ns, values) if N not in exclude and v > drop_below]
    if len(pts) < 3:
        return None, None, None, [N for N, _ in pts]
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    design = np.stack([np.ones_like(x), x], axis=1)
    coef, res, *_ = np.linalg.lstsq(design, y, rcond=None)
    dof = len(x) - 2
    if dof > 0:
        resid = y - design @ coef
        s2 = float(resid @ resid) / dof
        cov = s2 * np.linalg.inv(design.T @ design)
        stderr = float(np.sqrt(cov[1, 1]))
    else:
        stderr = 0.0
    return float(coef[1]), float(coef[0]), stderr, [p[0] for p in pts]


# -- convergence study -------------------------------------------------------


@dataclass
class ConvergenceReport:
    """Per-(N, resample) gap and distance terms with the fitted decay slope."""

    n_list: list[int]
    resamples: int
    seed: int
    rows: list[dict]
    per_n: dict[int, dict]
    slope: float | None
    intercept: float | None
    slope_stderr: float | None
    fitted_ns: list[int]
    excluded_ns: list[int]
    fitted_constant: float | None
    ratio_spread: float | None
    degenerate: bool

    def to_summary(self) -> dict:
        return {
            "n_list": self.n_list,
            "resamples": self.resamples,
            "seed": self.seed,
            "per_n": {str(k): v for k, v in self.per_n.items()},
            "slope": self.slope,
            "intercept": self.intercept,
            "slope_stderr": self.slope_stderr,
            "fitted_ns": self.fitted_ns,
            "excluded_ns": self.excluded_ns,
            "fitted_constant": self.fitted_constant,
            "ratio_spread": self.ratio_spread,
            "degenerate": self.degenerate,
        }


class _ReferenceClouds:
    """Per-node atom values of the limit fields used on both distance sides.

    For scalar securities the node columns of both fields are grouped once,
    by sort order (``_OrderGroups``), and every empirical weighting reuses
    the grouping.
    """

    def __init__(self, ctx: MarketContext, mf: MfgSolution):
        self.lattice = ctx.lattice
        self.weights = ctx.atoms.weights
        tsl = ctx.lattice.terminal_slice
        self.y = np.stack([mf.atom_field("y", a) for a in range(len(self.weights))])
        # per-atom terminal cost gradients cg x_T + hg on each leaf, from the atoms'
        # terminal tables (``MarketContext``): -c0(T) for every atom in maturity mode
        self.g = np.stack([apply_block(t.cg_T, mf.atom_field("x", a)[tsl]) + t.hg_T
                           for a, t in enumerate(mf.classes.groups)])    # (A, leaves, n)
        # the clouds of w2_g and int_w2_y; every atom carries the same flow
        # costates r and p (``MfgSolution.atom_field``), so w2_rT and int_w2_p
        # compare two weightings of one value and are exactly zero
        self._clouds = (self.g, self.y)
        self._groups = None
        if self.y.shape[2] == 1:
            self._groups = _OrderGroups(np.concatenate([self.g[:, :, 0], self.y[:, :, 0]], axis=1))

    def distances(self, emp_weights: np.ndarray, N: int) -> dict:
        """The four empirical-vs-limit W2^2 terms of the stability bound."""
        lat = self.lattice
        if self._groups is None:
            g, y = (_cloud_distance_sq(c, self.weights, emp_weights, N) for c in self._clouds)
        else:
            costs = self._groups.coupling_costs(emp_weights, self.weights)
            g, y = np.split(costs, [self.g.shape[1]])
        return {"w2_g": lat.terminal_expectation(g),
                "w2_rT": 0.0,
                "int_w2_y": lat.running_expectation(y),
                "int_w2_p": 0.0}


def _order_codes(order: np.ndarray) -> np.ndarray:
    """One integer per column of an (A, M) table of sort orders, equal where the orders are.

    The code is the mixed-radix number of a column's first A - 1 entries (the
    last one follows from them).  Where the next digit could overflow, the
    codes so far are first renumbered densely.
    """
    A = order.shape[0]
    code = np.zeros(order.shape[1], dtype=np.int64)
    span = 1  # every code lies in [0, span)
    for row in order[:-1]:
        if span > np.iinfo(np.int64).max // A:
            code = np.unique(code, return_inverse=True)[1]
            span = int(code.max()) + 1
        code = code * A + row
        span *= A
    return code


class _OrderGroups:
    """The columns of an (A, M) table of atom values, grouped by stable sort order.

    The quantile coupling of two weightings of one column's atoms depends on
    the values only through that order (``_interval_structure``).  So for
    given weights one structure, computed on a representative column,
    serves every column of its group.  The table is kept with its columns
    in group order, so a group's rows are contiguous slices.
    """

    def __init__(self, values: np.ndarray):
        code = _order_codes(np.argsort(values, axis=0, kind="stable"))
        self.columns = np.argsort(code, kind="stable")
        code = code[self.columns]
        starts = np.flatnonzero(np.concatenate([[True], code[1:] != code[:-1]]))
        self.bounds = list(zip(starts.tolist(), starts[1:].tolist() + [len(code)]))
        self.values = values[:, self.columns]
        self.representatives = self.values[:, starts]

    def coupling_costs(self, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
        """Quadratic quantile-coupling cost of every column between weights ``wa`` and ``wb``.

        Atoms of zero weight in ``wa`` are left out of its side.  Each group
        runs ``_interval_structure`` once, then ``_interval_sum`` over its
        columns in blocks of about ``_COUPLING_BLOCK`` work elements; every
        cost equals that of ``_quantile_coupling_cost`` on its own column.
        """
        active = np.flatnonzero(wa > 0)
        reps = self.representatives
        widths, ja, jb = _interval_structure(reps[active], wa[active], reps, wb)
        ja = active[ja]
        costs = np.empty(self.values.shape[1])
        block = max(1, _COUPLING_BLOCK // len(widths))
        for g, (lo, hi) in enumerate(self.bounds):
            for start in range(lo, hi, block):
                cols = slice(start, min(start + block, hi))
                x = self.values[:, cols]
                costs[cols] = _interval_sum(widths[:, g], x[ja[:, g]], x[jb[:, g]], 2)
        out = np.empty_like(costs)
        out[self.columns] = costs
        return out


def _cloud_distance_sq(values: np.ndarray, ref_weights: np.ndarray,
                       emp_weights: np.ndarray, scale: int) -> np.ndarray:
    """W2^2 between the empirical reweighting and the exact law, per node (n > 1).

    ``values`` has shape (A, m, n): the same atom values carry both measures.
    Both laws are expanded into ``scale`` equal-weight atoms, which is exact
    when the weights are multiples of 1/scale.  Every node's A x A costs come
    from one ``einsum`` per block of nodes; a node's assignment problem is
    those costs expanded by the two clouds' atom indices, in the argument
    order ``wasserstein2`` would use, so each term equals ``wasserstein2`` of
    the expanded clouds, squared.
    """
    A, m, n = values.shape
    emp_counts = np.round(emp_weights * scale).astype(int)
    ref_counts = np.round(ref_weights * scale).astype(int)
    if (np.max(np.abs(emp_counts - emp_weights * scale)) > 1e-9
            or np.max(np.abs(ref_counts - ref_weights * scale)) > 1e-9):
        raise UnsupportedModelError(
            "multi-dimensional distance terms need atom weights that are "
            "multiples of 1/N; re-quantize the law or use scalar securities")
    from scipy.optimize import linear_sum_assignment  # slow import, n > 1 only

    emp_idx = np.repeat(np.arange(A), emp_counts)
    ref_idx = np.repeat(np.arange(A), ref_counts)
    expand = {True: (emp_idx[:, None], ref_idx), False: (ref_idx[:, None], emp_idx)}
    nodes = np.ascontiguousarray(values.transpose(1, 0, 2))   # (m, A, n)
    out = np.empty(m)
    block = max(1, _COUPLING_BLOCK // (A * A * n))
    for lo in range(0, m, block):
        diff = nodes[lo:lo + block, :, None, :] - nodes[lo:lo + block, None, :, :]
        costs = np.einsum("vijk,vijk->vij", diff, diff)
        for v, atom_costs in enumerate(costs, start=lo):
            emp_first = nodes[v][emp_idx].tobytes() <= nodes[v][ref_idx].tobytes()
            cost = atom_costs[expand[emp_first]]
            rows, cols = linear_sum_assignment(cost)
            # sum / count is the arithmetic of ``mean`` without its dispatch
            out[v] = float(np.sqrt(cost[rows, cols].sum() / len(rows))) ** 2
    return out


def _atom_prices(ctx: MarketContext) -> np.ndarray:
    """Population-limit price of each atom's point law: (A, nodes, n).

    Atom a's system is the class system carrying a's own tables; the atoms
    share its blocks, so the A systems are one family (``stack_tables``).
    The class system's constants are affine in the atom weights, so the
    price of any law on these atoms (a homogeneous finite market's is that
    of its empirical law) is the weight-average of these prices.
    """
    w = np.ones(1)
    group = stack_tables([ctx.minor_tables(0, a) for a in range(ctx.atoms.count)])
    sols = DirectSolver(build_full_system(ctx, [group], w)).solve()
    return np.moveaxis(_flow_and_price(ctx, w, sols)[1], 1, 0)


def _weight_gap(prices: np.ndarray, dw: np.ndarray, lattice: NoiseLattice) -> float:
    """Squared price gap between two laws on the atoms of ``prices``.

    ``dw`` is the difference of their weights.  The difference field is
    formed before it is squared, so close atom prices do not cancel, and
    equal weights give exactly 0.
    """
    d = (dw[:, None, None] * prices).sum(axis=0)
    return lattice.running_expectation(squared_norms(d))


def convergence_study(ctx: MarketContext, n_list, resamples: int,
                      seed: int) -> ConvergenceReport:
    """Measure the finite-population price gap of ``ctx``'s market and its distance-term bound.

    For each population size and resample the initial positions are redrawn
    and the squared price gap of the homogeneous finite market to the
    population limit is recorded next to the empirical-vs-limit distance
    terms.  The finite market is the population limit on its empirical law,
    so its price is the count-weighted average of the atom prices of
    ``_atom_prices``, and the study solves A systems whatever its size.
    ``expected_price_gap`` is the exact multinomial mean of the gap,
    ``sum_a w_a gap(price_a, price) / N``, ``price`` the limit's.  The sizes
    must be distinct.
    """
    spec, lattice = ctx.spec, ctx.lattice
    if not spec.homogeneous:
        raise UnsupportedModelError("the convergence study needs a homogeneous population")
    if not spec.major_cost.affine:  # atom prices mix linearly for an affine cost only
        raise UnsupportedModelError("the convergence study needs a quadratic major cost")
    n_list = [int(N) for N in n_list]
    if not n_list or min(n_list) < 1:
        raise ValidationError("population sizes must be at least 1")
    if len(set(n_list)) != len(n_list):
        raise ValidationError(f"population sizes must be distinct, got {n_list}")
    if resamples < 1:
        raise ValidationError("the study needs at least one resample")
    if max(n_list) > AGENT_BUDGET:
        raise BudgetError(f"population sizes beyond {AGENT_BUDGET} are not supported")
    mf = solve_mfg(ctx)
    ref = _ReferenceClouds(ctx, mf)
    prices = _atom_prices(ctx)
    A = ctx.atoms.count
    n = spec.dims.n
    spread = sum(ref.weights[a] * price_gap(NodeField(lattice, prices[a]), mf.price,
                                            lattice) for a in range(A))

    # row (N, r) draws sample_idiosyncratic(atoms, N, derive_seed(seed, N, r));
    # every agent of every row is drawn in one pass
    sizes = np.repeat(n_list, resamples)
    seeds = np.array([derive_seed(seed, N, r) for N in n_list for r in range(resamples)],
                     dtype=np.uint64)
    draws = _draw_atoms(ctx.atoms, np.repeat(seeds, sizes),
                        np.concatenate([np.arange(N) for N in sizes]))
    counts = np.bincount(np.repeat(np.arange(len(sizes)), sizes) * A + draws,
                         minlength=len(sizes) * A).reshape(-1, A)
    rows = []
    terms = {}  # resamples with equal atom counts share every term
    for i, c in enumerate(counts):
        N, r = n_list[i // resamples], i % resamples
        key = (N, c.tobytes())
        if key not in terms:
            terms[key] = {"price_gap": _weight_gap(prices, c / N - ref.weights, lattice),
                          **ref.distances(c / N, N)}
        rows.append({"N": N, "resample": r, **terms[key], "epsilon_N": epsilon_rate(N, n)})

    per_n = {}
    for N in n_list:
        sub = [row for row in rows if row["N"] == N]
        gaps = np.array([row["price_gap"] for row in sub])
        rhs = np.array([row["w2_g"] + row["w2_rT"] + row["int_w2_y"] + row["int_w2_p"]
                        for row in sub])
        std = float(gaps.std(ddof=1)) if len(gaps) > 1 else 0.0
        per_n[N] = {
            "mean_price_gap": float(gaps.mean()),
            "expected_price_gap": float(spread / N),
            "std_price_gap": std,
            "stderr_price_gap": float(std / np.sqrt(len(gaps))),
            "mean_rhs": float(rhs.mean()),
            "epsilon_N": epsilon_rate(N, n),
        }

    mean_gaps = [per_n[N]["mean_price_gap"] for N in n_list]
    degenerate = all(g <= ZERO_GAP for g in mean_gaps)
    slope = intercept = stderr = None
    fitted_ns: list[int] = []
    if not degenerate:
        slope, intercept, stderr, fitted_ns = fit_loglog(n_list, mean_gaps)
    ratios = [per_n[N]["mean_price_gap"] / per_n[N]["mean_rhs"]
              for N in n_list
              if per_n[N]["mean_price_gap"] > ZERO_GAP and per_n[N]["mean_rhs"] > 0]
    fitted_constant = max(ratios) if ratios else None
    ratio_spread = (max(ratios) / min(ratios)) if ratios else None
    return ConvergenceReport(
        n_list=n_list, resamples=resamples, seed=seed, rows=rows, per_n=per_n,
        slope=slope, intercept=intercept, slope_stderr=stderr, fitted_ns=fitted_ns,
        excluded_ns=[N for N in n_list if N not in fitted_ns],
        fitted_constant=fitted_constant, ratio_spread=ratio_spread,
        degenerate=degenerate)


# -- heterogeneity stability -------------------------------------------------


@dataclass
class StabilityReport:
    """Measured price gaps and the coefficient-difference ingredient magnitudes.

    The bound's constant is unknown, so the report states both sides rather
    than a pass/fail verdict.
    """

    lhs_hetero: float
    lhs_homogeneous: float
    delta_terms: dict
    w2_terms: dict

    @property
    def delta_total(self) -> float:
        return float(sum(self.delta_terms.values()))

    def to_dict(self) -> dict:
        return {"lhs_hetero": self.lhs_hetero,
                "lhs_homogeneous": self.lhs_homogeneous,
                "delta_terms": self.delta_terms,
                "delta_total": self.delta_total,
                "w2_terms": self.w2_terms}


def stability_gap(ctx: MarketContext, reference: MarketContext, *, seed: int = 0,
                  assignments: np.ndarray | None = None) -> StabilityReport:
    """Compare the market of ``ctx`` to the homogeneous limit price of ``reference``.

    The two contexts share dimensions and a lattice (equal ``signature()``)
    and both populations the same atom draws.  The coefficient-difference
    terms are integrated along the homogeneous equilibrium, matching the
    stability bound's right-hand side structure.  The terminal terms read
    the markets' terminal tables, so in maturity mode, where every terminal
    cost is -<c0(T), x_T>, they are zero.
    """
    spec, lattice = ctx.spec, ctx.lattice
    if spec.dims != reference.spec.dims:
        raise ValidationError("specs must share dimensions")
    if lattice.signature() != reference.lattice.signature():
        raise ValidationError("the two markets must share a lattice")
    if not reference.spec.homogeneous:
        raise ValidationError("the reference spec must be homogeneous")
    N = spec.dims.N
    if assignments is None:
        assignments = sample_idiosyncratic(reference.atoms, N, seed)
    pop_he = make_population(ctx, N=N, assignments=assignments)
    pop_ho = make_population(reference, N=N, assignments=assignments)

    mf = solve_mfg(reference)
    eq_he = solve_full_equilibrium(ctx, pop_he)
    eq_ho = solve_full_equilibrium(reference, pop_ho)
    lhs_he = price_gap(eq_he.price, mf.price, lattice)
    lhs_ho = price_gap(eq_ho.price, mf.price, lattice)

    ratio = reference.delta / (1.0 - reference.delta)
    tsl = lattice.terminal_slice
    terms = {"dl": 0.0, "dsig0": 0.0, "ddfdx": 0.0, "dcf_r": 0.0,
             "dg_terminal": 0.0, "dcg_r_terminal": 0.0}
    groups_of = pop_ho.agent_group
    running, terminal = lattice.running_expectation, lattice.terminal_expectation
    mean_R_T = sum(grp.count * eq_ho.group_field("R", g)[tsl]
                   for g, grp in enumerate(pop_ho.groups)) / N
    for i in range(N):
        a = int(assignments[i])
        bundle = 0 if spec.homogeneous else i
        het = ctx.minor_tables(bundle, a)
        hom = reference.minor_tables(0, a)
        g_ho = int(groups_of[i])
        X = eq_ho.group_field("X", g_ho)
        R = eq_ho.group_field("R", g_ho)
        dl = het.l - hom.l
        dsig = het.sig0 - hom.sig0
        dcf = het.cf - hom.cf
        ddf = lattice.apply_levels(dcf, X) + (het.hf - hom.hf)
        dcf_r = lattice.apply_levels(dcf, R)
        terms["dl"] += running(squared_norms(dl)) / N
        terms["dsig0"] += running(squared_norms(dsig)) / N
        terms["ddfdx"] += running(squared_norms(ddf)) / N
        terms["dcf_r"] += running(squared_norms(dcf_r)) / N
        dcg = het.cg_T - hom.cg_T
        dg = apply_block(dcg, X[tsl]) + (het.hg_T - hom.hg_T)
        dcg_r = apply_block(dcg, R[tsl] + ratio * mean_R_T)
        terms["dg_terminal"] += terminal(squared_norms(dg)) / N
        terms["dcg_r_terminal"] += terminal(squared_norms(dcg_r)) / N

    emp_w = np.bincount(assignments, minlength=reference.atoms.count) / N
    return StabilityReport(lhs_hetero=lhs_he, lhs_homogeneous=lhs_ho, delta_terms=terms,
                           w2_terms=_ReferenceClouds(reference, mf).distances(emp_w, N))
