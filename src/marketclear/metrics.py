"""Wasserstein distances, price gaps, and the population-convergence studies.

The reference side of every distance is the exact atom law carried by the
population-limit solution, so only the finite-population empirical side
fluctuates.  One-dimensional distances use the exact quantile coupling (any
weights), evaluated for every node of a field at once from merged
cumulative-weight breakpoints; multi-dimensional ones use an exact assignment
between equal-count uniform clouds.  Convergence rows run serially and are
memoized on the atom multiplicities of their draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, UnsupportedModelError, ValidationError
from .finite_market import (MarketContext, make_population,
                            solve_full_equilibrium)
from .mean_field import MfgSolution, solve_mfg
from .model import ModelSpec
from .scenario import NodeField, NoiseLattice, sample_idiosyncratic, _splitmix64

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
    ``wa`` (Aa,) and ``wb`` (Ab,).  Columns are processed in blocks that keep
    the (Aa + Ab, columns) work arrays near ``_COUPLING_BLOCK`` elements.
    """
    Aa, m = xa.shape
    out = np.empty(m)
    block = max(1, _COUPLING_BLOCK // (Aa + xb.shape[0]))
    for lo in range(0, m, block):
        cols = slice(lo, lo + block)
        out[cols] = _coupling_block(xa[:, cols], wa, xb[:, cols], wb, power)
    return out


def _coupling_block(xa, wa, xb, wb, power):
    """Quantile coupling through merged cumulative-weight breakpoints.

    Per column each side is sorted and its cumulative weights are the
    breakpoints where it moves to its next atom.  Between consecutive merged
    breakpoints both sides hold one atom each, the index being the count of
    that side's breakpoints already passed; the interval costs its width
    times |xa - xb|^power.
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
    xa = np.take_along_axis(xa, np.take_along_axis(oa, ia, axis=0), axis=0)
    xb = np.take_along_axis(xb, np.take_along_axis(ob, ib, axis=0), axis=0)
    terms = widths * np.abs(xa - xb) ** power
    # accumulated in interval order, so a column's cost does not depend on
    # how many columns share its block
    return np.cumsum(terms, axis=0)[-1]


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
    return lattice.running_expectation(np.einsum("vi,vi->v", diff, diff))


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
    """Per-node atom values of the limit fields used on both distance sides."""

    def __init__(self, mf: MfgSolution):
        atoms = mf.ctx.atoms
        A = atoms.count
        self.weights = atoms.weights
        self.y = np.stack([mf.atom_field("y", a) for a in range(A)])   # (A, nodes, n)
        self.p = np.stack([mf.atom_field("p", a) for a in range(A)])
        self.r = np.stack([mf.atom_field("r", a) for a in range(A)])
        self.g = mf.terminal_gain_samples()                            # (A, leaves, n)


def _cloud_distance_sq(values: np.ndarray, ref_weights: np.ndarray,
                       emp_weights: np.ndarray, scale: int) -> np.ndarray:
    """W2^2 between the empirical reweighting and the exact law, per node.

    ``values`` has shape (A, m, n): the same atom values carry both measures,
    only the weights differ, so for n = 1 one batched quantile coupling covers
    all m nodes.  For n > 1 both laws are expanded into ``scale`` equal-weight
    atoms, which is exact when the weights are multiples of 1/scale.
    """
    A, m, n = values.shape
    if n != 1:
        emp_counts = np.round(emp_weights * scale).astype(int)
        ref_counts = np.round(ref_weights * scale).astype(int)
        if (np.max(np.abs(emp_counts - emp_weights * scale)) > 1e-9
                or np.max(np.abs(ref_counts - ref_weights * scale)) > 1e-9):
            raise UnsupportedModelError(
                "multi-dimensional distance terms need atom weights that are "
                "multiples of 1/N; re-quantize the law or use scalar securities")
        out = np.empty(m)
        for v in range(m):
            emp = EmpiricalMeasure(np.repeat(values[:, v, :], emp_counts, axis=0))
            ref = EmpiricalMeasure(np.repeat(values[:, v, :], ref_counts, axis=0))
            out[v] = wasserstein2(emp, ref) ** 2
        return out
    active = emp_weights > 0
    return _quantile_coupling_cost(values[active, :, 0], emp_weights[active],
                                   values[:, :, 0], ref_weights, 2)


def convergence_study(spec: ModelSpec, lattice: NoiseLattice, n_list,
                      resamples: int, seed: int, *,
                      ctx: MarketContext | None = None) -> ConvergenceReport:
    """Measure the finite-population price gap and its distance-term bound.

    For each population size and resample the initial positions are redrawn,
    the homogeneous finite market is solved, and the squared price gap to the
    population limit is recorded next to the empirical-vs-limit distance
    terms.  A row depends on the draw only through the atom multiplicities,
    so rows are memoized on them and the canonical representative is solved.
    """
    if not spec.homogeneous:
        raise UnsupportedModelError("the convergence study needs a homogeneous population")
    n_list = [int(N) for N in n_list]
    if any(N > AGENT_BUDGET for N in n_list):
        raise BudgetError(f"population sizes beyond {AGENT_BUDGET} are not supported")
    ctx = ctx if ctx is not None else MarketContext(spec, lattice)
    mf = solve_mfg(spec, lattice, ctx=ctx, check=False)
    ref = _ReferenceClouds(mf)
    A = ctx.atoms.count
    n = spec.dims.n

    draws = {(N, r): sample_idiosyncratic(ctx.atoms, N, derive_seed(seed, N, r))
             for N in n_list for r in range(resamples)}

    cache: dict[tuple, dict] = {}

    def row_for(N: int, assignments: np.ndarray) -> dict:
        counts = np.bincount(assignments, minlength=A)
        key = (N,) + tuple(counts)
        hit = cache.get(key)
        if hit is not None:
            return hit
        # a row depends on the draw only through the multiplicities; solve the
        # canonical representative so cached values are order-independent
        canonical = np.repeat(np.arange(A), counts)
        pop = make_population(spec, ctx.atoms, N=N, assignments=canonical)
        eq = solve_full_equilibrium(spec, lattice, pop, ctx=ctx, check=False)
        gap = price_gap(eq.price, mf.price_mfg, lattice)
        emp_w = counts / N
        w2_y = lattice.running_expectation(_cloud_distance_sq(ref.y, ref.weights, emp_w, N))
        w2_p = lattice.running_expectation(_cloud_distance_sq(ref.p, ref.weights, emp_w, N))
        tsl = lattice.terminal_slice
        w2_r = lattice.terminal_expectation(_cloud_distance_sq(
            ref.r[:, tsl, :], ref.weights, emp_w, N))
        w2_g = lattice.terminal_expectation(_cloud_distance_sq(ref.g, ref.weights, emp_w, N))
        row = {"price_gap": gap, "w2_g": w2_g, "w2_rT": w2_r,
               "int_w2_y": w2_y, "int_w2_p": w2_p}
        cache[key] = row
        return row

    rows = [{"N": N, "resample": r, **row_for(N, draws[(N, r)]),
             "epsilon_N": epsilon_rate(N, n)}
            for N in n_list for r in range(resamples)]

    per_n = {}
    for N in n_list:
        sub = [row for row in rows if row["N"] == N]
        gaps = np.array([row["price_gap"] for row in sub])
        rhs = np.array([row["w2_g"] + row["w2_rT"] + row["int_w2_y"] + row["int_w2_p"]
                        for row in sub])
        std = float(gaps.std(ddof=1)) if len(gaps) > 1 else 0.0
        per_n[N] = {
            "mean_price_gap": float(gaps.mean()),
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


def stability_gap(hetero_spec: ModelSpec, homo_spec: ModelSpec,
                  lattice: NoiseLattice, *, seed: int = 0,
                  assignments: np.ndarray | None = None) -> StabilityReport:
    """Compare the heterogeneous market's price to the homogeneous limit price.

    Both populations share the same atom draws.  The coefficient-difference
    terms are integrated along the homogeneous equilibrium, matching the
    stability bound's right-hand side structure.
    """
    if hetero_spec.dims != homo_spec.dims:
        raise ValidationError("specs must share dimensions")
    if not homo_spec.homogeneous:
        raise ValidationError("the reference spec must be homogeneous")
    ctx_he = MarketContext(hetero_spec, lattice)
    ctx_ho = MarketContext(homo_spec, lattice)
    N = hetero_spec.dims.N
    if assignments is None:
        assignments = sample_idiosyncratic(ctx_ho.atoms, N, seed)
    pop_he = make_population(hetero_spec, ctx_he.atoms, N=N, assignments=assignments)
    pop_ho = make_population(homo_spec, ctx_ho.atoms, N=N, assignments=assignments)

    mf = solve_mfg(homo_spec, lattice, ctx=ctx_ho, check=False)
    eq_he = solve_full_equilibrium(hetero_spec, lattice, pop_he, ctx=ctx_he, check=False)
    eq_ho = solve_full_equilibrium(homo_spec, lattice, pop_ho, ctx=ctx_ho, check=False)
    lhs_he = price_gap(eq_he.price, mf.price_mfg, lattice)
    lhs_ho = price_gap(eq_ho.price, mf.price_mfg, lattice)

    ratio = homo_spec.delta / (1.0 - homo_spec.delta)
    tsl = lattice.terminal_slice
    terms = {"dl": 0.0, "dsig0": 0.0, "ddfdx": 0.0, "dcf_r": 0.0,
             "dg_terminal": 0.0, "dcg_r_terminal": 0.0}
    groups_of = pop_ho.agent_group
    running, terminal = lattice.running_expectation, lattice.terminal_expectation
    mean_R_T = sum(grp.count * eq_ho.group_field("R", g)[tsl]
                   for g, grp in enumerate(pop_ho.groups)) / N
    for i in range(N):
        a = int(assignments[i])
        bundle = 0 if hetero_spec.homogeneous else i
        het = ctx_he.minor_tables(bundle, a)
        hom = ctx_ho.minor_tables(0, a)
        g_ho = int(groups_of[i])
        X = eq_ho.group_field("X", g_ho)
        R = eq_ho.group_field("R", g_ho)
        dl = het.l - hom.l
        dsig = het.sig0 - hom.sig0
        dcf = (het.cf - hom.cf)[lattice.level_of]
        ddf = np.matmul(dcf, X[..., None])[..., 0] + (het.hf - hom.hf)
        dcf_r = np.matmul(dcf, R[..., None])[..., 0]
        terms["dl"] += running(np.einsum("vi,vi->v", dl, dl)) / N
        terms["dsig0"] += running(np.einsum("vij,vij->v", dsig, dsig)) / N
        terms["ddfdx"] += running(np.einsum("vi,vi->v", ddf, ddf)) / N
        terms["dcf_r"] += running(np.einsum("vi,vi->v", dcf_r, dcf_r)) / N
        dcg = np.tile(het.cg_T - hom.cg_T, (lattice.nodes_at(lattice.steps), 1, 1))
        dg = np.matmul(dcg, X[tsl][..., None])[..., 0] + (het.hg_T - hom.hg_T)
        dcg_r = np.matmul(dcg, (R[tsl] + ratio * mean_R_T)[..., None])[..., 0]
        terms["dg_terminal"] += terminal(np.einsum("vi,vi->v", dg, dg)) / N
        terms["dcg_r_terminal"] += terminal(np.einsum("vi,vi->v", dcg_r, dcg_r)) / N

    ref = _ReferenceClouds(mf)
    counts = np.bincount(assignments, minlength=ctx_ho.atoms.count)
    emp_w = counts / N
    w2 = {
        "w2_g": terminal(_cloud_distance_sq(ref.g, ref.weights, emp_w, N)),
        "w2_rT": terminal(_cloud_distance_sq(
            ref.r[:, tsl, :], ref.weights, emp_w, N)),
        "int_w2_y": running(_cloud_distance_sq(ref.y, ref.weights, emp_w, N)),
        "int_w2_p": running(_cloud_distance_sq(ref.p, ref.weights, emp_w, N)),
    }
    return StabilityReport(lhs_hetero=lhs_he, lhs_homogeneous=lhs_ho,
                           delta_terms=terms, w2_terms=w2)
