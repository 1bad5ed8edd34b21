"""Exact-transport oracles for the coupling kernels of ``marketclear.metrics``.

``quantile_coupling_cost`` is the scalar reference for the one-dimensional
quantile coupling.  Both clouds are sorted and walked together, one atom pair
at a time: each step moves the smaller remaining mass of the two current
atoms and charges it |xa - xb|^power.  A side moves to its next atom once its
remaining mass is at most 1e-15.  This is the textbook monotone-rearrangement
sweep, kept independent of the batched breakpoint routine in
``marketclear.metrics``.

The general-cloud distances (``EmpiricalMeasure``, ``wasserstein2``,
``wasserstein1_1d``) and the per-column ``_quantile_coupling_cost`` are the
reference the study's kernels are checked against byte for byte: the grouped
one-dimensional coupling (``metrics._OrderGroups``) against the per-column
one, and the lean assignment loop (``metrics._cloud_distance_sq``) against
``wasserstein2`` of the expanded clouds.  One-dimensional clouds use the
quantile coupling (any weights, any counts); higher dimensions use an exact
assignment between uniform clouds of equal size (Peyre & Cuturi,
*Computational Optimal Transport*, 2019, ch. 2-3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from marketclear import metrics
from marketclear.errors import UnsupportedModelError, ValidationError


def quantile_coupling_cost(xa, wa, xb, wb, power: int) -> float:
    """Exact cost of the monotone coupling of two 1-d discrete laws."""
    oa, ob = np.argsort(xa, kind="stable"), np.argsort(xb, kind="stable")
    xa, wa = xa[oa], wa[oa]
    xb, wb = xb[ob], wb[ob]
    ia = ib = 0
    ra, rb = wa[0], wb[0]
    cost = 0.0
    while True:
        step = min(ra, rb)
        cost += step * abs(xa[ia] - xb[ib]) ** power
        ra -= step
        rb -= step
        if ra <= 1e-15:
            ia += 1
            if ia == len(xa):
                break
            ra = wa[ia]
        if rb <= 1e-15:
            ib += 1
            if ib == len(xb):
                break
            rb = wb[ib]
    return cost


@dataclass
class EmpiricalMeasure:
    """Finite atom cloud; uniform weights unless given."""

    atoms: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
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
    columns) work arrays near ``metrics._COUPLING_BLOCK`` elements.
    """
    Aa, m = xa.shape
    out = np.empty(m)
    block = max(1, metrics._COUPLING_BLOCK // (Aa + xb.shape[0]))
    for lo in range(0, m, block):
        cols = slice(lo, lo + block)
        widths, ja, jb = metrics._interval_structure(xa[:, cols], wa, xb[:, cols], wb)
        out[cols] = metrics._interval_sum(widths, np.take_along_axis(xa[:, cols], ja, axis=0),
                                          np.take_along_axis(xb[:, cols], jb, axis=0), power)
    return out


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
    from scipy.optimize import linear_sum_assignment

    diff = a.atoms[:, None, :] - b.atoms[None, :, :]
    cost = np.einsum("ijk,ijk->ij", diff, diff)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def wasserstein1_1d(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """First-order transport distance, one-dimensional clouds only."""
    if a.dim != 1 or b.dim != 1:
        raise UnsupportedModelError("first-order distance is provided in one dimension only")
    return float(_quantile_coupling_cost(a.atoms, a.weights, b.atoms, b.weights, 1)[0])
