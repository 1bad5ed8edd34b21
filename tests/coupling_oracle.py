"""Scalar reference for the one-dimensional quantile coupling.

Both clouds are sorted and walked together, one atom pair at a time: each
step moves the smaller remaining mass of the two current atoms and charges it
|xa - xb|^power.  A side moves to its next atom once its remaining mass is at
most 1e-15.  This is the textbook monotone-rearrangement sweep, kept
independent of the batched breakpoint routine in ``marketclear.metrics``.
"""

from __future__ import annotations

import numpy as np


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
