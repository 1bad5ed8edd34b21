"""Conditional mean-field equilibrium on the common lattice.

The population limit of the homogeneous market is the finite market's
cost-class path (``finite_market``) on the atoms of the idiosyncratic law,
weighted by their law weights.  The atoms share cf and cg, so they form one
class: its means (x0, xbar, rbar, p0, ybar, pbar) solve the coupled system of
one group carrying the atom-averaged tables, and the per-atom deviations are
its deviation family.  The flow costates (rbar, pbar) have no idiosyncratic
source, so the per-atom flow fields equal the means.  ``MfgSolution`` is a
``ClassSolution``, the container of every market solved on cost classes: it
reads the atoms as its groups and holds the limit price as ``price`` and
the per-capita major flow as ``beta_norm``, the finite market's names.
``solve_mfg`` takes the homogeneous market's ``MarketContext``, as every
finite-market solver does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedModelError, ValidationError
from .finite_market import (ClassSolution, CostClasses, MarketContext, _run_checks,
                            cost_classes, solve_class_system, solve_deviations)
from .scenario import NodeField


def limit_classes(ctx: MarketContext) -> CostClasses:
    """The limit's one cost class, every atom a group; the means close for one bundle only."""
    if not ctx.spec.homogeneous:
        raise UnsupportedModelError(
            "conditional-mean reduction needs a homogeneous minor population")
    return cost_classes([ctx.minor_tables(0, a) for a in range(ctx.atoms.count)],
                        ctx.atoms.weights)


# population-limit names of the mean group's fields in the class system
_MEAN_FIELDS = {"x0": "x0", "p0": "p0", "xbar": "X0", "ybar": "Y0",
                "pbar": "P0", "rbar": "R0"}


@dataclass
class MfgSolution(ClassSolution):
    """Mean-field equilibrium on the limit's one cost class, whose groups are the atoms."""

    beta_norm: NodeField                   # per-capita flow, zero on terminal nodes

    def common_field(self, name: str) -> np.ndarray:
        """A mean field by its population-limit name (x0, p0, xbar, ybar, pbar, rbar)."""
        return self.solution.field(_MEAN_FIELDS[name])

    def atom_field(self, name: str, a: int) -> np.ndarray:
        """Per-atom field: mean plus deviation for x/y, the mean itself for r/p."""
        if name not in ("x", "y", "r", "p"):
            raise ValidationError(f"unknown per-atom field {name!r}")
        return self.group_field(name.upper(), a)


def solve_mfg(ctx: MarketContext, *, check: bool = True, force: bool = False) -> MfgSolution:
    """Solve the population-limit equilibrium: the class means, then the atom deviations.

    The flow and the price are those of the class system, common-lattice
    fields

        b   = V0bar (-p0~ + ybar~ + pbar~),        b(T) = 0
        phi = -ybar~ + lam b                        (and -ybar at the horizon),

    and every idiosyncratic deviation field has atom-weighted mean zero.
    """
    if check:
        _run_checks(ctx.spec, force)
    classes = limit_classes(ctx)
    family, b, phi = solve_class_system(ctx, classes)
    return MfgSolution(solution=family, classes=classes, deviations=solve_deviations(ctx, classes),
                       price=NodeField(ctx.lattice, phi), beta_norm=NodeField(ctx.lattice, b))
