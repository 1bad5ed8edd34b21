"""Per-call cost functionals: one control in, its integrated and cleared cost out.

``marketclear.optimality`` costs a perturbation check's controls in batches
along exact lines.  These functions cost one control at a time: they take
the market's ``MarketContext`` and a price or control, each an (nodes, n)
field of its lattice, a major flow vanishing on the leaves outside
maturity mode (``ValidationError`` otherwise), integrate the position and
re-solve the clearing system for the control they are given.  They are the
oracle of the whole perturbation chain.
"""

from __future__ import annotations

import numpy as np

from marketclear.finite_market import (AgentPopulation, ClearingOperator, CostClasses,
                                       MarketContext, _check_node_field, _validate_beta,
                                       cost_classes, limit_classes)
from marketclear.optimality import _major_costs, _major_response, _minor_costs, _positions
from marketclear.scenario import NodeField


def cost_minor(ctx: MarketContext, price: NodeField, alpha: np.ndarray, *,
               bundle_index: int = 0, atom_index: int = 0) -> float:
    """Expected cost of one minor agent trading at rate ``alpha`` against ``price``.

    Running cost <phi, a> + .5 <a, lam a> + .5 <x, cf x> + <hf, x>; terminal
    cost -delta <phi_T, x> + .5 <x, cg x> + <hg, x>, which ``MarketContext``
    makes -<c0_T, x> when the securities mature.  The position is integrated
    forward under ``alpha``.  The price and the rate must be (nodes, n)
    fields of ``ctx.lattice``.
    """
    _check_node_field(ctx, "the price", price.values, price.lattice)
    _check_node_field(ctx, "alpha", alpha)
    tab = ctx.minor_tables(bundle_index, atom_index)
    alphas = np.asarray(alpha, dtype=float)[None]
    x = _positions(ctx, tab.xi, alphas, tab.l, tab.sig0)
    return float(_minor_costs(ctx, price.values, alphas, x, tab)[0])


def _major_cost(ctx: MarketContext, classes: CostClasses, beta: NodeField, N: int) -> float:
    """Major cost of ``beta`` per capita of ``N`` agents, cleared on ``classes``."""
    _validate_beta(ctx, beta)
    operator = ClearingOperator(ctx, classes.tables, classes.weights)
    b = beta.values[None] / N
    return float(_major_costs(ctx, b, *_major_response(ctx, operator, b))[0])


def cost_major(ctx: MarketContext, population: AgentPopulation, beta: NodeField) -> float:
    """Major trader's expected cost in per-capita units, price feedback inside.

    The minor clearing system of the population's cost classes is re-solved
    under ``beta`` and the induced price enters the running cost
    <b, phi(b)> + .5 <b, lam0 b> + fbar0(x0).  ``beta`` is a flow of
    ``ctx`` as ``solve_minor_clearing`` takes it.
    """
    return _major_cost(ctx, cost_classes(ctx.group_tables(population), population.weights),
                       beta, population.N)


def cost_mfg(ctx: MarketContext, beta: NodeField) -> float:
    """Population-limit major cost for a per-capita flow, clearing re-solved.

    The clearing feedback is that of the limit's cost class (``limit_classes``).
    ``beta`` is a flow of ``ctx`` as ``solve_minor_clearing`` takes it.
    """
    return _major_cost(ctx, limit_classes(ctx), beta, 1)
