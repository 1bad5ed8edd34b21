"""Market-clearing equilibrium prices with one major and many minor traders.

The engine solves the coupled forward-backward systems of the market exactly
on discrete scenario trees: the clearing system for a given major flow, the
fully coupled major-optimal equilibrium, and its population limit.  Companion modules measure transport-distance convergence
to the limit and verify optimality by control perturbation.  Each export is
resolved on first access (PEP 562), so only the modules in use are compiled.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {  # the exported names, by the module that defines them
    "errors": ("AssumptionViolationError", "BudgetError", "MarketClearError", "SolverError",
               "UnsupportedModelError", "ValidationError"),
    "fbsde": ("DirectSolver", "FamilySolution", "FbsdeSystem", "SolveDiagnostics", "residual"),
    "finite_market": ("AgentGroup", "AgentPopulation", "ClassSolution", "ClearingOperator",
                      "EquilibriumSolution", "MarketContext", "MfgSolution", "clearing_residual",
                      "cost_classes", "limit_classes", "make_population",
                      "solve_full_equilibrium", "solve_mfg", "solve_minor_clearing"),
    "metrics": ("ConvergenceReport", "StabilityReport", "convergence_study", "epsilon_rate",
                "price_gap", "stability_gap"),
    "model": ("AssumptionReport", "CallableMajorCost", "CoefficientSpec", "Dimensions",
              "DiscreteLaw", "MajorFlow", "MinorBundle", "ModelSpec", "QuadraticMajorCost",
              "check_all_assumptions", "make_spec"),
    "modelfile": ("load_model", "loads_model"),
    "optimality": ("PerturbationReport", "perturbation_tests"),
    "runio": ("write_lattice_csv",),
    "scenario": ("IdiosyncraticAtoms", "NodeField", "NoiseLattice", "TimeGrid", "build_lattice",
                 "evaluate_exogenous", "idiosyncratic_atoms", "sample_idiosyncratic",
                 "stream_rng"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return ["__version__", *__all__]
