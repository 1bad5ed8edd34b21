"""Market-clearing equilibrium prices with one major and many minor traders.

The engine solves the coupled forward-backward systems of the market exactly
on discrete scenario trees: minor best responses, the clearing system for a
given major flow, the fully coupled major-optimal equilibrium, and its
population limit.  Companion modules measure transport-distance convergence
to the limit and verify optimality by control perturbation.
"""

__version__ = "0.1.0"

from .errors import (AssumptionViolationError, BudgetError, MarketClearError,
                     SolverError, UnsupportedModelError, ValidationError)
from .fbsde import (FbsdeSystem, NodeSolution, SolveDiagnostics, residual,
                    solve_direct, solve_picard)
from .finite_market import (AgentGroup, AgentPopulation, ClearingOperator,
                            EquilibriumSolution, MarketContext, clearing_residual,
                            make_population, minor_best_response,
                            solve_full_equilibrium, solve_minor_clearing)
from .mean_field import MfgSolution, reduce_conditional_means, solve_mfg
from .metrics import (ConvergenceReport, EmpiricalMeasure, StabilityReport,
                      convergence_study, epsilon_rate, price_gap, stability_gap,
                      wasserstein1_1d, wasserstein2)
from .model import (AssumptionReport, CallableMajorCost, CoefficientSpec,
                    Dimensions, DiscreteLaw, MajorFlow, MinorBundle, ModelSpec,
                    QuadraticMajorCost, check_all_assumptions,
                    check_major_assumptions, check_minor_assumptions, make_spec)
from .modelfile import load_model, loads_model
from .optimality import (PerturbationReport, cost_major, cost_mfg, cost_minor,
                         hamiltonian_mfg, hamiltonian_minor, hamiltonian_system,
                         minimizer_alpha, minimizer_beta, minimizer_beta_mfg,
                         perturbation_test)
from .scenario import (IdiosyncraticAtoms, NodeField, NoiseLattice, TimeGrid,
                       build_lattice, constant_field, evaluate_exogenous,
                       idiosyncratic_atoms, sample_idiosyncratic, stream_rng,
                       write_lattice_csv)
