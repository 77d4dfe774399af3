"""fairmeasure: fairest-measure solvers for multi-exchange price lattices.

Quantifies how far a discounted price process on a finite scenario lattice
is from being a martingale and searches the equivalence-box-constrained
measures for the one minimizing that unfairness.
"""

from .errors import (ConfigError, DomainError, EquivalenceViolationError,
                     FairmeasureError, InfeasibleError, IngestionError,
                     NoMartingaleMeasureError, ParameterError, SizeBudgetError,
                     UnsupportedConstraintError)
from .lattice import (AdaptedLattice, Density, LatticeProcess, Measure,
                      build_lattice, cond_exp, cond_exp_reweighted,
                      duplicate_branches, lift_measure, uniform_measure)
from .processes import (GbmParams, PriceSeries, branch_innovations,
                        calibrate_from_prices, project_correlation_psd,
                        read_price_csv, risk_neutral_binomial_measure,
                        simulate_gbm)
from .solver import (BruteForceResult, ConstraintParams, ConstraintReport,
                     RestartRecord, SolveOptions, SolveReport, box_bounds,
                     brute_force_min, check_constraints, correlation_integral,
                     minimize, project_capped_simplex)
from .unfairness import (MartingaleCheck, UnfairnessConfig, inner_product_m,
                         is_martingale, unfairness_m, unfairness_n)

__version__ = "0.1.0"
