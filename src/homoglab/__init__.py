"""homoglab: a numerical laboratory for variational homogenization.

Periodic cell problems and their homogenized Lagrangians, corrector and
recovery-competitor construction, empirical stability of the homogenized
limit under perturbations, and Hamilton-Jacobi value functions computed
through variational formulas, with independent dynamic-programming oracles
for everything one-dimensional.
"""

import types as _types

__version__ = "0.1.0"  # set before the submodules import it

from .errors import (
    ConfigError,
    ErgodicWindowError,
    ExtrapolationError,
    HomoglabError,
    InputError,
    InvariantError,
    SolverError,
)
from .quadrature import QuadratureSpec, exp_interval_weights
from .grid import midpoint_convexity_report
from .potentials import (
    GeneralLagrangian,
    PeriodicPotential,
    Perturbation,
    REGISTRY_VERSION,
    cylinder_average,
    eval_hamiltonian,
    eval_lagrangian,
    line_average,
    lp_unif_estimate,
    make_perturbation,
    make_potential,
    parabola_free_region,
)
from .trajectory import (
    Trajectory,
    action_F,
    action_G,
    build_connector,
    connector_kinetic_bound,
    discounted_action,
    homogenized_action,
    polar_bound_check,
    zero_set_measure,
)
from .minimize import (
    DPGrid,
    OptimizerSpec,
    dp_oracle_1d,
    dp_oracle_halfline,
    minimize_bvp,
    minimize_bvp_batch,
    minimize_halfline,
    minimize_lagrangian_bvp,
)
from .cell import (
    AlmostCorrectorPlan,
    CorrectorProfile,
    HomogenizedLagrangian,
    build_almost_corrector,
    build_recovery_trajectory,
    ergodic_shift_finder,
    f_hom_asymptotic,
    scaled_corrector_start,
    solve_corrector_1d,
    solve_corrector_general,
    tabulate_f_hom,
)
from .fenchel import ConjugateTable, biconjugate_check, legendre_transform
from .hj import (
    ValueField,
    field_distance,
    s_eps,
    solve_evolutionary_eps,
    solve_evolutionary_hom,
    solve_steady_eps,
    solve_steady_hom,
)
from .experiments import (
    ExperimentConfig,
    Report,
    StabilityReport,
    make_initial_datum,
    run_condition_diagnostics,
    run_fenchel_tables,
    run_fhom_table,
    run_hj_convergence,
    run_negative_perturbation,
    run_stability_sweep,
)

# The public names are exactly those imported above (not the submodules).
__all__ = sorted(
    name for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _types.ModuleType)
) + ["__version__"]
