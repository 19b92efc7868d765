"""Moment matrices of classical bosonic ODE systems in truncated Fock space.

The package encodes weighted ensembles of classical states (phi, pi) as
coherent-state moment matrices, evolves them under either the quantum
Liouville law or the classical-flow master equation, quantifies the gap
between the two flux predictions in closed form, and reproduces the
squeeze-recoding divergence and its doubled-space escape, all at dense
desk scale.
"""

__version__ = "0.1.0"

from .algebra import (
    NormalFormOperator,
    commutator,
    hermitian_pair_check,
    nested_commutator_order,
    normal_order_product,
    poly_to_normal_form,
)
from .discrepancy import (
    DiscrepancyReport,
    classical_flux,
    discrepancy_closed_form,
    discrepancy_direct,
    discrepancy_report,
    flux_operator,
    iee_check,
    quantum_flux,
    rescale_field,
    scaling_condition_residual,
)
from .evolution import (
    MasterTerms,
    density_generator,
    evolve_density,
    master_rhs,
    time_average_project,
)
from .fock import (
    FockMatrix,
    interior_indices,
    operator_trace,
    realize_matrix,
)
from .poly import PolyExpr, PolyParseError, parse_poly
from .reify import (
    PoleError,
    ReificationTrace,
    flow_coeffs,
    m_operator,
    norm_flow_residual,
    paradox_demo,
    rho_z_trace,
    s_operator,
)
from .states import (
    AmplitudeOverflowError,
    ClassicalState,
    Ensemble,
    ensemble_density,
    expectation,
    extended_wavefunction,
    hamilton_rhs,
    integrate_ensemble,
    integrate_state,
    pseudo_wavefunction,
    pure_density,
)

__all__ = [name for name in dir() if not name.startswith("_")]
