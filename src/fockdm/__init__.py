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
    normal_order_product,
    poly_to_normal_form,
)
from .discrepancy import (
    DiscrepancyReport,
    discrepancy_closed_form,
    discrepancy_report,
    ensemble_fluxes,
    flux_operator,
    iee_check,
    quantum_flux,
    rescale_field,
    scaling_condition_residual,
)
from .evolution import (
    MasterTerms,
    density_samples,
    evolve_density,
    liouville_flow,
    master_rhs,
)
from .fock import (
    FockMatrix,
    compile_operator,
    eigensystem,
    interior_indices,
    operator_trace,
    realize_matrix,
)
from .poly import PolyExpr, PolyParseError, parse_poly
from .reify import (
    PoleError,
    ReificationTrace,
    flow_coeffs,
    rho_z_trace,
)
from .states import (
    AmplitudeOverflowError,
    ClassicalState,
    Ensemble,
    ensemble_density,
    expectation,
    extended_wavefunction,
    integrate_state,
    pseudo_wavefunction,
    pure_density,
)

__all__ = [name for name in dir() if not name.startswith("_")]
