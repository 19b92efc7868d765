"""Moment matrices of classical bosonic ODE systems in truncated Fock space.

The package encodes weighted ensembles of classical states (phi, pi) as
coherent-state moment matrices, evolves them under either the quantum
Liouville law or the classical-flow master equation, quantifies the gap
between the two flux predictions in closed form, and reproduces the
squeeze-recoding divergence and its doubled-space escape, all at dense
desk scale.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# One BLAS thread, set before the first submodule loads numpy: no fockdm
# product or eigh is large enough to gain from a second thread, and an
# OpenBLAS worker spins for about 0.1 s after numpy loads and after each
# threaded call, doubling a run's CPU time.  A value the caller set is kept.
# A process that loaded numpy first keeps the pool it has, and its
# environment, which its child processes inherit, is left alone.
if "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
    ensemble_fluxes,
    flux_operator,
    quantum_flux,
    rescale_field,
    scaling_condition_residual,
    sweep_fluxes,
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
    ProductMembers,
    compile_operator,
    compile_words,
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
