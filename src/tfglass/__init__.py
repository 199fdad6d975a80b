"""Free energies and phase diagrams of hierarchical spin glasses in a
transversal magnetic field, with exact finite-size verification."""

from .classical import (
    PartialPressureTable,
    classical_pressure,
    crem_truncated_pressure,
    partial_pressures,
)
from .errors import CapacityError, DomainError, ValidationError
from .model import (
    ConcaveHull,
    DistributionSpec,
    FieldLaw,
    FieldSpec,
    ProfileKind,
    concave_hull,
    paramagnetic_pressure,
    sample_weights,
)
from .nonhier import (
    Chain,
    NonHierModel,
    chain_grem,
    classical_nonhier_pressure,
    greedy_chain,
    greedy_quantum_pressure,
    greedy_reduction,
    quantum_nonhier_pressure,
)
from .quantum import (
    QuantumPressureResult,
    Transition,
    TransitionOrder,
    magnetization,
    qcrem_closed_form,
    qcrem_pressure,
    qgrem_critical_fields,
    qgrem_pressure,
    transition_scan,
)
from .verify import (
    ConcentrationReport,
    ConvergenceStudy,
    FiniteInstance,
    concentration_check,
    convergence_study,
    exact_pressure,
    sample_instance,
    sign_invariance_check,
    stochastic_pressure,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
