"""Simulator and protocol compiler for dipole-blockaded atomic ensembles.

Collective storage and Rydberg-manifold excitations of an N-atom register
are evolved under pulse schedules; compilers produce collective Rabi
pulses, Fock-ladder and arbitrary-superposition synthesis sequences, and a
three-step conditional phase gate, together with the analytic error budget
and pair-splitting statistics of the blockade mechanism.

Units: lengths um, times us, angular frequencies rad/us.
"""

from .dynamics import (
    EvolutionResult,
    Pulse,
    Register,
    SampledEnvelope,
    Schedule,
    StiffnessError,
    Wait,
    accumulated_phase,
    evolve,
    fidelity,
    wrap_phase,
)
from .errors import (
    BlockadeScalingResult,
    ErrorEstimate,
    atom_number_sensitivity,
    blockade_scaling_experiment,
    dephasing_norm_loss,
    estimate_budget,
    p_deph_estimate,
    p_doub_estimate,
    p_doub_geometry,
    regime_check,
)
from .geometry import (
    GeometryError,
    SplittingHistogram,
    analytic_splitting_pdf,
    coupling_matrix,
    kappa_bar,
    sample_positions,
    splitting_distribution,
    splitting_ks,
)
from .hilbert import (
    Basis,
    BasisError,
    Operator,
    collective_op,
    dephasing_term,
    dipole_term,
    drive_term,
    enumerate_basis,
    hermiticity_defect,
    number_op,
    symmetric_embedding,
)
from .oracle import oracle_equivalence, oracle_schedules
from .protocols import (
    CompilationError,
    GateTruthTable,
    TargetSuperposition,
    fock_ladder,
    gate_truth_table,
    phase_gate_schedule,
    rabi_pulse,
    register_basis,
    superposition_schedule,
)
from .units import parse_frequency

__version__ = "0.1.0"
