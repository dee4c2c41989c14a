"""Moment matching, hierarchical abstractions, and interconnection simulation."""

from .linalg import (
    SpectrumReport,
    StateSpaceModel,
    block_diag_spectrum,
    eigenvalues,
    excitable,
    pbh_observable,
    pbh_reachable,
    place_poles,
    solve_lyapunov,
    solve_sylvester,
    spectra_disjoint,
)
from .moments import (
    DirectInterpolant,
    DirectMomentSolution,
    SwappedInterpolant,
    SwappedMomentSolution,
    moment_direct,
    moment_swapped,
    rom_direct,
    rom_swapped,
    rom_two_sided,
    tangential_mismatch_direct,
    tangential_mismatch_swapped,
    transfer_at,
    transfer_eval,
)
from .abstraction import (
    AbstractionDesign,
    SimulationCertificate,
    StabilizedLink,
    check_m_relation,
    design_abstraction,
    embedding_residuals,
    final_abstraction,
    gamma_gain,
    interface_eval,
    m_relation_residuals,
    simulation_fn_derivative,
    simulation_fn_value,
    synth_certificate,
)
from .signals import SignalSpec, Term
from .sim import (
    ErrorTrace,
    InterconnectionSpec,
    Trajectory,
    integrate,
    run_direct_generator,
    run_hierarchical,
    run_m_direct,
    run_swapped_filter,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
