"""Quantum kicked top in the regular regime.

Exact Floquet spectra, the effective Hamiltonian of the driven top, the
semiclassical quasienergy landscape with its critical points, analytic and
numerical densities of quasienergy states, and the time-averaged
magnetization protocol that locates the landscape's saddle.
"""
__version__ = "0.1.0"

from .doqs import (
    DoqsCurve,
    LogFit,
    doqs_from_traces,
    doqs_histogram,
    estimate_jump,
    fit_log_divergence,
    integrated_doqs,
    midpoint_grid,
)
from .effective import (
    EffectiveSpectrum,
    MatchReport,
    SingularMatrixElementError,
    build_effective_hamiltonian,
    circular_distance,
    effective_spectrum,
    fold_quasienergy,
    match_spectra,
)
from .floquet import (
    FloquetSpectrum,
    KickedTopParams,
    build_floquet,
    diagonalize_floquet,
    floquet_kick,
    floquet_traces,
)
from .landscape import (
    BifurcationError,
    CensusError,
    CotangentPoleError,
    CriticalPoint,
    CriticalSet,
    analytic_doqs,
    classical_kick_map,
    classical_time_average,
    critical_amplitude,
    find_critical_points,
    jump_magnitude,
    log_divergence_approx,
    qel_grad_hess,
    qel_value,
)
from .protocol import (
    BRANCHES,
    ModeMagnetization,
    NoSaddleError,
    ProtocolResult,
    mode_magnetization,
    participation_ratio,
    run_protocol,
    time_averaged_observable,
)
from .spin import (
    BlochVector,
    OperatorSet,
    SpinSystem,
    StereoCoord,
    bloch_from_gamma,
    build_operators,
    coherent_state,
    gamma_from_bloch,
)

__all__ = [
    "__version__",
    # spin
    "SpinSystem",
    "OperatorSet",
    "BlochVector",
    "StereoCoord",
    "build_operators",
    "bloch_from_gamma",
    "gamma_from_bloch",
    "coherent_state",
    # floquet
    "KickedTopParams",
    "FloquetSpectrum",
    "floquet_kick",
    "build_floquet",
    "diagonalize_floquet",
    "floquet_traces",
    # effective
    "SingularMatrixElementError",
    "EffectiveSpectrum",
    "MatchReport",
    "build_effective_hamiltonian",
    "effective_spectrum",
    "fold_quasienergy",
    "circular_distance",
    "match_spectra",
    # landscape
    "CotangentPoleError",
    "BifurcationError",
    "CensusError",
    "CriticalPoint",
    "CriticalSet",
    "qel_value",
    "qel_grad_hess",
    "critical_amplitude",
    "find_critical_points",
    "analytic_doqs",
    "log_divergence_approx",
    "jump_magnitude",
    "classical_kick_map",
    "classical_time_average",
    # doqs
    "DoqsCurve",
    "LogFit",
    "midpoint_grid",
    "doqs_histogram",
    "doqs_from_traces",
    "integrated_doqs",
    "fit_log_divergence",
    "estimate_jump",
    # protocol
    "BRANCHES",
    "NoSaddleError",
    "ModeMagnetization",
    "ProtocolResult",
    "mode_magnetization",
    "time_averaged_observable",
    "participation_ratio",
    "run_protocol",
]
