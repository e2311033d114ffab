"""Digital self-interference cancellation for full-duplex massive-MIMO OFDM.

Simulates one OFDM symbol of a full-duplex node whose own transmit array
leaks into its receiver through multipath while every oscillator carries
Wiener phase noise, and provides two cancellers for it: the optimal weighted
linear canceller driven by the phase-noise statistics, and the conventional
least-squares baseline.  A seeded Monte Carlo harness sweeps INR, SNR and
oscillator quality and reports empirical and theoretical cancellation
ability.
"""

__version__ = "0.1.0"

from .cancellation import cancellation_ability
from .estimator import (
    EstimatorStatistics,
    SingularMatrixError,
    ls_estimate,
    ls_residual_power,
    si_covariance,
    si_spectrum,
    spectral_weights,
)
from .harness import (
    Scenario,
    SimConfig,
    SweepRecord,
    emit_csv,
    read_csv,
    run_trial,
    sweep,
    write_json_summary,
)
from .impairments import pn_covariance_table
from .ofdm import gen_bpsk_symbols

__all__ = [
    "EstimatorStatistics",
    "Scenario",
    "SimConfig",
    "SingularMatrixError",
    "SweepRecord",
    "cancellation_ability",
    "emit_csv",
    "gen_bpsk_symbols",
    "ls_estimate",
    "ls_residual_power",
    "pn_covariance_table",
    "read_csv",
    "run_trial",
    "si_covariance",
    "si_spectrum",
    "spectral_weights",
    "sweep",
    "write_json_summary",
]
