"""Simulator and security-analysis toolkit for single-pulse ring-topology
quantum secret sharing with coherent pulses."""

from .adversary import eve_mean_photons
from .analysis import error_curve, monte_carlo_p_error, p_error_closed_form
from .channel import transmission
from .config import SimConfig
from .protocol import VerdictKind, decode_table, key_digest, run_session

__version__ = "0.1.0"

__all__ = [
    "SimConfig",
    "VerdictKind",
    "decode_table",
    "error_curve",
    "eve_mean_photons",
    "key_digest",
    "monte_carlo_p_error",
    "p_error_closed_form",
    "run_session",
    "transmission",
]
