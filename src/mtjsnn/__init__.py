"""Deterministic simulator and trainer for latency-coded spiking networks
built from threshold/latency/refraction (TLR) neurons with an optional
macrospin (MTJ + NMOS) physics backend."""

from .errors import (
    ConfigError,
    DivergenceError,
    InsufficientDataError,
    InvalidInputError,
    InvalidStateError,
    MtjsnnError,
    NumericalFailureError,
)
from .macrospin import CalibrationResult, MacrospinParams, MacrospinState, calibrate_tlr
from .network import Network, Neuron, SimConfig, Source, Synapse, Trace, simulate_network
from .tlr import TlrParams, constant_drive_latency, run_tlr
from .trainer import TrainConfig, TrainHistory, train
from .xorbench import (
    EncodingConfig,
    XorReport,
    XorRow,
    build_xor_network,
    run_xor_eval,
    xor_dataset,
)

__version__ = "1.0.0"

__all__ = [
    "CalibrationResult",
    "ConfigError",
    "DivergenceError",
    "EncodingConfig",
    "InsufficientDataError",
    "InvalidInputError",
    "InvalidStateError",
    "MacrospinParams",
    "MacrospinState",
    "MtjsnnError",
    "Network",
    "Neuron",
    "NumericalFailureError",
    "SimConfig",
    "Source",
    "Synapse",
    "TlrParams",
    "Trace",
    "TrainConfig",
    "TrainHistory",
    "XorReport",
    "XorRow",
    "build_xor_network",
    "calibrate_tlr",
    "constant_drive_latency",
    "run_tlr",
    "run_xor_eval",
    "simulate_network",
    "train",
    "xor_dataset",
]
