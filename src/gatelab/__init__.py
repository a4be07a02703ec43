"""gatelab: analysis lab for in-place rotation/constant gate algorithms.

The names below load their home module on first access (PEP 562), so
``import gatelab`` alone loads neither numpy nor the analysis modules.
"""

import importlib

__version__ = "0.1.0"

# Each public name's home module.
_EXPORTS = {
    "model": (
        "Constant",
        "Gate",
        "LinearAlgorithm",
        "ParseError",
        "Rotation",
        "is_reflection",
        "parse_algorithm",
        "render_algorithm",
        "touched",
        "write_algorithm",
    ),
    "gates": (
        "apply_to_vector",
        "read_algorithm",
        "replay",
        "validate",
    ),
    "builders": (
        "FixtureSpec",
        "build_dft_real",
        "build_fixture",
        "build_inverse_scaled_fixture",
        "build_random",
        "build_scaled_bottleneck_fixture",
        "build_wht",
        "dft_real_matrix",
        "wht_matrix",
    ),
    "potential": (
        "PotentialTrace",
        "complex_quasi_entropy",
        "quasi_entropy",
        "trace_potential",
    ),
    "bottleneck": (
        "BottleneckReport",
        "ChainReport",
        "scan_bottlenecks",
        "verify_bottleneck_chain",
    ),
    "lemma": (
        "FourierProjectionReport",
        "verify_fourier_projection_bound",
    ),
    "directions": (
        "DirectionSystem",
        "ExtendedBasis",
        "VolumeBound",
        "extend_basis",
        "extract_directions",
        "speedup_factor",
        "uncertainty_volume_log",
    ),
    "quantized": (
        "QuantizedRunStats",
        "UncertaintyCheck",
        "UnderflowReport",
        "empirical_uncertainty_check",
        "quantize",
        "simulate",
        "underflow_widths",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
