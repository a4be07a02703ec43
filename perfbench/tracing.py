"""Span tracing installed from outside the package.

Timing wrappers replace public functions on gatelab's module attributes for
the length of a ``with instrument(tracer):`` block.  A span records its name,
start, end, parent and a few counts taken from the call's arguments or
result; spans stay in memory until the run writes them out.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), parent=parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.duration
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced


def _m_of_first_arg(args, kwargs, result):
    return {"m": args[0].m}


def _simulate_counts(args, kwargs, result):
    m = result.mean_bits.shape[0] - 1
    return {"samples": result.samples, "gate_samples": m * result.samples}


def _extract_counts(args, kwargs, result):
    # One round per extracted direction, plus the round that found no
    # candidate when the loop ended before its 2n cap.
    extracted = result[0].size + result[1].size
    return {"rounds": extracted + (extracted < 2 * args[0].n)}


def _targets():
    from gatelab import bottleneck, cli, directions, gates, potential, quantized

    return [
        (gates, "read_algorithm", None),
        (gates, "validate", _m_of_first_arg),
        (potential, "trace_potential", _m_of_first_arg),
        (potential, "sweep_unit_pair_bound", None),
        (potential, "sweep_orthogonal_change_bound", None),
        (potential, "sweep_nonsingular_change_bound", None),
        (bottleneck, "scan_bottlenecks", None),
        (bottleneck, "verify_bottleneck_chain", None),
        (bottleneck, "sweep_fourier_projection_bound", None),
        (directions, "extract_directions", _extract_counts),
        (directions, "extend_basis", None),
        (quantized, "simulate", _simulate_counts),
        (quantized, "underflow_widths", None),
        (cli, "main", None),
        # quantized imports these by name, so its namespace needs its own wrappers.
        (quantized, "extract_directions", _extract_counts, directions),
        (quantized, "extend_basis", None, directions),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers; restore the original attributes on exit."""
    saved = []
    try:
        for module, attr, counts, *home in _targets():
            layer = (home[0] if home else module).__name__.rsplit(".", 1)[-1]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(f"{layer}.{attr}", original, counts))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
