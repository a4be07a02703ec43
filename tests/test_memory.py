"""Memory regression: what the potential kernel and ``simulate`` allocate.

``tracemalloc`` counts numpy's array buffers, so the peak it reports over a
call is the most the call held at once beyond what existed before it.  A
walk holds one column panel of A and of B (2nw floats, w = ``panel_width(n)``)
plus one fixed workspace; an extraction holds its two n x n bases and
nothing else of that size; ``validate`` holds M and M^{-T} plus a few rows;
``simulate`` holds one n x chunk sample array plus its touch events (at most
n + 2m), and its draws one row buffer of at most 2**15 floats beside that
array; a lemma sweep holds one chunk of draws (``lemma.SWEEP_ELEMENTS``
floats) and what it evaluates, whatever its number of trials.
"""

import tracemalloc

import numpy as np
import pytest

# imported before any measurement: the first ``simulate`` in a process
# would otherwise count the lazy import of ``numpy.random`` in its peak
import gatelab._seeds  # noqa: F401
from gatelab import (
    build_wht,
    complex_quasi_entropy,
    extract_directions,
    quasi_entropy,
    scan_bottlenecks,
    trace_potential,
    validate,
    verify_bottleneck_chain,
)
from gatelab import lemma
from gatelab.gates import panel_width
from gatelab.potential import row_contribs
from gatelab.quantized import _draw_inputs, simulate

MB = 1 << 20


def _peak(call) -> int:
    """Bytes ``call()`` held at its peak beyond what was live before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("function", [quasi_entropy, row_contribs, complex_quasi_entropy])
def test_dense_potentials_need_no_full_size_temporaries(function):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((1024, 1024))
    B = rng.standard_normal((1024, 1024))
    assert _peak(lambda: function(A, B)) <= 1 * MB


@pytest.mark.parametrize("walk", [trace_potential, scan_bottlenecks, verify_bottleneck_chain])
def test_walks_hold_the_two_matrices_and_a_fixed_workspace(walk):
    # the two matrices one column panel at a time: 4 panels of 256 columns
    algorithm = build_wht(1024)
    two_panels = 2 * algorithm.n * panel_width(algorithm.n) * 8
    assert _peak(lambda: walk(algorithm)) <= two_panels + 4 * MB


def test_extraction_holds_its_two_bases_and_no_dense_target():
    # the bases (2n^2 floats) and fixed-size blocks: no n x n transform for
    # the target check, no whole Gram matrix; at n = 1024, where n^2 floats
    # outweigh the 1.5 MiB workspace
    algorithm = build_wht(1024)
    algorithm.arrays  # compiled before the measurement
    assert _peak(lambda: extract_directions(algorithm)) <= 3 * algorithm.n**2 * 8


def test_validate_holds_the_two_matrices_and_no_full_size_product():
    # the compiled gate arrays and the replay's gate columns take the rest
    algorithm = build_wht(256)
    assert _peak(lambda: validate(algorithm)) <= 3 * algorithm.n**2 * 8


def test_validate_converts_the_gate_columns_in_bounded_chunks():
    # M and M^-T, the compiled gate arrays and the kappas; no gate columns
    # held as Python numbers for the whole walk (0.45 n^2 floats more)
    algorithm = build_wht(256)
    algorithm.arrays  # compiled before the measurement
    assert _peak(lambda: validate(algorithm)) <= 2.5 * algorithm.n**2 * 8


def test_simulate_holds_one_sample_array():
    algorithm = build_wht(32)
    samples = 50_000
    one_array = algorithm.n * samples * 8
    assert _peak(lambda: simulate(algorithm, 2**-10, samples=samples)) <= one_array + 1 * MB


def test_simulate_keeps_its_statistics_per_touch_event():
    # 21,504 events, not two 10,241 x 1,024 cell grids (168 MB)
    algorithm = build_wht(1024)
    algorithm.arrays  # compiled before the measurement
    samples = 1000
    one_array = algorithm.n * samples * 8
    assert _peak(lambda: simulate(algorithm, 2**-10, samples=samples)) <= one_array + 2 * MB


def test_draws_hold_the_sample_array_and_one_row_buffer():
    # at n = 1024 the 256 kB buffer holds 32 rows, so 600 samples refill it
    # 19 times; the seeding words of a block of children take a few kB more
    n, samples = 1024, 600
    one_array = n * samples * 8
    assert _peak(lambda: _draw_inputs(7, 0, samples, 1.0, n)) <= one_array + 512 * 1024


@pytest.mark.parametrize(
    "sweep, trials",
    [
        (lemma.sweep_unit_pair_bound, 2000),
        (lemma.sweep_orthogonal_change_bound, 200),
        (lemma.sweep_nonsingular_change_bound, 200),
        (lambda trials: lemma.sweep_fourier_projection_bound(32, trials), 20),
    ],
    ids=["unit-pair", "orthogonal", "nonsingular", "projection"],
)
def test_lemma_sweeps_hold_one_chunk_whatever_their_trials(sweep, trials):
    # ten times the trials: ten times the chunks, each evaluated and freed
    # before the next, and no per-trial lists
    one_chunk = lemma.SWEEP_ELEMENTS * 8
    sweep(5)  # loads lemma and builds numpy's caches before the measurement
    assert _peak(lambda: sweep(10 * trials)) <= _peak(lambda: sweep(trials)) + one_chunk
    assert _peak(lambda: sweep(10 * trials)) <= 3 * one_chunk
