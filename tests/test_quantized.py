import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatelab import quantized
from gatelab.builders import build_dft_real, build_random
from gatelab.layering import VectorWalk
from gatelab.model import touched
from gatelab import (
    Constant,
    LinearAlgorithm,
    Rotation,
    build_inverse_scaled_fixture,
    build_scaled_bottleneck_fixture,
    build_wht,
    empirical_uncertainty_check,
    extend_basis,
    extract_directions,
    quantize,
    simulate,
    underflow_widths,
)

from oracles import (
    matrices_at,
    most_informative_cell_reference,
    run_stats_events,
    simulate_reference,
    spawned_normal_draws,
)

EPS = 2.0**-10


def test_quantize_rounds_to_grid_ties_even():
    eps = 0.5
    vals = np.array([0.24, 0.25, 0.75, -0.25, 1.1])
    got = quantize(vals, eps)
    assert np.allclose(got, [0.0, 0.0, 1.0, 0.0, 1.0])


def test_quantize_is_idempotent():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1000)
    once = quantize(x, EPS)
    assert np.array_equal(quantize(once, EPS), once)


def test_transform_keeps_bit_usage_flat():
    stats = simulate(build_wht(8), epsilon=EPS, samples=10_000, seed=3, word_budget=32.0)
    assert not stats.overflow_flags.any()
    assert stats.mean_bits.min() >= 1.0
    assert stats.mean_bits.max() - stats.mean_bits.min() < 1.0
    assert stats.mean_bits.max() - stats.mean_bits[0].max() <= 1.0


def test_scaled_fixture_flags_exactly_the_scaled_cells():
    a = build_scaled_bottleneck_fixture(8, 2.0**8, 4)
    stats = simulate(a, epsilon=EPS, samples=10_000, seed=3, word_budget=16.0)
    expected = {(t, i) for i in range(4) for t in range(i + 1, i + 5)}
    assert set(stats.flagged_cells()) == expected
    for t, i in expected:
        lift = stats.mean_bits[t, i] - stats.mean_bits[0, i]
        assert abs(lift - 8.0) < 0.5


def test_huge_epsilon_rounds_everything_away():
    stats = simulate(build_wht(4), epsilon=1e6, samples=200, seed=1)
    assert np.array_equal(stats.mean_bits, np.ones_like(stats.mean_bits))
    assert np.array_equal(stats.max_abs, np.zeros_like(stats.max_abs))


def test_simulation_is_deterministic():
    a = build_wht(8)
    s1 = simulate(a, epsilon=EPS, samples=500, seed=42)
    s2 = simulate(a, epsilon=EPS, samples=500, seed=42)
    assert np.array_equal(s1.mean_bits, s2.mean_bits)
    assert np.array_equal(s1.max_abs, s2.max_abs)
    s3 = simulate(a, epsilon=EPS, samples=500, seed=43)
    assert not np.array_equal(s1.mean_bits, s3.mean_bits)


def test_doubling_sigma_adds_one_bit():
    a = build_wht(8)
    base = simulate(a, epsilon=EPS, sigma=1.0, samples=100_000, seed=7)
    doubled = simulate(a, epsilon=EPS, sigma=2.0, samples=100_000, seed=7)
    diff = doubled.mean_bits - base.mean_bits
    assert abs(diff - 1.0).max() < 0.1


def test_simulation_rejects_bad_parameters():
    a = build_wht(4)
    with pytest.raises(ValueError):
        simulate(a, epsilon=0.0)
    with pytest.raises(ValueError):
        simulate(a, epsilon=EPS, samples=0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**130),
    lo=st.integers(min_value=0, max_value=150),
    count=st.integers(min_value=1, max_value=60),
    n=st.integers(min_value=2, max_value=1100),
    sigma=st.sampled_from([1.0, 2.0, 0.125, 3.7, 0.0]),
)
@example(seed=0, lo=0, count=5, n=2, sigma=1.0)
@example(seed=2**32 + 5, lo=3, count=4, n=3, sigma=2.0)
@example(seed=2**128 + 1, lo=0, count=3, n=64, sigma=0.125)
# more children than one slice of seeding words, and more than one buffer
# of rows (2**15 floats hold 512 rows of 64)
@example(seed=5, lo=1000, count=1100, n=3, sigma=3.7)
@example(seed=2**64 + 3, lo=7, count=600, n=64, sigma=2.0)
@example(seed=9, lo=0, count=2100, n=2, sigma=1.0)
# sigma = 0 draws +0.0, never -0.0
@example(seed=4, lo=1, count=30, n=5, sigma=0.0)
# a row longer than the buffer: one child per fill
@example(seed=1, lo=2, count=3, n=40_000, sigma=1.0)
def test_draw_inputs_match_spawned_reference(seed, lo, count, n, sigma):
    # seeds above 2**128 take five entropy words, one more than the pool holds;
    # a uint32 overflow warning from the bulk hash would be an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = quantized._draw_inputs(seed, lo, lo + count, sigma, n)
    # bytes, so that -0.0 against 0.0 counts as a difference
    assert got.tobytes() == spawned_normal_draws(seed, lo, lo + count, sigma, n).tobytes()


def test_results_do_not_depend_on_chunking(monkeypatch):
    a = build_scaled_bottleneck_fixture(8, 2.0**8, 4)
    w = build_wht(4)
    _, Minv_T = matrices_at(w, 1)
    z = Minv_T[0] / np.linalg.norm(Minv_T[0])
    samples = 1000
    whole = simulate(a, epsilon=EPS, samples=samples, seed=11, word_budget=16.0)
    check = empirical_uncertainty_check(w, 2.0**-6, z, samples=samples, seed=5, step=1, coord=0)
    # chunks of 137 and 333 samples: several full chunks and an uneven last one
    monkeypatch.setattr(quantized, "_CHUNK_BUDGET", 8 * 137)
    chunked = simulate(a, epsilon=EPS, samples=samples, seed=11, word_budget=16.0)
    monkeypatch.setattr(quantized, "_CHUNK_BUDGET", 4 * 333)
    assert empirical_uncertainty_check(
        w, 2.0**-6, z, samples=samples, seed=5, step=1, coord=0
    ) == check
    assert np.array_equal(chunked.max_abs, whole.max_abs)
    assert np.array_equal(chunked.overflow_flags, whole.overflow_flags)
    # means sum each chunk pairwise, so only the summation order differs; two
    # orders of n positive terms agree within (n - 1) * eps relative
    rtol = samples * np.finfo(float).eps
    assert np.allclose(chunked.mean_bits, whole.mean_bits, rtol=rtol, atol=0.0)


_SIMULATED = {
    "wht32": build_wht(32),
    "dft16": build_dft_real(16),
    "scaled16": build_scaled_bottleneck_fixture(16, 2.0**40, 4),
    "random12": build_random(12, 80, 3),
    "empty": LinearAlgorithm(4, ()),
    # overflows to inf and then nan: those cells must match too
    "overflow": LinearAlgorithm(
        2, (Constant(0, 1e200), Constant(0, 1e200), Rotation(0, 1, 0.5))
    ),
}


@pytest.mark.parametrize("chunk", [None, 1, 37])
@pytest.mark.parametrize("name", list(_SIMULATED))
def test_simulate_matches_the_gate_object_reference_bit_for_bit(name, chunk, monkeypatch):
    algorithm, samples = _SIMULATED[name], 100
    if chunk:
        monkeypatch.setattr(quantized, "_CHUNK_BUDGET", algorithm.n * chunk)
    with np.errstate(all="ignore"):
        got = simulate(algorithm, epsilon=EPS, samples=samples, seed=17, word_budget=20.0)
        want = simulate_reference(
            algorithm, EPS, samples=samples, seed=17, word_budget=20.0, chunk=chunk
        )
    assert got.mean_bits.tobytes() == want.mean_bits.tobytes()
    assert got.max_abs.tobytes() == want.max_abs.tobytes()
    assert np.array_equal(got.overflow_flags, want.overflow_flags)


@pytest.mark.parametrize("chunk", [None, 1, 37])
def test_simulate_rotates_in_its_scoring_row_bit_for_bit(chunk, monkeypatch):
    # one scratch: the rotations' two rows are the start of the scoring row,
    # here 7 columns wide, so each rotation of 100 samples goes in slices
    algorithm, samples = build_dft_real(16), 100
    monkeypatch.setattr(quantized, "ROTATE_COLUMNS", 7)
    if chunk:
        monkeypatch.setattr(quantized, "_CHUNK_BUDGET", algorithm.n * chunk)
    lent, scored = [], []
    real_replay, real_score = quantized.replay, quantized._score_rows
    monkeypatch.setattr(quantized, "replay", lambda *args, scratch: lent.append(scratch)
                        or real_replay(*args, scratch=scratch))
    monkeypatch.setattr(quantized, "_score_rows", lambda *args: scored.append(args[-1])
                        or real_score(*args))
    got = simulate(algorithm, epsilon=EPS, samples=samples, seed=17, word_budget=20.0)
    want = simulate_reference(algorithm, EPS, samples=samples, seed=17, word_budget=20.0,
                              chunk=chunk)
    assert got.mean_bits.tobytes() == want.mean_bits.tobytes()
    assert got.max_abs.tobytes() == want.max_abs.tobytes()
    width = min(7, chunk or samples)
    assert all(s.shape == (2, width) for s in lent)
    assert np.shares_memory(lent[0], scored[0]) and np.shares_memory(lent[-1], scored[-1])


@settings(max_examples=200, deadline=None)
@given(stats=run_stats_events(word_budget=st.sampled_from([0.0, 1.0, 32.0, 1e308])))
@example(  # m = 0: the input rows are the only events
    stats=quantized.QuantizedRunStats(
        epsilon=EPS, sigma=1.0, samples=1, word_budget=1.0, steps=np.zeros(3, dtype=int),
        rows=np.arange(3), event_bits=np.array([2.0, 1.0, 3.0]), event_max=np.ones(3),
    )
)
def test_flagged_cells_are_the_flagged_cells_of_the_filled_grid(stats):
    want = [(int(t), int(i)) for t, i in np.argwhere(stats.overflow_flags)]
    assert stats.flagged_cells() == want


def test_filled_grids_carry_each_row_to_its_next_event():
    # row 2 is flagged at t = 0 and never touched again; row 0 is flagged on
    # the last step only
    stats = quantized.QuantizedRunStats(
        epsilon=EPS, sigma=1.0, samples=1, word_budget=2.0,
        steps=np.array([0, 0, 0, 1, 1, 2]), rows=np.array([0, 1, 2, 1, 0, 0]),
        event_bits=np.array([1.0, 1.5, 3.0, 2.5, 1.0, 4.0]),
        event_max=np.arange(6.0),
    )
    assert stats.shape == (3, 3)
    assert stats.mean_bits.tolist() == [[1.0, 1.5, 3.0], [1.0, 2.5, 3.0], [4.0, 2.5, 3.0]]
    assert stats.max_abs.tolist() == [[0.0, 1.0, 2.0], [4.0, 3.0, 2.0], [5.0, 3.0, 2.0]]
    assert stats.flagged_cells() == [(0, 2), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    assert stats.flagged_cells() == [(t, i) for t, i in np.argwhere(stats.overflow_flags)]


def test_simulate_events_are_the_rows_each_step_rewrites():
    algorithm = build_scaled_bottleneck_fixture(8, 2.0**8, 4)
    stats = simulate(algorithm, epsilon=EPS, samples=10, seed=1)
    want = [(0, i) for i in range(8)]
    for t, gate in enumerate(algorithm.gates, start=1):
        want += [(t, r) for r in touched(gate)]
    assert list(zip(stats.steps.tolist(), stats.rows.tolist())) == want


@pytest.mark.parametrize("chunk, calls", [(None, 1), (1, 100), (37, 3)])
def test_simulate_replays_once_per_chunk(chunk, calls, monkeypatch):
    algorithm = build_wht(8)
    if chunk:
        monkeypatch.setattr(quantized, "_CHUNK_BUDGET", algorithm.n * chunk)
    seen = []
    real = quantized.replay

    def counted(*args, **kwargs):
        seen.append(args[1].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(quantized, "replay", counted)
    simulate(algorithm, epsilon=EPS, samples=100, seed=2)
    assert len(seen) == calls
    assert sum(shape[1] for shape in seen) == 100


def test_draws_reject_negative_seeds_and_too_many_samples():
    a = build_wht(4)
    z = np.eye(4)[0]
    for seed in (-1, None, 1.5):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}"):
            simulate(a, epsilon=EPS, seed=seed)
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}"):
            empirical_uncertainty_check(a, EPS, z, seed=seed)
    with pytest.raises(ValueError, match="at most 2\\*\\*32 samples"):
        simulate(a, epsilon=EPS, samples=2**32 + 1)
    with pytest.raises(ValueError, match="at most 2\\*\\*32 samples"):
        empirical_uncertainty_check(a, EPS, z, samples=2**32 + 1)


def test_underflow_widths_on_plain_transform():
    report = underflow_widths(build_wht(8), epsilon=EPS, tau=2.0)
    assert report.system.size == 0
    assert report.widths == [EPS] * 8
    assert report.volume_log == 0.0


def test_underflow_widths_on_inverse_fixture():
    report = underflow_widths(build_inverse_scaled_fixture(8, 4.0, 4), epsilon=EPS, tau=2.0)
    assert report.system.size == 4
    assert report.widths[:4] == [4.0 * EPS] * 4
    assert report.widths[4:] == [EPS] * 4
    assert abs(report.volume_log - 8.0) < 1e-9
    assert report.basis.u_vectors.shape == (8, 8)


def test_records_that_hold_arrays_compare_by_identity():
    # an elementwise array comparison has no truth value, so these records
    # compare as objects: == and in give bools instead of raising
    a = build_inverse_scaled_fixture(8, 4.0, 4)

    def records():
        _, under = extract_directions(a, tau=2.0)
        return (under, extend_basis(under, a.n), underflow_widths(a, epsilon=EPS, tau=2.0),
                simulate(a, epsilon=EPS, samples=5))

    for x, y in zip(records(), records()):
        assert (x == x) is True and (x in [x]) is True and (x != y) is True


def test_underflow_widths_reject_a_non_positive_epsilon():
    a = build_inverse_scaled_fixture(8, 4.0, 4)
    for eps in (0.0, -1.0):
        with pytest.raises(ValueError, match="quantization step must be positive"):
            underflow_widths(a, epsilon=eps)


def test_width_formula_at_machine_epsilon():
    # a single direction of magnitude sqrt(log2(n)/2) at word accuracy 2^-31
    eps = 2.0**-31
    n = 1024
    gamma = math.sqrt(math.log2(n) / 2.0)
    width = eps * gamma
    assert abs(width - 2.0**-31 * math.sqrt(5.0)) < 1e-18


def test_uncertainty_check_constants_only_fixture():
    a = LinearAlgorithm(4, (Constant(0, 3.0), Constant(0, 1.0 / 3.0)))
    z = np.zeros(4)
    z[0] = 1.0
    r = empirical_uncertainty_check(a, 2.0**-6, z, samples=40_000, seed=5)
    assert r.step == 2 and r.coord == 0
    assert abs(r.predicted_width - 2.0**-6) < 1e-15
    assert r.status == "ok"
    assert 0.5 * r.predicted_width <= r.measured_spread <= 2.0 * r.predicted_width


def test_uncertainty_check_inverse_fixture_direction():
    a = build_inverse_scaled_fixture(8, 4.0, 4)
    _, under = extract_directions(a, tau=2.0)
    r = empirical_uncertainty_check(
        a, 2.0**-6, under.vectors[0], samples=40_000, seed=5,
        step=under.steps[0], coord=under.coords[0],
    )
    assert abs(r.predicted_width - 4.0 * 2.0**-6) < 1e-12
    assert r.status == "ok"


def test_uncertainty_check_orthogonal_row_direction():
    a = build_wht(4)
    _, Minv_T = matrices_at(a, 1)
    z = Minv_T[0] / np.linalg.norm(Minv_T[0])
    r = empirical_uncertainty_check(a, 2.0**-6, z, samples=40_000, seed=5, step=1, coord=0)
    assert abs(r.predicted_width - 2.0**-6) < 1e-12
    assert r.status == "ok"


def test_uncertainty_check_inconclusive_with_few_samples():
    a = build_wht(4)
    _, Minv_T = matrices_at(a, 1)
    z = Minv_T[0] / np.linalg.norm(Minv_T[0])
    r = empirical_uncertainty_check(a, 2.0**-6, z, samples=40, seed=5, step=1, coord=0)
    assert r.status == "inconclusive"
    assert r.measured_spread is None and r.ratio is None and r.bins_used == 0


def test_uncertainty_check_rejects_a_step_out_of_range():
    a = build_wht(4)
    z = np.zeros(4)
    z[0] = 1.0
    for step in (-1, a.m + 1):
        with pytest.raises(ValueError, match=f"step index {step} out of range"):
            empirical_uncertainty_check(a, EPS, z, step=step, coord=0)


def test_uncertainty_check_validates_direction():
    a = build_wht(4)
    with pytest.raises(ValueError):
        empirical_uncertainty_check(a, EPS, np.ones(4))
    with pytest.raises(ValueError):
        empirical_uncertainty_check(a, EPS, np.ones(3) / math.sqrt(3))


@pytest.mark.parametrize(
    "algorithm",
    [build_wht(8), build_wht(64), build_dft_real(16), build_dft_real(64),
     build_random(16, 200, 1), build_random(64, 1000, 2), build_random(32, 300, 3, angle_only=True)],
    ids=["wht8", "wht64", "dft16", "dft64", "random16", "random64", "random32-angles"],
)
def test_most_informative_cell_matches_the_replay_loop(algorithm):
    rng = np.random.default_rng(algorithm.n)
    walk = VectorWalk(algorithm)
    for _ in range(3):
        z = rng.standard_normal(algorithm.n)
        z /= np.linalg.norm(z)
        assert quantized._most_informative_cell(walk, z) == most_informative_cell_reference(
            algorithm, z
        )
    # exact ties (a reflection repeats a row's weight) go to the smallest step
    z = np.zeros(algorithm.n)
    z[0] = 1.0
    assert quantized._most_informative_cell(walk, z) == most_informative_cell_reference(
        algorithm, z
    )
