import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatelab import (
    build_dft_real,
    build_inverse_scaled_fixture,
    build_random,
    build_scaled_bottleneck_fixture,
    build_wht,
    complex_quasi_entropy,
    quasi_entropy,
    trace_potential,
)
from gatelab import gates, potential
from gatelab.gates import BLOCK_ELEMENTS
from gatelab.lemma import (
    UNIT_PAIR_SHARP_DIM2,
    sweep_nonsingular_change_bound,
    sweep_orthogonal_change_bound,
    sweep_unit_pair_bound,
)
from gatelab.cli import parse_operator
from gatelab.potential import change_bound, ledger_walk

from oracles import (
    dft_embedding_matrix,
    entry_terms_reference,
    matrices_at,
    panel_instances,
    potential_brute,
    row_contribs_reference,
    trace_bounds_reference,
    units_awake_reference,
    within_drift,
    wht_sign_matrix,
)


def test_value_on_walsh_hadamard_pair():
    F = wht_sign_matrix(8)
    assert abs(quasi_entropy(F, F) - 24.0) < 1e-10


def test_value_on_identity_is_zero():
    assert quasi_entropy(np.eye(5), np.eye(5)) == 0.0


def test_uniform_unit_pair_attains_log_dimension():
    x = np.full((2, 1), 1 / math.sqrt(2))
    assert abs(quasi_entropy(x, x) - 1.0) < 1e-12


def test_agrees_with_brute_force():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 7))
    B = rng.standard_normal((5, 7))
    assert abs(quasi_entropy(A, B) - potential_brute(A, B)) < 1e-10


def _pair(rng: np.random.Generator, rows: int, cols: int):
    """A Gaussian pair with exact zeros, a row of them, and entry products
    below ZERO_PRODUCT."""
    A = rng.standard_normal((rows, cols))
    B = rng.standard_normal((rows, cols))
    A[rng.random((rows, cols)) < 0.2] = 0.0
    A[rng.integers(rows)] = 0.0
    tiny = rng.random((rows, cols)) < 0.2
    A[tiny] *= 1e-160
    B[tiny] *= 1e-150  # products near 1e-310, below ZERO_PRODUCT
    return A, B


@st.composite
def blocked_pairs(draw):
    """A row-block budget and a pair that spans several blocks: row counts
    that are not a multiple of the rows per block, and rows wider than the
    budget."""
    budget = draw(st.integers(1, 64))
    cols = draw(st.integers(1, 3 * budget))
    rows = draw(st.integers(1 + budget // cols, 40 + budget // cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return budget, _pair(rng, rows, cols)


def _brute_scale(A, B) -> float:
    p = (A * B).ravel()
    p = p[p != 0.0]
    return max(1.0, float(np.abs(p * np.log2(np.abs(p))).sum()))


@settings(max_examples=150, deadline=None)
@given(blocked_pairs())
@example((BLOCK_ELEMENTS, _pair(np.random.default_rng(1), 1000, 37)))
@example((BLOCK_ELEMENTS, _pair(np.random.default_rng(2), 3, BLOCK_ELEMENTS + 5)))
def test_blocked_quasi_entropy_matches_brute_force(instance):
    budget, (A, B) = instance
    assert A.size > budget  # the pair is summed in row blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(potential, "BLOCK_ELEMENTS", budget)
        got = quasi_entropy(A, B)
    assert abs(got - potential_brute(A, B)) <= 1e-10 * _brute_scale(A, B)


@settings(max_examples=100, deadline=None)
@given(blocked_pairs())
@example((BLOCK_ELEMENTS, _pair(np.random.default_rng(3), 1000, 37)))
@example((BLOCK_ELEMENTS, _pair(np.random.default_rng(4), 3, BLOCK_ELEMENTS + 5)))
def test_blocked_row_contribs_equal_the_one_pass_formula_bit_for_bit(instance):
    budget, (A, B) = instance
    want = row_contribs_reference(A, B)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(potential, "BLOCK_ELEMENTS", budget)
        fresh = potential.row_contribs(A, B)
        in_workspace = potential.row_contribs(A, B, potential.Workspace())
    assert fresh.tobytes() == want.tobytes()
    assert in_workspace.tobytes() == want.tobytes()


def test_small_pairs_are_the_negated_one_pass_masked_term_sum():
    # a pair of at most BLOCK_ELEMENTS entries is one row block, so its
    # potential is the one-pass sum of every masked term, dropped ones as 0.0
    A, B = _pair(np.random.default_rng(5), 181, 181)
    assert A.size <= BLOCK_ELEMENTS
    planted = {(0, 0): 0.0, (3, 7): -0.0, (90, 1): 1e-301, (180, 180): math.nan}
    for (i, j), special in planted.items():
        A[i, j], B[i, j] = special, 1.0
    p = A * B
    assert p[0, 0] == 0.0 and math.copysign(1.0, p[3, 7]) == -1.0
    assert p[90, 1] == 1e-301 and math.isnan(p[180, 180])
    want = -entry_terms_reference(A, B).sum()
    assert quasi_entropy(A, B).hex() == float(want).hex()
    assert quasi_entropy(A, B, potential.Workspace()).hex() == float(want).hex()


@pytest.mark.parametrize("n", [8, 256], ids=["one-pass", "row-blocks"])
def test_zero_potentials_keep_their_sign(n):
    # every entry term of the identity pair is 0.0, so the negated sum is
    # -0.0 (trace row 0 and scan's phi_identity print it); a pair without a
    # nonzero product has no terms at all and gives 0.0
    assert (n * n > BLOCK_ELEMENTS) == (n == 256)
    eye = np.eye(n)
    assert math.copysign(1.0, quasi_entropy(eye, eye)) == -1.0
    assert math.copysign(1.0, trace_potential(build_wht(n)).values[0]) == -1.0
    zeros = np.zeros((n, n))
    assert math.copysign(1.0, quasi_entropy(zeros, zeros)) == 1.0


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        quasi_entropy(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        complex_quasi_entropy(np.eye(3), np.eye(3))


def test_complex_value_on_embedded_dft():
    E = dft_embedding_matrix(8)
    assert abs(complex_quasi_entropy(E, E) - 16.0) < 1e-10


def test_complex_value_on_identity():
    assert complex_quasi_entropy(np.eye(4), np.eye(4)) == 0.0


def test_complex_single_pair_row():
    row = np.array([[1 / math.sqrt(2), 1 / math.sqrt(2)]])
    assert abs(complex_quasi_entropy(row, row)) < 1e-12


@st.composite
def column_paired_pairs(draw):
    """A row-block budget (None: the pair is one block) and a pair with an
    even number of columns, some of whose column-pair sums are exactly zero
    or below ZERO_PRODUCT."""
    rows = draw(st.integers(2, 30))
    cols = 2 * draw(st.integers(1, 20))
    # at most rows - 1 rows of pair sums per block: two blocks or more
    budget = draw(st.none() | st.integers(1, (rows - 1) * cols // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((rows, cols))
    B = rng.standard_normal((rows, cols))
    zero = rng.random((rows, cols // 2)) < 0.2
    zero[0, 0] = True
    A[:, 1::2][zero] = A[:, 0::2][zero]
    B[:, 1::2][zero] = -B[:, 0::2][zero]  # x + (-x) is exactly 0.0
    tiny = rng.random((rows, cols // 2)) < 0.2
    tiny[-1, -1] = True
    for X, scale in ((A, 1e-160), (B, 1e-150)):  # pair sums near 1e-310
        X[:, 0::2][tiny] *= scale
        X[:, 1::2][tiny] *= scale
    return budget, (A, B)


@settings(max_examples=100, deadline=None)
@given(column_paired_pairs())
def test_complex_quasi_entropy_matches_the_column_paired_brute_force(instance):
    budget, (A, B) = instance
    p = A * B
    pair_sums = p[:, 0::2] + p[:, 1::2]
    assert pair_sums[0, 0] == 0.0 and abs(pair_sums[-1, -1]) < potential.ZERO_PRODUCT
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(potential, "BLOCK_ELEMENTS", budget)
        got = complex_quasi_entropy(A, B)
    ones = np.ones_like(pair_sums)
    want = potential_brute(pair_sums, ones)
    assert abs(got - want) <= 1e-10 * _brute_scale(pair_sums, ones)


def test_projected_value_examples():
    F = wht_sign_matrix(8)
    assert abs(quasi_entropy(F @ np.eye(8), F @ np.eye(8)) - 24.0) < 1e-10
    assert quasi_entropy(np.eye(4), np.eye(4)) == 0.0
    P = np.diag([1.0, 1.0, 0.0, 0.0])
    assert quasi_entropy(np.eye(4) @ P, np.eye(4) @ P) == 0.0


def test_scale_invariance_of_matrix_potential():
    F = wht_sign_matrix(8)
    for gamma in (3.0, -0.2, 17.5):
        scaled = quasi_entropy(gamma * F, F / gamma)
        assert abs(scaled - quasi_entropy(F, F)) < 1e-9


def test_trace_endpoints_on_wht8():
    trace = trace_potential(build_wht(8))
    assert trace.values[0] == 0.0
    assert abs(trace.values[-1] - 24.0) < 1e-10
    assert len(trace.values) == 25


def test_trace_endpoint_on_scaled_fixture():
    trace = trace_potential(build_scaled_bottleneck_fixture(4, 4.0, 2))
    assert abs(trace.values[-1] - 8.0) < 1e-10


def test_trace_deltas_respect_two_row_bound():
    for a in (build_wht(16), build_random(8, 120, seed=4)):
        trace = trace_potential(a)
        for delta, bound in zip(trace.per_step_delta, trace.per_step_bound):
            assert delta <= bound + 1e-7


def _rotation_moves(algorithm):
    """Each rotation's |angle|, |move| and change bound, and the final potential."""
    trace = trace_potential(algorithm)
    _, j, value = algorithm.columns
    steps = [t for t in range(algorithm.m) if j[t] >= 0]
    return (
        np.abs(np.array([value[t] for t in steps])),
        np.array([trace.per_step_delta[t + 1] for t in steps]),
        np.array([trace.per_step_bound[t + 1] for t in steps]),
        trace.values[-1],
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_wht(64),
        lambda: build_wht(256),
        lambda: build_scaled_bottleneck_fixture(64, 2.0**20, 4),
        lambda: build_inverse_scaled_fixture(64, 2.0**8, 4),
    ],
    ids=["wht64", "wht256", "scaled64", "invscaled64"],
)
def test_every_butterfly_program_rotation_moves_half_its_change_bound(build):
    # an R = 1 rotation keeps its block product p, so its bound is 2p; on
    # these programs every rotation is a pi/4 butterfly that moves exactly p
    angles, moves, bounds, _ = _rotation_moves(build())
    assert np.all(angles == math.pi / 4)
    assert np.all(np.abs(moves - bounds / 2) <= 1e-12 * bounds)


@pytest.mark.parametrize(
    "n, butterflies, swaps, bound_sum, final",
    [(64, 167, 39, 932.0, 350.61), (256, 927, 175, 5316.0, 1929.61)],
)
def test_dft_rotations_move_at_most_half_their_change_bound(n, butterflies, swaps, bound_sum,
                                                            final):
    # the real DFT's pi/4 butterflies move exactly half their bound, its
    # pi/2 rotations (bit-reversal swaps and -i twiddles) move nothing, and
    # its other twiddles move less than half: the bounds add up to far more
    # than twice the potential the program ends at
    angles, moves, bounds, phi_final = _rotation_moves(build_dft_real(n))
    tol = 1e-12 * bounds
    butterfly = np.abs(angles - math.pi / 4) <= 1e-15
    swap = np.abs(angles - math.pi / 2) <= 1e-15
    assert (butterfly.sum(), swap.sum()) == (butterflies, swaps)
    assert np.all(moves <= bounds / 2 + tol)
    assert np.all(np.abs(moves - bounds / 2)[butterfly] <= tol[butterfly])
    assert np.all(moves[swap] <= tol[swap])
    assert abs(bounds.sum() - bound_sum) <= 1e-9 * bound_sum
    assert abs(phi_final - final) <= 0.01


def test_constant_gates_leave_potential_unchanged():
    from gatelab import Constant, LinearAlgorithm

    a = LinearAlgorithm(4, tuple(Constant(i % 4, 2.0 ** (i % 5 - 2)) for i in range(20)))
    trace = trace_potential(a)
    assert max(trace.per_step_delta) < 1e-12
    assert all(b == 0.0 for b in trace.per_step_bound)


def test_incremental_trace_matches_dense_recomputation():
    # long enough to cross several full-recomputation checkpoints
    algorithm = build_random(8, 2500, seed=12, angle_only=True)
    trace = trace_potential(algorithm)
    for t in list(range(0, 101)) + list(range(150, algorithm.m + 1, 50)):
        M, Minv_T = matrices_at(algorithm, t)
        assert abs(trace.values[t] - quasi_entropy(M, Minv_T)) <= 1e-7


def test_incremental_trace_survives_extreme_scales():
    # repeated scalings push row contributions to astronomic magnitudes; the
    # drift guard rates disagreement against that scale instead of raising,
    # and agreement with the dense value stays proportional to it
    algorithm = build_random(8, 2500, seed=12)
    trace = trace_potential(algorithm)
    scale = max(1.0, max(map(abs, trace.values)), max(trace.per_step_bound))
    for t in (0, 500, 1000, 2000, algorithm.m):
        M, Minv_T = matrices_at(algorithm, t)
        assert abs(trace.values[t] - quasi_entropy(M, Minv_T)) <= 1e-7 * scale


def test_trace_with_projections():
    rng = np.random.default_rng(3)
    P = rng.standard_normal((8, 8))
    Q = rng.standard_normal((8, 8))
    a = build_random(8, 80, seed=21)
    trace = trace_potential(a, P, Q)
    assert abs(trace.values[0] - quasi_entropy(P, Q)) < 1e-10
    M, Minv_T = matrices_at(a, a.m)
    assert abs(trace.values[-1] - quasi_entropy(M @ P, Minv_T @ Q)) < 1e-7
    for delta, bound in zip(trace.per_step_delta, trace.per_step_bound):
        assert delta <= bound + 1e-7


@pytest.mark.parametrize(
    "build",
    [lambda: build_wht(64), lambda: build_dft_real(64), lambda: build_random(12, 400, seed=8)],
    ids=["wht", "dft", "random"],
)
def test_trace_bounds_are_bit_identical_to_the_per_step_reference(build):
    algorithm = build()
    rng = np.random.default_rng(4)
    P = rng.standard_normal((algorithm.n, algorithm.n))
    Q = rng.standard_normal((algorithm.n, algorithm.n))
    assert trace_potential(algorithm).per_step_bound == trace_bounds_reference(algorithm)
    projected = trace_potential(algorithm, P, Q).per_step_bound
    assert projected == trace_bounds_reference(algorithm, P, Q)


def test_trace_drift_guard_fires_on_a_drifting_ledger(monkeypatch):
    # every row contribution 1% too large: the moves overshoot the potential
    # change, which the recheck after the first batch of gates catches
    real = potential.row_contribs
    monkeypatch.setattr(
        potential, "row_contribs", lambda A, B, *workspace: 1.01 * real(A, B, *workspace)
    )
    monkeypatch.setattr(potential, "RECOMPUTE_EVERY", 16)
    with pytest.raises(ArithmeticError, match="incremental potential drifted by"):
        trace_potential(build_wht(32))
    # every panel keeps its own guard: five panels of 6 columns and one of 2
    monkeypatch.setattr(gates, "PANEL_ELEMENTS", 32 * 6)
    with pytest.raises(ArithmeticError, match="incremental potential drifted by"):
        trace_potential(build_wht(32))


@pytest.mark.parametrize("n", [8, 128])  # 24 and 896 gates, both below RECOMPUTE_EVERY
def test_trace_closing_check_catches_a_drift_the_rechecks_never_see(n, monkeypatch):
    real = potential.row_contribs
    monkeypatch.setattr(
        potential, "row_contribs", lambda A, B, *workspace: 1.01 * real(A, B, *workspace)
    )
    with pytest.raises(ArithmeticError, match="window moves miss the potential change"):
        trace_potential(build_wht(n))


@settings(max_examples=80, deadline=None)
@given(panel_instances())
def test_multi_panel_trace_matches_the_one_panel_trace(instance):
    algorithm, _, width, P, Q = instance
    one = trace_potential(algorithm, P, Q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gates, "PANEL_ELEMENTS", algorithm.n * width)
        assert gates.panel_width(algorithm.n) == width
        panels = trace_potential(algorithm, P, Q)
    assert within_drift(panels.values, one.values)
    assert within_drift(panels.per_step_bound, one.per_step_bound)
    assert panels.touched_sets == one.touched_sets


@pytest.mark.parametrize("elements", [64 * 64, 64 * 16])
def test_a_unit_on_zero_rows_moves_the_potential_by_plus_zero(elements, monkeypatch):
    # each panel adds a unit's after - before, which on zero rows is
    # (-0.0) - (-0.0) = +0.0, so a unit whose rows stay zero rows of both
    # matrices in every panel moves by +0.0, whether or not its rows are
    # walked; in panels of 16 columns the others each sleep in some panels
    monkeypatch.setattr(gates, "PANEL_ELEMENTS", elements)
    n = 64
    algorithm = build_wht(n)
    P, Q = parse_operator("proj:0,1,2,3,17,40", n), parse_operator("proj:2,3,9,33", n)
    for R in (1, 2):
        walk = ledger_walk(algorithm, P, Q, R)
        awake = units_awake_reference(algorithm, R, P, Q, slice(0, n))
        zero = [w for w in range(len(walk.unit_rows)) if w not in awake]
        assert zero and all(math.copysign(1.0, walk.moves[w]) == 1.0 for w in zero)
        assert not walk.moves[zero].any()


def test_two_row_change_bound_single_row_is_zero():
    assert change_bound(1, 5.0, 5.0) == 0.0


def test_unit_pair_sweep_flags_only_the_two_row_corner():
    # the nominal log2(a) constant is beatable at a = 2; the sharp constant
    # (2/e)*log2(e) is not
    report = sweep_unit_pair_bound(trials=1500, max_dim=64, seed=2)
    assert report.violations == 4
    assert report.worst_dim == 2
    assert report.worst_slack >= 1.0 - UNIT_PAIR_SHARP_DIM2 - 1e-9
    assert report.corrected_violations == 0
    assert report.corrected_worst_slack >= -1e-9


def test_unit_pair_sharp_value_is_attained():
    # unit pair with both entry products equal to 1/e
    u = 1.0 / math.e
    c2 = (1.0 + math.sqrt(1.0 - 4.0 * u * u)) / 2.0
    c, s = math.sqrt(c2), math.sqrt(1.0 - c2)
    x = np.array([[c], [s]])
    y = np.array([[s], [c]])
    assert abs(quasi_entropy(x, y) - UNIT_PAIR_SHARP_DIM2) < 1e-12
    assert UNIT_PAIR_SHARP_DIM2 > 1.0


def test_unit_pair_sharp_bound_on_dense_two_row_sampling():
    rng = np.random.default_rng(9)
    for _ in range(20_000):
        x = rng.standard_normal(2)
        y = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        assert abs(quasi_entropy(x[:, None], y[:, None])) <= UNIT_PAIR_SHARP_DIM2 + 1e-9


def test_orthogonal_change_sweep_flags_only_the_two_row_corner():
    report = sweep_orthogonal_change_bound(trials=1000, seed=102)
    assert report.violations == 1
    assert report.worst_dim == 2
    assert report.corrected_violations == 0
    assert report.corrected_worst_slack >= -1e-7


def test_orthogonal_change_nominal_constant_is_beatable():
    # quarter-offset axes moved by a three-quarter turn: the move exceeds
    # |A|_F |B|_F log2(2) but stays within twice the sharp two-row constant
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    A = np.array([[s], [-c]])
    B = np.array([[-c], [s]])
    t = math.cos(3 * math.pi / 4)
    u = math.sin(3 * math.pi / 4)
    U = np.array([[t, u], [-u, t]])
    move = abs(quasi_entropy(A, B) - quasi_entropy(U @ A, U @ B))
    assert move > 1.27
    assert move <= 2.0 * UNIT_PAIR_SHARP_DIM2


def test_nonsingular_change_bound_sweep_is_clean():
    report = sweep_nonsingular_change_bound(trials=300, seed=1)
    assert report.violations == 0
    assert report.worst_slack >= -1e-7
