import inspect
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatelab import (
    Constant,
    LinearAlgorithm,
    Rotation,
    bottleneck,
    build_dft_real,
    build_inverse_scaled_fixture,
    build_random,
    build_scaled_bottleneck_fixture,
    build_wht,
    gates,
    potential,
    quasi_entropy,
    scan_bottlenecks,
    trace_potential,
    verify_bottleneck_chain,
    verify_fourier_projection_bound,
    write_algorithm,
)
from gatelab.cli import main
from gatelab.lemma import random_projection, sweep_fourier_projection_bound
from gatelab.model import touched
from gatelab.potential import DRIFT_TOL, change_bound

from oracles import (
    compose_dense,
    compose_dense_inverse_transpose,
    matrices_at,
    panel_instances,
    window_products_reference,
    within_drift,
    wht_sign_matrix,
)


def brute_window_products(algorithm, P, Q, R, include_constants):
    """Dense re-evaluation of every window product, from replayed matrices."""
    from gatelab import Constant

    n = algorithm.n
    m = algorithm.m
    m_padded = ((m + R - 1) // R) * R
    P = np.eye(n) if P is None else P
    Q = np.eye(n) if Q is None else Q
    out = []
    for start in range(0, m_padded, R):
        if R == 1 and not include_constants and isinstance(algorithm.gates[start], Constant):
            continue
        rows = sorted({i for g in algorithm.gates[start : min(start + R, m)] for i in touched(g)})
        M, Minv_T = matrices_at(algorithm, start)
        A = (M @ P)[rows]
        B = (Minv_T @ Q)[rows]
        out.append((start, float(np.linalg.norm(A) * np.linalg.norm(B))))
    return out


def test_scan_wht4_window_one():
    report = scan_bottlenecks(build_wht(4), R=1)
    assert abs(report.lhs - 2.0) < 1e-9
    assert abs(report.rhs - 1.0) < 1e-9
    assert report.slack >= 0.0
    assert report.t_star == 0


def test_scan_orthogonal_steps_all_equal_two():
    for a in (build_wht(8), build_random(6, 40, seed=2, angle_only=True)):
        report = scan_bottlenecks(a, R=1)
        assert all(abs(v - 2.0) < 1e-9 for v in report.per_step_lhs)


def test_scan_excludes_constants_by_default():
    a = build_scaled_bottleneck_fixture(4, 4.0, 2)
    report = scan_bottlenecks(a, R=1)
    # scaling gates and reflections are skipped: the transform's 4 rotations remain
    assert len(report.per_step_lhs) == 4
    assert abs(report.lhs - 2.0) < 1e-9
    assert report.lhs >= report.rhs


def test_scan_include_constants_rates_scaled_rows():
    a = build_scaled_bottleneck_fixture(4, 4.0, 2)
    report = scan_bottlenecks(a, R=1, include_constants=True)
    by_start = dict(zip(report.window_starts, report.per_step_lhs))
    # scaled rows pair a norm of c with an inverse norm of 1/c
    assert abs(by_start[2] - 1.0) < 1e-12
    assert report.slack >= -1e-7


def test_scan_scaled_fixture_window_two():
    a = build_scaled_bottleneck_fixture(4, 4.0, 2)
    report = scan_bottlenecks(a, R=2)
    by_start = dict(zip(report.window_starts, report.per_step_lhs))
    # both scaled rows at once: sqrt((16+16) * (1/16+1/16)) = 2
    assert abs(by_start[2] - 2.0) < 1e-9
    assert abs(report.rhs - 2 * 8.0 / (12 * 2.0)) < 1e-9
    assert report.lhs >= report.rhs


def test_scan_matches_dense_window_oracle():
    rng = np.random.default_rng(77)
    for _ in range(10):
        a = build_random(6, int(rng.integers(5, 40)), seed=int(rng.integers(10_000)))
        P = rng.standard_normal((6, 6))
        Q = rng.standard_normal((6, 6))
        for R in (1, 2, 3):
            report = scan_bottlenecks(a, P, Q, R=R)
            expected = brute_window_products(a, P, Q, R, include_constants=False)
            assert report.window_starts == [s for s, _ in expected]
            for got, (_, want) in zip(report.per_step_lhs, expected):
                assert abs(got - want) < 1e-9 * max(1.0, want)


def test_scan_inequality_on_pinned_random_instance():
    a = build_random(4, 50, seed=7)
    for R in (1, 2):
        report = scan_bottlenecks(a, R=R)
        assert report.slack >= -1e-7


def test_scan_inequality_on_random_algorithms():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(4, 9))
        a = build_random(n, int(rng.integers(1, 61)), seed=int(rng.integers(100_000)))
        P = rng.standard_normal((n, n))
        Q = rng.standard_normal((n, n))
        for R in (1, 2):
            report = scan_bottlenecks(a, P, Q, R=R)
            assert report.slack >= -1e-7


def test_scan_rhs_uses_final_potential_for_identity_operators():
    a = build_random(6, 30, seed=9)
    report = scan_bottlenecks(a, R=2)
    M, Minv_T = matrices_at(a, a.m)
    expected = 2 * quasi_entropy(M, Minv_T) / (30 * math.log2(4))
    assert abs(report.rhs - expected) < 1e-9
    assert report.phi_identity == 0.0


def test_scan_window_size_validation():
    a = build_wht(8)
    with pytest.raises(ValueError):
        scan_bottlenecks(a, R=0)
    with pytest.raises(ValueError):
        scan_bottlenecks(a, R=5)


def test_scan_constants_only_algorithm():
    from gatelab import Constant, LinearAlgorithm

    a = LinearAlgorithm(4, (Constant(0, 2.0), Constant(1, 0.5)))
    report = scan_bottlenecks(a, R=1)
    assert report.t_star is None
    assert report.lhs == 0.0
    assert abs(report.rhs) < 1e-12


def test_chain_links_on_transform():
    for R in (1, 2, 4):
        report = verify_bottleneck_chain(build_wht(8), R=R)
        assert report.triangle_slack >= -1e-9
        assert report.min_window_slack >= -1e-9
        assert report.max_vs_average_slack >= -1e-9
        assert report.scan.slack >= -1e-9


def test_chain_links_on_random_with_operators():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        a = build_random(n, int(rng.integers(2, 50)), seed=int(rng.integers(100_000)))
        P = rng.standard_normal((n, n))
        Q = rng.standard_normal((n, n))
        report = verify_bottleneck_chain(a, P, Q, R=int(rng.choice([1, 2])))
        assert report.triangle_slack >= -1e-7
        assert report.min_window_slack >= -1e-7
        assert report.max_vs_average_slack >= -1e-7


def test_chain_window_deltas_respect_bounds_on_fixture():
    report = verify_bottleneck_chain(build_scaled_bottleneck_fixture(8, 4.0, 4), R=2)
    for link in report.windows:
        assert link.delta_abs <= link.bound + 1e-7


def test_projection_bound_identity_attains_equality():
    report = verify_fourier_projection_bound(8, np.eye(8), np.eye(8))
    assert abs(report.lower_lhs - 24.0) < 1e-9
    assert abs(report.lower_slack) < 1e-9
    assert report.upper_lhs == 0.0
    assert report.upper_slack >= 0.0


def test_projection_bound_zero_operators():
    Z = np.zeros((8, 8))
    report = verify_fourier_projection_bound(8, Z, Z)
    assert report.lower_lhs == 0.0
    assert report.lower_slack >= 0.0
    assert report.upper_lhs == 0.0
    assert abs(report.upper_rhs - (16 + 16 + 16 * 3)) < 1e-12


def test_projection_bound_random_projection_pairs():
    rng = np.random.default_rng(6)
    for n in (8, 16):
        for _ in range(20):
            r_p = int(rng.integers(1, n // 2 + 1))
            r_q = int(rng.integers(1, n // 2 + 1))
            P = random_projection(rng, n, n - r_p)
            Q = random_projection(rng, n, n - r_q)
            report = verify_fourier_projection_bound(n, P, Q)
            # rank deficiency equals both the trace and squared Frobenius norm
            assert abs(report.tr_p_hat - r_p) < 1e-8
            assert abs(report.alpha2 - r_p) < 1e-8
            assert report.lower_slack >= -1e-6
            assert report.upper_slack >= -1e-6


def test_projection_bound_rejects_non_contraction():
    with pytest.raises(ValueError):
        verify_fourier_projection_bound(4, 2.0 * np.eye(4), np.eye(4))
    skew = np.eye(4)
    skew[0, 1] = 0.5
    with pytest.raises(ValueError):
        verify_fourier_projection_bound(4, skew, np.eye(4))
    # the lower bound alone accepts arbitrary operators
    report = verify_fourier_projection_bound(4, 2.0 * np.eye(4), skew, check_upper=False)
    assert report.upper_slack is None


def test_projection_sweep_clean():
    report = sweep_fourier_projection_bound(8, trials=25, seed=3)
    assert report.violations == 0


def test_fixture_scans_hold_for_all_window_sizes():
    for fixture in (
        build_scaled_bottleneck_fixture(8, 4.0, 4),
        build_inverse_scaled_fixture(8, 4.0, 4),
    ):
        for R in (1, 2, 4):
            report = scan_bottlenecks(fixture, R=R)
            assert report.slack >= -1e-7


def test_final_matrix_feeding_rhs_is_the_transform():
    a = build_scaled_bottleneck_fixture(8, 4.0, 4)
    report = scan_bottlenecks(a, R=1)
    assert abs(report.phi_final - 24.0) < 1e-9
    M, _ = matrices_at(a, a.m)
    assert np.abs(M - wht_sign_matrix(8)).max() < 1e-10


@pytest.mark.parametrize("R", [1, 2, 3])
def test_chain_scan_equals_standalone_scan_exactly(R):
    # the chain reads its scan from its own replay; it must be the scan
    algorithms = [
        build_wht(8),
        build_dft_real(8),
        build_scaled_bottleneck_fixture(8, 2.0**20, 4),
        build_random(8, 61, seed=3),
    ]
    for algorithm in algorithms:
        chain_scan = verify_bottleneck_chain(algorithm, R=R).scan
        scan = scan_bottlenecks(algorithm, R=R)
        for field in fields(scan):
            name = field.name
            assert getattr(chain_scan, name) == getattr(scan, name), (algorithm.label, R, name)


@pytest.mark.parametrize("R", [1, 2, 3])
@pytest.mark.parametrize(
    "build, projected",
    [
        (lambda: build_random(12, 300, seed=3), False),
        (lambda: build_random(12, 300, seed=3), True),
        (lambda: build_wht(32), False),
        (lambda: build_dft_real(32), False),
        (lambda: build_dft_real(16), True),
    ],
    ids=["random", "random-PQ", "wht", "dft", "dft-PQ"],
)
def test_scan_and_chain_are_bit_identical_to_the_per_step_reference(build, projected, R):
    algorithm = build()
    rng = np.random.default_rng(5)
    n = algorithm.n
    P, Q = (rng.standard_normal((n, n)), rng.standard_normal((n, n))) if projected else (None, None)
    sets, starts, ends = window_products_reference(algorithm, P, Q, R)
    scanned = [w for w in range(len(sets)) if R > 1 or isinstance(algorithm.gates[w], Rotation)]
    want = [starts[w] for w in scanned]
    best = want.index(max(want))
    chain = verify_bottleneck_chain(algorithm, P, Q, R=R)
    for scan in (scan_bottlenecks(algorithm, P, Q, R=R), chain.scan):
        assert scan.per_step_lhs == want
        assert (scan.t_star, scan.affected) == (scanned[best] * R, sets[scanned[best]])
    assert [link.affected for link in chain.windows] == sets
    assert [link.bound for link in chain.windows] == [
        change_bound(len(rows), start, end) for rows, start, end in zip(sets, starts, ends)
    ]


@st.composite
def chain_instances(draw):
    """Random algorithms on n = 4..8 rows, about half constants, with random P, Q."""
    n = draw(st.integers(4, 8))
    gates = []
    for _ in range(draw(st.integers(0, 40))):
        i = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            sign = draw(st.sampled_from([-1.0, 1.0]))
            gates.append(Constant(i, sign * draw(st.floats(0.5, 2.0))))
        else:
            j = draw(st.integers(0, n - 2))
            gates.append(Rotation(i, j + (j >= i), draw(st.floats(-7, 7))))
    R = draw(st.integers(1, n // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = rng.standard_normal((n, n))
    Q = rng.standard_normal((n, n))
    return LinearAlgorithm(n, tuple(gates)), R, P, Q


@settings(max_examples=60, deadline=None)
@given(chain_instances())
def test_chain_window_moves_match_dense_potentials(instance):
    # a window's move, read from its own rows, is the dense potential change
    algorithm, R, P, Q = instance
    report = verify_bottleneck_chain(algorithm, P, Q, R=R)

    def dense(t):
        t = min(t, algorithm.m)
        A = compose_dense(algorithm, t) @ P
        B = compose_dense_inverse_transpose(algorithm, t) @ Q
        p = (A * B).ravel()
        p = p[p != 0.0]
        return quasi_entropy(A, B), float(np.abs(p * np.log2(np.abs(p))).sum())

    for link in report.windows:
        phi_start, size_start = dense(link.start)
        phi_end, size_end = dense(link.start + R)
        scale = max(1.0, size_start, size_end)
        assert abs(link.delta_abs - abs(phi_end - phi_start)) <= 1e-9 * scale


@settings(max_examples=80, deadline=None)
@given(panel_instances())
def test_multi_panel_scan_and_chain_match_the_one_panel_walk(instance):
    algorithm, R, width, P, Q = instance
    R = min(R, algorithm.n // 2)
    one_scan = scan_bottlenecks(algorithm, P, Q, R=R)
    one_chain = verify_bottleneck_chain(algorithm, P, Q, R=R)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gates, "PANEL_ELEMENTS", algorithm.n * width)
        scan = scan_bottlenecks(algorithm, P, Q, R=R)
        chain = verify_bottleneck_chain(algorithm, P, Q, R=R)
    assert within_drift(scan.per_step_lhs, one_scan.per_step_lhs)
    assert within_drift([scan.phi_identity, scan.phi_final],
                        [one_scan.phi_identity, one_scan.phi_final])
    top = sorted(one_scan.per_step_lhs)[-2:]
    if len(top) < 2 or top[1] - top[0] > DRIFT_TOL * max(1.0, top[1]):
        assert (scan.t_star, scan.affected) == (one_scan.t_star, one_scan.affected)
    assert [link.affected for link in chain.windows] == [w.affected for w in one_chain.windows]
    for field in ("delta_abs", "bound"):
        got = [getattr(link, field) for link in chain.windows]
        assert within_drift(got, [getattr(link, field) for link in one_chain.windows])
    assert within_drift(chain.scan.per_step_lhs, one_chain.scan.per_step_lhs)


def test_chain_closure_check_catches_a_window_missing_a_row(tmp_path, monkeypatch, capsys):
    real_row_contribs = potential.row_contribs

    def drop_a_row(A, B, *workspace):
        # the first row of every block goes missing from its window's move
        contribs = real_row_contribs(A, B, *workspace)
        contribs[0] = 0.0
        return contribs

    monkeypatch.setattr(potential, "row_contribs", drop_a_row)
    with pytest.raises(ArithmeticError, match="window moves miss the potential change"):
        verify_bottleneck_chain(build_wht(8), R=2)
    alg = tmp_path / "wht8.alg"
    write_algorithm(build_wht(8), str(alg))
    assert main(["chain", str(alg), "--R", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: window moves miss") and out.err.count("\n") == 1


@pytest.mark.parametrize("R", [1, 2])
def test_chain_closure_holds_at_extreme_scales(R):
    # repeated scalings push row contributions to astronomic magnitudes; the
    # closure check rates the moves' sum against that scale and passes
    report = verify_bottleneck_chain(build_random(8, 2500, seed=12), R=R)
    assert report.triangle_slack >= -1e-7 * max(1.0, report.triangle_lhs)


@pytest.mark.parametrize("R", [1, 2])
def test_chain_rechecks_its_ledger_before_the_walk_ends(R, monkeypatch):
    # every row contribution 1% too large: the periodic recheck of the one
    # drift guard catches it before the closing check would
    real = potential.row_contribs
    monkeypatch.setattr(
        potential, "row_contribs", lambda A, B, *workspace: 1.01 * real(A, B, *workspace)
    )
    monkeypatch.setattr(potential, "RECOMPUTE_EVERY", 16)
    algorithm = build_wht(32)
    with pytest.raises(ArithmeticError, match="incremental potential drifted by") as caught:
        verify_bottleneck_chain(algorithm, R=R)
    done, m = map(int, re.search(r"after (\d+) of (\d+) gates", str(caught.value)).groups())
    assert 0 < done < m == algorithm.m


def test_trace_scan_and_chain_run_the_one_walk(monkeypatch):
    calls = []
    real = potential.ledger_walk

    def counted(*args, **kwargs):
        calls.append(kwargs.get("ledger", True))
        return real(*args, **kwargs)

    monkeypatch.setattr(potential, "ledger_walk", counted)
    monkeypatch.setattr(bottleneck, "ledger_walk", counted)
    algorithm = build_wht(16)
    trace_potential(algorithm)
    scan_bottlenecks(algorithm, R=2)
    verify_bottleneck_chain(algorithm, R=2)
    assert calls == [True, False, True]  # the scan runs without the ledger
    for name in ("row_contribs", "swap_contribs", "DRIFT_TOL", "_window_squares", "_windows"):
        assert not hasattr(bottleneck, name)
    assert not hasattr(potential, "_pair_squares")
    assert "measure" not in inspect.signature(real).parameters


@pytest.mark.parametrize(
    "build",
    [lambda: build_wht(64), lambda: build_dft_real(64), lambda: build_random(12, 400, seed=8)],
    ids=["wht", "dft", "random"],
)
def test_trace_bounds_are_the_gate_chain_window_bounds(build):
    # the R = 1 window of a rotation is its two rows, ascending in both
    algorithm = build()
    trace = trace_potential(algorithm)
    chain = verify_bottleneck_chain(algorithm, R=1)
    rotations = np.flatnonzero(algorithm.arrays.rotation)
    assert rotations.size
    for g in rotations.tolist():
        assert trace.per_step_bound[g + 1] == chain.windows[g].bound


# Row 0 of M overflows to inf at step 2 and the rotation spreads it: the
# trajectory itself is not finite.
_OVERFLOWED = LinearAlgorithm(2, (Constant(0, 1e200), Constant(0, 1e200), Rotation(0, 1, 0.5)))
# M stays finite, but |row 0 of M|^2 = 1e400 overflows: the squared norms,
# and the bounds and products formed from them, are not.
_SQUARES_OVERFLOW = LinearAlgorithm(2, (Constant(0, 1e200), Rotation(0, 1, 0.5)))
_BIG = 1e200 * np.eye(4)  # entry products of 1e400: the potential is not finite


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings would only repeat the error
@pytest.mark.parametrize(
    "walk, algorithm, operators, message",
    [
        (walk, _OVERFLOWED, (), "the trajectory overflowed: M(m) P or M(m)^{-T} Q is not finite")
        for walk in (trace_potential, scan_bottlenecks, verify_bottleneck_chain)
    ]
    + [
        (trace_potential, _SQUARES_OVERFLOW, (), "the change bound of step 2 is not finite"),
        (scan_bottlenecks, _SQUARES_OVERFLOW, (), "the window product at t = 1 is not finite"),
        (verify_bottleneck_chain, _SQUARES_OVERFLOW, (), "the window product at t = 0 is not finite"),
    ]
    + [
        (walk, build_wht(4), (_BIG, _BIG), "the potential is not finite")
        for walk in (trace_potential, scan_bottlenecks, verify_bottleneck_chain)
    ],
)
def test_walks_reject_numbers_that_are_not_finite(walk, algorithm, operators, message):
    with pytest.raises(ArithmeticError) as caught:
        walk(algorithm, *operators)
    assert str(caught.value) == message
