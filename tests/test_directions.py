import math
import time

import numpy as np
import pytest
from hypothesis import given, settings

from gatelab import (
    Constant,
    DirectionSystem,
    LinearAlgorithm,
    Rotation,
    directions,
    build_dft_real,
    build_inverse_scaled_fixture,
    build_random,
    build_scaled_bottleneck_fixture,
    build_wht,
    extend_basis,
    extract_directions,
    speedup_factor,
    uncertainty_volume_log,
)
from gatelab import gates, layering
from gatelab.model import touched

from oracles import (
    apply_gate_reference,
    compose_dense,
    extend_basis_reference,
    extract_directions_exact,
    extract_directions_reference,
    gate_matrix,
    matrices_at,
    panel_instances,
    within_drift,
)


def greedy_extraction_oracle(algorithm, tau):
    """Dense re-implementation of the extraction loop, matrices built by @."""
    n = algorithm.n
    trajectory = [np.eye(n)]
    for gate in algorithm.gates:
        trajectory.append(gate_matrix(gate, n) @ trajectory[-1])
    inv_t = [np.linalg.inv(M).T for M in trajectory]
    P, Q = np.eye(n), np.eye(n)
    over, under = [], []
    while True:
        best = None
        for t, gate in enumerate(algorithm.gates, start=1):
            for i in sorted(touched(gate)):
                na = np.linalg.norm(trajectory[t][i] @ P)
                nb = np.linalg.norm(inv_t[t][i] @ Q)
                if max(na, nb) < tau:
                    continue
                if best is None or na * nb > best[0]:
                    best = (na * nb, t, i, na, nb)
        if best is None:
            break
        _, t, i, na, nb = best
        if na >= nb:
            v = (trajectory[t][i] @ P) / na
            over.append((t, i, na))
            P = P - np.outer(v, v)
        else:
            u = (inv_t[t][i] @ Q) / nb
            under.append((t, i, nb))
            Q = Q - np.outer(u, u)
    return over, under


def test_transform_alone_extracts_nothing():
    over, under = extract_directions(build_wht(8), tau=2.0)
    assert over.size == 0
    assert under.size == 0


def test_scaled_fixture_overflow_system():
    a = build_scaled_bottleneck_fixture(8, 4.0, 4)
    over, under = extract_directions(a, tau=2.0)
    assert under.size == 0
    assert over.size >= 4
    assert all(abs(m - 4.0) < 1e-8 for m in over.magnitudes)
    assert over.gram_residual() < 1e-8
    pairs = list(zip(over.steps, over.coords))
    assert len(set(pairs)) == len(pairs)
    assert len(set(over.steps)) >= (over.size + 1) // 2


def test_inverse_fixture_underflow_system():
    a = build_inverse_scaled_fixture(8, 4.0, 4)
    over, under = extract_directions(a, tau=2.0)
    assert over.size == 0
    assert under.size >= 4
    assert all(abs(m - 4.0) < 1e-8 for m in under.magnitudes)
    # rows of the diagonal stages are axis-aligned: the directions are axes
    V = np.array(under.vectors)
    assert np.abs(np.abs(V) - np.eye(8)[:4]).max() < 1e-10


def test_extraction_matches_dense_greedy_oracle():
    for fixture in (
        build_scaled_bottleneck_fixture(8, 4.0, 4),
        build_inverse_scaled_fixture(8, 4.0, 4),
    ):
        over, under = extract_directions(fixture, tau=2.0)
        oracle_over, oracle_under = greedy_extraction_oracle(fixture, 2.0)
        assert [(t, i) for t, i in zip(over.steps, over.coords)] == [
            (t, i) for t, i, _ in oracle_over
        ]
        assert [(t, i) for t, i in zip(under.steps, under.coords)] == [
            (t, i) for t, i, _ in oracle_under
        ]
        for got, (_, _, want) in zip(over.magnitudes, oracle_over):
            assert abs(got - want) < 1e-10
        for got, (_, _, want) in zip(under.magnitudes, oracle_under):
            assert abs(got - want) < 1e-10


@pytest.mark.parametrize(
    "build, kwargs, spans",
    [
        (lambda: build_inverse_scaled_fixture(32, 2.0**8, 4), {}, True),
        (lambda: build_inverse_scaled_fixture(64, 2.0**8, 4), {}, True),
        (lambda: build_wht(8), {}, False),
        (lambda: build_wht(16), {}, False),
        (lambda: build_scaled_bottleneck_fixture(8, 4.0, 4), {"tau": 2.0}, False),
        (lambda: build_inverse_scaled_fixture(8, 4.0, 4), {"tau": 2.0}, False),
        (lambda: build_wht(16), {"unrestricted": True}, False),
        (lambda: build_scaled_bottleneck_fixture(8, 4.0, 4), {"tau": 2.0, "unrestricted": True},
         False),
    ],
    ids=["inv32", "inv64", "wht8", "wht16", "scaled8-tau2", "inv8-tau2", "wht16-unrestricted",
         "scaled8-tau2-unrestricted"],
)
def test_extraction_matches_the_projection_reference(build, kwargs, spans):
    # Same picks as the loop that formed P and Q and rescanned every round,
    # magnitudes and vectors within 1e-12.  Where ``spans``, the overflow
    # system spans R^n before the underflow side is done; from then on every
    # score is 0 in exact arithmetic and the reference ranks its rounding
    # noise, so only the picks before that round are compared.
    algorithm = build()
    got = extract_directions(algorithm, **kwargs)
    rounds = []
    want = extract_directions_reference(algorithm, **kwargs, rounds=rounds)
    assert got[0].size + got[1].size > 0
    if spans:
        last = [k for k, kind in enumerate(rounds) if kind == "overflow"][algorithm.n - 1]
        rounds = rounds[: last + 1]
        assert rounds.count("underflow") == 4  # the planted rows
    for g, w in zip(got, want):
        count = rounds.count(w.kind)
        assert (g.steps[:count], g.coords[:count]) == (w.steps[:count], w.coords[:count])
        if not spans:
            assert (g.size, len(rounds)) == (w.size, got[0].size + got[1].size)
        assert np.allclose(g.magnitudes[:count], w.magnitudes[:count], rtol=0, atol=1e-12)
        for gv, wv in zip(g.vectors[:count], w.vectors[:count]):
            assert np.abs(gv - wv).max() <= 1e-12


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_inverse_scaled_fixture(8, 2.0**8, 4),
        lambda: build_inverse_scaled_fixture(16, 2.0**8, 4),
        lambda: build_scaled_bottleneck_fixture(8, 2.0**8, 4),
    ],
    ids=["inv8", "inv16", "scaled8"],
)
def test_extraction_matches_the_exact_greedy_oracle(build):
    # at the default tau, where one system spans R^n and the selection rule,
    # not the rounding noise, must pick the rest
    algorithm = build()
    got = extract_directions(algorithm)
    rho = 2.0 * math.sqrt(directions.rounding_bound(algorithm.n, algorithm.m))
    exact = extract_directions_exact(algorithm, got[0].threshold, rho)
    assert max(g.size for g in got) == algorithm.n
    for g, picks in zip(got, exact):
        assert list(zip(g.steps, g.coords)) == [(t, i) for t, i, _ in picks]
        assert np.allclose(g.magnitudes, [mag for _, _, mag in picks], rtol=1e-12, atol=0)


def test_inverse_scaled_underflow_picks_follow_the_tie_break():
    # after the four planted rows the overflow system spans R^8 and every
    # score is 0: the smallest steps with a unit underflow factor win
    _, under = extract_directions(build_inverse_scaled_fixture(8, 2.0**8, 4))
    assert list(zip(under.steps, under.coords))[4:] == [(13, 4), (13, 5), (15, 6), (15, 7)]
    assert np.allclose(under.magnitudes[4:], 1.0, rtol=1e-12, atol=0)


def test_one_extraction_walks_the_matrices_once(monkeypatch):
    walks = []
    real = directions.replay_layers

    def counted(*args, **kwargs):
        walks.append(args[1].shape)
        return real(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-step replay during extraction")

    monkeypatch.setattr(directions, "replay_layers", counted)
    monkeypatch.setattr(gates, "replay", forbidden)
    over, under = extract_directions(build_wht(32))
    assert over.size + under.size == 64  # 64 rounds
    assert walks == [(32, 32)]


@settings(max_examples=60, deadline=None)
@given(panel_instances())
def test_multi_panel_norm_walk_matches_the_one_panel_walk(instance):
    algorithm, _, width, _, _ = instance
    one = directions._squared_row_norms(algorithm, False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gates, "PANEL_ELEMENTS", algorithm.n * width)
        panels = directions._squared_row_norms(algorithm, False)
    for got, want in zip(panels, one):
        assert within_drift(got, want)


def test_multi_panel_extraction_checks_the_target_and_picks_alike(monkeypatch):
    fixture = build_inverse_scaled_fixture(16, 4.0, 8)
    one = extract_directions(fixture, tau=2.0)
    monkeypatch.setattr(gates, "PANEL_ELEMENTS", 16 * 6)  # panels of 6, 6 and 4 columns
    for want, got in zip(one, extract_directions(fixture, tau=2.0)):
        assert (got.steps, got.coords) == (want.steps, want.coords)
        assert got.magnitudes == want.magnitudes
    with pytest.raises(directions.TargetMismatch):
        extract_directions(build_random(16, 60, seed=1), tau=2.0)
    # every panel is checked: a transform off in its last column only
    real = directions.wht_entries

    def last_column_off(n, rows, cols, out=None):
        out = real(n, rows, cols, out)
        out[:, cols == n - 1] += 1.0
        return out

    monkeypatch.setattr(directions, "wht_entries", last_column_off)
    with pytest.raises(directions.TargetMismatch):
        extract_directions(build_wht(16), tau=2.0)


def test_wht256_fills_both_systems_within_a_second():
    algorithm = build_wht(256)
    start = time.perf_counter()
    over, under = extract_directions(algorithm)
    elapsed = time.perf_counter() - start
    assert (over.size, under.size) == (256, 256)
    assert elapsed < 1.0


def test_ledger_rounding_beyond_the_bound_raises(monkeypatch):
    # a ledger that rates a row far above its true factor is caught by the
    # exact materialised row, not recorded as a direction
    real = layering.VectorWalk.push

    def inflated(self, x, inverse_transpose=False, out=None):
        out = real(self, x, inverse_transpose, out)
        out[:] = 0.0  # subtracts no projection: the first winner stays on top
        return out

    monkeypatch.setattr(layering.VectorWalk, "push", inflated)
    with pytest.raises(RuntimeError, match="rounding beyond the ledger's bound"):
        extract_directions(build_wht(8))


def test_extraction_growth_across_sizes():
    for n in (8, 16, 32):
        a = build_scaled_bottleneck_fixture(n, 4.0, n // 2)
        over, _ = extract_directions(a, tau=2.0)
        assert over.size >= n // 2


def test_extraction_stops_below_threshold_everywhere():
    a = build_scaled_bottleneck_fixture(8, 4.0, 4)
    over, under = extract_directions(a, tau=2.0)
    P = np.eye(8) - sum(np.outer(v, v) for v in over.vectors)
    Q = np.eye(8)
    A, B = P.copy(), Q.copy()
    worst = 0.0
    for gate in a.gates:
        apply_gate_reference(A, gate)
        apply_gate_reference(B, gate, inverse_transpose=True)
        for i in touched(gate):
            worst = max(worst, np.linalg.norm(A[i]) * np.linalg.norm(B[i]))
    assert worst < 4.0  # goes below tau squared once no factor reaches tau


def test_re_extraction_is_stable():
    a = build_inverse_scaled_fixture(8, 4.0, 4)
    _, under = extract_directions(a, tau=2.0)
    # deflate the algorithm's own output and extract again at the same tau
    Q = np.eye(8) - sum(np.outer(u, u) for u in under.vectors)
    A, B = np.eye(8), Q.copy()
    eligible = 0
    for gate in a.gates:
        apply_gate_reference(A, gate)
        apply_gate_reference(B, gate, inverse_transpose=True)
        for i in touched(gate):
            if max(np.linalg.norm(A[i]), np.linalg.norm(B[i])) >= 2.0:
                eligible += 1
    assert eligible == 0


def test_extraction_rejects_wrong_target():
    with pytest.raises(ValueError):
        extract_directions(build_random(8, 30, seed=1), tau=2.0)
    over, under = extract_directions(
        build_random(8, 30, seed=1), tau=100.0, require_wht_target=False
    )
    assert over.size == 0 and under.size == 0


def test_extraction_rejects_a_bad_threshold_before_its_walk():
    # tau = 0 on DFT 16 would otherwise fail the target check after the walk
    for algorithm, tau in ((build_dft_real(16), 0.0), (build_wht(8), float("nan"))):
        with pytest.raises(ValueError, match="threshold must be positive"):
            extract_directions(algorithm, tau=tau)


def test_default_threshold_from_speedup():
    a = build_wht(8)
    assert abs(speedup_factor(a) - 1.0) < 1e-12
    over, under = extract_directions(a)  # tau defaults to sqrt(1/2)
    assert over.threshold == pytest.approx(math.sqrt(0.5))
    # every intermediate row has unit norm, above sqrt(1/2): systems fill up
    assert over.size + under.size == 16


def test_unrestricted_scan_sees_untouched_rows():
    a = build_scaled_bottleneck_fixture(8, 4.0, 4)
    over, _ = extract_directions(a, tau=2.0, unrestricted=True)
    assert over.size >= 4


def test_extend_basis_from_empty_system():
    empty = DirectionSystem("underflow", [], [], [], [], threshold=2.0)
    basis = extend_basis(empty, 4)
    assert basis.n_extracted == 0
    assert np.allclose(basis.gammas, 1.0)
    assert np.allclose(np.array(basis.z_vectors), np.eye(4))
    assert np.allclose(np.array(basis.u_vectors), np.eye(4))


def test_extend_basis_from_single_axis():
    e1 = np.zeros(4)
    e1[0] = 1.0
    system = DirectionSystem("underflow", [e1], [1], [0], [2.5], threshold=2.0)
    basis = extend_basis(system, 4)
    assert basis.gammas[0] == 2.5
    assert np.allclose(basis.gammas[1:], 1.0)
    # remaining axes picked smallest-index first
    picked = [int(np.argmax(z)) for z in basis.z_vectors[1:]]
    assert picked == [1, 2, 3]


def test_extend_basis_diagonal_direction():
    u = np.array([1.0, 1.0]) / math.sqrt(2)
    system = DirectionSystem("underflow", [u], [1], [0], [3.0], threshold=2.0)
    basis = extend_basis(system, 2)
    assert np.allclose(basis.z_vectors[1], [1.0, 0.0])  # smallest-index tie break
    assert abs(basis.gammas[1] - math.sqrt(0.5)) < 1e-12


def test_extend_basis_pigeonhole_guarantee():
    rng = np.random.default_rng(14)
    for n in (6, 11):
        for n_prime in (1, 3):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            vectors = [q[:, j].copy() for j in range(n_prime)]
            system = DirectionSystem(
                "underflow", vectors, list(range(1, n_prime + 1)), list(range(n_prime)),
                [5.0] * n_prime, threshold=2.0,
            )
            basis = extend_basis(system, n)
            U = np.array(basis.u_vectors)
            assert np.abs(U @ U.T - np.eye(n)).max() < 1e-8
            for j in range(n_prime, n):
                assert basis.gammas[j] >= math.sqrt(1 - j / n) - 1e-9


@pytest.mark.parametrize(
    "n, kind",
    [(1, "empty"), (4, "empty"), (100, "empty"), (32, "partial"), (64, "partial"),
     (32, "full"), (64, "full")],
)
def test_extend_basis_is_the_restacking_reference_bit_for_bit(n, kind):
    # partial: 4 of n underflow directions at tau = 2; full: the default tau
    # extracts all n
    if kind == "empty":
        under = DirectionSystem("underflow", [], [], [], [], threshold=1.0)
    else:
        tau = 2.0 if kind == "partial" else None
        _, under = extract_directions(build_inverse_scaled_fixture(n, 4.0, 4), tau=tau)
    assert under.size == {"empty": 0, "partial": 4, "full": n}[kind]
    got, want = extend_basis(under, n), extend_basis_reference(under, n)
    assert (got.n_extracted, got.gammas) == (want.n_extracted, want.gammas)
    for name in ("u_vectors", "z_vectors"):
        got_vectors, want_vectors = getattr(got, name), getattr(want, name)
        assert len(got_vectors) == len(want_vectors) == n
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got_vectors, want_vectors))


def test_volume_log_trivial_basis():
    empty = DirectionSystem("underflow", [], [], [], [], threshold=1.0)
    basis = extend_basis(empty, 4)
    bound = uncertainty_volume_log(basis, b=2.0, n_prime=0)
    assert bound.sum_log2_gamma == 0.0
    expected_tail = sum(math.log2(math.sqrt(1 - (j - 1) / 4)) for j in range(1, 5))
    assert abs(bound.closed_form - expected_tail) < 1e-12
    assert bound.closed_form <= 0.0 <= bound.sum_log2_gamma


def test_volume_log_inverse_fixture():
    a = build_inverse_scaled_fixture(8, 4.0, 4)
    _, under = extract_directions(a, tau=2.0)
    basis = extend_basis(under, 8)
    bound = uncertainty_volume_log(basis, b=32.0, n_prime=4)
    assert abs(bound.sum_log2_gamma - 8.0) < 1e-9
    closed = 4 * math.log2(4.0) + sum(
        math.log2(math.sqrt(1 - (j - 1) / 8)) for j in range(5, 9)
    )
    assert abs(bound.closed_form - closed) < 1e-12
    assert bound.sum_log2_gamma >= bound.closed_form


def test_volume_log_cross_checked_against_dense_script():
    # independent dense route: matrices by @-composition, gammas by explicit
    # projection arithmetic
    a = build_inverse_scaled_fixture(8, 4.0, 4)
    _, under = extract_directions(a, tau=2.0)
    basis = extend_basis(under, 8)

    _, oracle_under = greedy_extraction_oracle(a, 2.0)
    gammas = [g for _, _, g in oracle_under]
    U = []
    for t, i, g in oracle_under:
        M = compose_dense(a, t)
        row = np.linalg.inv(M).T[i]
        for u in U:
            row = row - (row @ u) * u
        U.append(row / np.linalg.norm(row))
    for j in range(len(U), 8):
        scores = np.sum(np.array(U) ** 2, axis=0)
        z = np.zeros(8)
        z[int(np.argmin(scores))] = 1.0
        w = z - sum((z @ u) * u for u in U)
        gammas.append(np.linalg.norm(w))
        U.append(w / gammas[-1])
    oracle_sum = sum(math.log2(g) for g in gammas)
    package_sum = sum(math.log2(g) for g in basis.gammas)
    assert abs(oracle_sum - package_sum) < 1e-9


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings would only repeat the error
@pytest.mark.parametrize("require_wht_target", [True, False])
@pytest.mark.parametrize(
    "program, message",
    [
        # row 0 of M overflows to inf at step 2 and the rotation spreads it
        (
            (Constant(0, 1e200), Constant(0, 1e200), Rotation(0, 1, 0.5)),
            "the trajectory overflowed: M(m) or M(m)^{-T} is not finite",
        ),
        # M stays finite, but |row 0 of M(1)|^2 = 1e400 overflows
        (
            (Constant(0, 1e200), Rotation(0, 1, 0.5)),
            "the squared norm of row 0 of M(1) is not finite",
        ),
    ],
)
def test_extraction_rejects_numbers_that_are_not_finite(program, message, require_wht_target):
    with pytest.raises(ArithmeticError) as caught:
        extract_directions(LinearAlgorithm(2, program), require_wht_target=require_wht_target)
    assert str(caught.value) == message
