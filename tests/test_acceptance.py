"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gatelab import (
    build_dft_real,
    build_inverse_scaled_fixture,
    build_random,
    build_scaled_bottleneck_fixture,
    build_wht,
    complex_quasi_entropy,
    extend_basis,
    extract_directions,
    quasi_entropy,
    scan_bottlenecks,
    simulate,
    uncertainty_volume_log,
    verify_bottleneck_chain,
)
from gatelab.bottleneck import random_projection, verify_fourier_projection_bound
from gatelab.cli import main as cli_main
from gatelab.potential import (
    UNIT_PAIR_SHARP_DIM2,
    sweep_nonsingular_change_bound,
    sweep_orthogonal_change_bound,
    sweep_unit_pair_bound,
)

from oracles import (
    assert_lemma_contract,
    compose_dense,
    dft_embedding_matrix,
    matrices_at,
    wht_sign_matrix,
)


@contextmanager
def criterion(number: int, description: str, runtime_limit: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= runtime_limit:
        print(f"ACCEPTANCE {number}: FAIL ({elapsed:.2f}s, limit {runtime_limit}s) - {description}")
    assert elapsed < runtime_limit, f"criterion {number} exceeded {runtime_limit}s"
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) - {description}")


def test_criterion_1_potential_values():
    with criterion(1, "closed-form potential values for both transforms", 1.0):
        for n in (2, 4, 8, 16, 32, 64):
            a = build_wht(n)
            M, Minv_T = matrices_at(a, a.m)
            assert abs(quasi_entropy(M, Minv_T) - n * math.log2(n)) <= 1e-9
        for n in (4, 8, 16, 32):
            a = build_dft_real(n)
            M, Minv_T = matrices_at(a, a.m)
            assert abs(complex_quasi_entropy(M, Minv_T) - n * math.log2(n / 2)) <= 1e-8


def test_criterion_2_builder_correctness():
    with criterion(2, "builder matrices match dense closed forms up to n=64", 5.0):
        for n in (2, 4, 8, 16, 32, 64):
            a = build_wht(n)
            M, _ = matrices_at(a, a.m)
            assert np.abs(M - wht_sign_matrix(n)).max() <= 1e-9
        for n in (4, 8, 16, 32, 64):
            a = build_dft_real(n)
            M, _ = matrices_at(a, a.m)
            assert np.abs(M - dft_embedding_matrix(n)).max() <= 1e-9


def test_criterion_3_potential_inequality_sweeps():
    # The sweeps are rated against the sharp constants.  For unit x, y in R^a,
    # sum |x_i y_i| <= 1; f(t) = -t log2 t is concave and increases up to
    # t = 1/e, so |potential| <= a f(min(1/a, 1/e)) = max(log2 a, (2/e) log2 e).
    # Per column, an orthogonal move is a column-norm product times a
    # difference of two unit-pair potentials, so it is at most twice that
    # constant times |A|_F |B|_F.  The nominal constants log2 a and
    # |A|_F |B|_F log2 a are false at two rows: the closed-form
    # counterexamples at the end keep them visibly false.
    with criterion(
        3,
        "sweeps hold at the sharp constants max(log2 a, (2/e) log2 e) and twice "
        "that per |A||B|; the 1/e unit pair and the three-quarter turn beat the "
        "nominal two-row constants",
        30.0,
    ):
        unit = sweep_unit_pair_bound(trials=10_000, max_dim=64, seed=101)
        orth = sweep_orthogonal_change_bound(trials=1000, max_rows=16, max_cols=16, seed=102)
        nonsing = sweep_nonsingular_change_bound(trials=1000, max_rows=16, max_cols=16, seed=103)
        assert nonsing.violations == 0 and nonsing.worst_slack >= -1e-7
        assert orth.corrected_violations == 0 and orth.corrected_worst_slack >= -1e-7, (
            f"sharp orthogonal-change bound violated {orth.corrected_violations}x "
            f"(worst slack {orth.corrected_worst_slack:.4f})"
        )
        assert unit.corrected_violations == 0 and unit.corrected_worst_slack >= -1e-9, (
            f"sharp unit-pair bound violated {unit.corrected_violations}x "
            f"(worst slack {unit.corrected_worst_slack:.4f})"
        )
        # log2 a is already sharp for a >= 3, so a nominal unit-pair
        # violation sits at two rows and is no deeper than the sharp value
        if unit.violations:
            assert unit.worst_dim == 2
            assert unit.worst_slack >= 1.0 - UNIT_PAIR_SHARP_DIM2 - 1e-9

        # unit pair x = (c, s), y = (s, c) with c*s = 1/e beats log2(2)
        c2 = (1.0 + math.sqrt(1.0 - 4.0 / math.e**2)) / 2.0
        c, s = math.sqrt(c2), math.sqrt(1.0 - c2)
        value = quasi_entropy(np.array([[c], [s]]), np.array([[s], [c]]))
        assert abs(value - UNIT_PAIR_SHARP_DIM2) <= 1e-12
        assert UNIT_PAIR_SHARP_DIM2 > math.log2(2)

        # the pi/8 pair moved by a three-quarter turn beats |A||B| log2(2)
        c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
        A = np.array([[s], [-c]])
        B = np.array([[-c], [s]])
        t, u = math.cos(3 * math.pi / 4), math.sin(3 * math.pi / 4)
        U = np.array([[t, u], [-u, t]])
        move = abs(quasi_entropy(A, B) - quasi_entropy(U @ A, U @ B))
        norms = np.linalg.norm(A) * np.linalg.norm(B)
        assert norms * math.log2(2) < move <= norms * 2.0 * UNIT_PAIR_SHARP_DIM2


def test_criterion_4_bottleneck_scan_inequality():
    with criterion(4, "window-scan inequality and proof-chain links hold", 60.0):
        cases = []
        for n in (2, 4, 8, 16, 32):
            for R in (1, 2, 4):
                if R <= n // 2:
                    cases.append((build_wht(n), None, None, R))
        for fixture in (
            build_scaled_bottleneck_fixture(8, 4.0, 4),
            build_inverse_scaled_fixture(8, 4.0, 4),
        ):
            for R in (1, 2, 4):
                cases.append((fixture, None, None, R))
        for algorithm, P, Q, R in cases:
            report = scan_bottlenecks(algorithm, P, Q, R=R)
            assert report.slack >= -1e-7
            chain = verify_bottleneck_chain(algorithm, P, Q, R=R)
            assert chain.triangle_slack >= -1e-7
            assert chain.min_window_slack >= -1e-7
            assert chain.max_vs_average_slack >= -1e-7

        rng = np.random.default_rng(404)
        for _ in range(200):
            n = int(rng.integers(4, 9))
            m = int(rng.integers(1, 61))
            algorithm = build_random(n, m, seed=int(rng.integers(1_000_000)))
            P = rng.standard_normal((n, n))
            Q = rng.standard_normal((n, n))
            for R in (1, 2):
                report = scan_bottlenecks(algorithm, P, Q, R=R)
                assert report.slack >= -1e-7
                chain = verify_bottleneck_chain(algorithm, P, Q, R=R)
                assert chain.triangle_slack >= -1e-7
                assert chain.min_window_slack >= -1e-7
                assert chain.max_vs_average_slack >= -1e-7


def test_criterion_5_projection_potential_bounds():
    with criterion(5, "explicit-constant projection bounds on random pairs", 30.0):
        rng = np.random.default_rng(505)
        for n in (8, 16, 32):
            for _ in range(100):
                r_p = int(rng.integers(1, n // 2 + 1))
                r_q = int(rng.integers(1, n // 2 + 1))
                P = random_projection(rng, n, n - r_p)
                Q = random_projection(rng, n, n - r_q)
                report = verify_fourier_projection_bound(n, P, Q)
                assert report.lower_slack >= -1e-6
                assert report.upper_slack >= -1e-6


def test_criterion_6_direction_extraction():
    with criterion(6, "direction systems extracted from planted bottlenecks", 30.0):
        for n in (8, 16, 32):
            k = n // 2
            over, under = extract_directions(
                build_scaled_bottleneck_fixture(n, 4.0, k), tau=2.0
            )
            assert over.size >= k
            assert all(abs(m - 4.0) <= 1e-8 for m in over.magnitudes)
            pairs = list(zip(over.steps, over.coords))
            assert len(set(pairs)) == len(pairs)
            assert len(set(over.steps)) * 2 >= over.size
            assert under.size == 0

            over_inv, under_inv = extract_directions(
                build_inverse_scaled_fixture(n, 4.0, k), tau=2.0
            )
            assert under_inv.size >= k
            assert all(abs(m - 4.0) <= 1e-8 for m in under_inv.magnitudes)
            pairs = list(zip(under_inv.steps, under_inv.coords))
            assert len(set(pairs)) == len(pairs)
            assert len(set(under_inv.steps)) * 2 >= under_inv.size
            assert over_inv.size == 0


def test_criterion_7_volume_bound():
    with criterion(7, "uncertainty-volume bound and dense cross-check", 5.0):
        a = build_inverse_scaled_fixture(8, 4.0, 4)
        _, under = extract_directions(a, tau=2.0)
        basis = extend_basis(under, 8)
        bound = uncertainty_volume_log(basis, b=32.0, n_prime=4)
        assert bound.sum_log2_gamma >= bound.closed_form

        # independent dense route: trajectory by explicit matrix products,
        # gammas by explicit projection arithmetic
        gammas = []
        U: list[np.ndarray] = []
        P = np.eye(8)
        Q = np.eye(8)
        while True:
            best = None
            for t in range(1, a.m + 1):
                M = compose_dense(a, t)
                Minv_T = np.linalg.inv(M).T
                prev = compose_dense(a, t - 1)
                changed = [i for i in range(8) if not np.array_equal(M[i], prev[i])]
                for i in changed:
                    na = np.linalg.norm(M[i] @ P)
                    nb = np.linalg.norm(Minv_T[i] @ Q)
                    if max(na, nb) < 2.0 or na >= nb:
                        continue
                    if best is None or na * nb > best[0]:
                        best = (na * nb, t, i, nb)
            if best is None:
                break
            _, t, i, nb = best
            u = (np.linalg.inv(compose_dense(a, t)).T[i] @ Q) / nb
            gammas.append(nb)
            U.append(u)
            Q = Q - np.outer(u, u)
        for j in range(len(U), 8):
            scores = np.sum(np.array(U) ** 2, axis=0)
            z = np.zeros(8)
            z[int(np.argmin(scores))] = 1.0
            w = z - sum((z @ u) * u for u in U)
            gammas.append(float(np.linalg.norm(w)))
            U.append(w / gammas[-1])
        oracle_sum = sum(math.log2(g) for g in gammas)
        assert abs(oracle_sum - bound.sum_log2_gamma) <= 1e-9
        assert oracle_sum >= bound.closed_form


def test_criterion_8_no_overflow_benchmark():
    with criterion(8, "plain transform never overflows a 32-bit budget", 120.0):
        for n in (64, 256, 1024):
            stats = simulate(
                build_wht(n), epsilon=2.0**-10, sigma=1.0, samples=10_000,
                seed=808, word_budget=32.0,
            )
            assert not stats.overflow_flags.any()
            input_row_max = stats.mean_bits[0].max()
            assert stats.mean_bits.max() - input_row_max <= 1.0


def test_criterion_9_planted_overflow_is_flagged():
    with criterion(9, "planted scaling overflows exactly where expected", 60.0):
        a = build_scaled_bottleneck_fixture(8, 2.0**8, 4)
        stats = simulate(
            a, epsilon=2.0**-10, sigma=1.0, samples=10_000, seed=909, word_budget=16.0
        )
        expected = {(t, i) for i in range(4) for t in range(i + 1, i + 5)}
        assert set(stats.flagged_cells()) == expected
        for t, i in expected:
            lift = stats.mean_bits[t, i] - stats.mean_bits[0, i]
            assert abs(lift - 8.0) <= 0.5


def test_criterion_10_deterministic_outputs(tmp_path):
    with criterion(10, "identical seeds give byte-identical outputs", 60.0):
        alg = tmp_path / "wht8.alg"
        assert cli_main(["build", "--wht", "8", "-o", str(alg)]) == 0
        inv = tmp_path / "inv8.alg"
        assert cli_main(["build", "--inverse-scaled", "8,4,4", "-o", str(inv)]) == 0
        outputs = []
        for tag in ("first", "second"):
            paths = {
                "scan": tmp_path / f"scan_{tag}.json",
                "sim": tmp_path / f"sim_{tag}.csv",
                "summary": tmp_path / f"sim_{tag}.json",
                "trace": tmp_path / f"trace_{tag}.csv",
                "extract": tmp_path / f"extract_{tag}.json",
                "lemma": tmp_path / f"lemma_{tag}.json",
            }
            assert cli_main(["scan", str(alg), "--R", "2", "-o", str(paths["scan"])]) == 0
            assert cli_main([
                "simulate", str(alg), "--eps", "2^-10", "--samples", "1000",
                "--seed", "17", "-o", str(paths["sim"]), "--summary", str(paths["summary"]),
            ]) == 0
            assert cli_main(["trace", str(alg), "-o", str(paths["trace"])]) == 0
            assert cli_main([
                "extract", str(inv), "--tau", "2", "-o", str(paths["extract"]),
            ]) == 0
            code = cli_main([
                "lemma", "--pair-trials", "200", "--trials", "50", "--proj-trials", "5",
                "--n-list", "8", "--seed", "3", "-o", str(paths["lemma"]),
            ])
            assert_lemma_contract(code, json.loads(paths["lemma"].read_text()))
            outputs.append({key: path.read_bytes() for key, path in paths.items()})
        assert outputs[0] == outputs[1]
