"""The stacked lemma sweeps against their per-trial loops, bit for bit.

Every report field is compared by ``float.hex``, so a sweep that draws,
factors, multiplies or sums in another order than the per-trial loop of
``tests/oracles.py`` fails here even when its numbers agree to rounding.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatelab import lemma, potential
from gatelab.cli import main

from oracles import (
    tally_reference,
    nonsingular_sweep_reference,
    orthogonal_sweep_reference,
    projection_sweep_reference,
    random_projection_reference,
    unit_pair_sweep_reference,
    verify_fourier_projection_bound_reference,
)

SEEDS = st.one_of(st.integers(0, 200), st.just(2**40))
# small budgets break chunks by their draws, and one trial of a few may
# overflow the buffer; None keeps SWEEP_ELEMENTS
BUDGETS = st.sampled_from([None, 7, 64, 300, 2048])


def hexed(report) -> dict:
    return {
        name: value.hex() if isinstance(value, float) else value
        for name, value in dataclasses.asdict(report).items()
    }


@settings(max_examples=60, deadline=None)
@given(trials=st.integers(1, 120), max_dim=st.integers(2, 80), seed=SEEDS, budget=BUDGETS)
@example(trials=1, max_dim=2, seed=0, budget=None)
def test_unit_pair_sweep_is_the_per_trial_loop(trials, max_dim, seed, budget):
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(lemma, "SWEEP_ELEMENTS", budget)
        got = lemma.sweep_unit_pair_bound(trials, max_dim, seed)
    assert hexed(got) == hexed(unit_pair_sweep_reference(trials, max_dim, seed))


@settings(max_examples=40, deadline=None)
@given(
    trials=st.integers(1, 60),
    max_rows=st.integers(2, 18),
    max_cols=st.integers(1, 18),
    seed=SEEDS,
    budget=BUDGETS,
)
def test_orthogonal_sweep_is_the_per_trial_loop(trials, max_rows, max_cols, seed, budget):
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(lemma, "SWEEP_ELEMENTS", budget)
        got = lemma.sweep_orthogonal_change_bound(trials, max_rows, max_cols, seed)
    want = orthogonal_sweep_reference(trials, max_rows, max_cols, seed)
    assert hexed(got) == hexed(want)


@settings(max_examples=40, deadline=None)
@given(
    trials=st.integers(1, 60),
    max_rows=st.integers(2, 18),
    max_cols=st.integers(1, 18),
    seed=SEEDS,
    budget=BUDGETS,
    ratio=st.sampled_from([lemma.MIN_SINGULAR_RATIO, 0.02, 0.1]),
)
def test_nonsingular_sweep_is_the_per_trial_loop(trials, max_rows, max_cols, seed, budget, ratio):
    # at ratios of a few percent many draws of D are skipped, and each skip
    # must leave A and B undrawn, as the per-trial loop leaves them
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lemma, "MIN_SINGULAR_RATIO", ratio)
        if budget is not None:
            mp.setattr(lemma, "SWEEP_ELEMENTS", budget)
        got = lemma.sweep_nonsingular_change_bound(trials, max_rows, max_cols, seed)
        want = nonsingular_sweep_reference(trials, max_rows, max_cols, seed)
    assert hexed(got) == hexed(want)


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([2, 4, 8, 16, 32]),
    trials=st.integers(1, 40),
    seed=SEEDS,
    budget=BUDGETS,
)
def test_projection_sweep_is_the_per_trial_loop(n, trials, seed, budget):
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(lemma, "SWEEP_ELEMENTS", budget)
        got = lemma.sweep_fourier_projection_bound(n, trials, seed)
    assert hexed(got) == hexed(projection_sweep_reference(n, trials, seed))


@pytest.mark.parametrize("offset", [-86.0, -88.0])
def test_projection_sweep_counts_a_trial_once_whichever_bound_fails(offset):
    # no trial violates the real constants, so the count is checked with a
    # lowered offset and a tolerance that flags slacks below 12: at -86 two
    # trials fail only the upper bound, at -88 eleven fail only the lower
    # one, and four and six fail both
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lemma, "LOWER_OFFSET", offset)
        mp.setattr(lemma, "PROJ_SLACK_TOL", -12.0)
        got = lemma.sweep_fourier_projection_bound(8, 40, 3)
        want = projection_sweep_reference(8, 40, 3)
        rng = np.random.default_rng(3)
        kinds = []
        for _ in range(40):
            ranks = [8 - int(rng.integers(1, 5)) for _ in range(2)]  # P, then Q
            P, Q = (random_projection_reference(rng, 8, rank) for rank in ranks)
            report = verify_fourier_projection_bound_reference(8, P, Q)
            kinds.append((report.lower_slack < 12.0, report.upper_slack < 12.0))
    assert hexed(got) == hexed(want)
    lower_only, upper_only, both = map(kinds.count, [(True, False), (False, True), (True, True)])
    assert (lower_only, upper_only, both) == {-86.0: (0, 2, 4), -88.0: (11, 0, 6)}[offset]
    assert got.violations == lower_only + upper_only + both


@pytest.mark.parametrize("seed", [0, 7])
def test_default_sizes_give_the_per_trial_reports(seed):
    assert hexed(lemma.sweep_unit_pair_bound(seed=seed)) == hexed(
        unit_pair_sweep_reference(10_000, seed=seed)
    )
    assert hexed(lemma.sweep_orthogonal_change_bound(seed=seed)) == hexed(
        orthogonal_sweep_reference(1000, seed=seed)
    )
    assert hexed(lemma.sweep_nonsingular_change_bound(seed=seed)) == hexed(
        nonsingular_sweep_reference(1000, seed=seed)
    )
    for n in (8, 16, 32):
        assert hexed(lemma.sweep_fourier_projection_bound(n, seed=seed)) == hexed(
            projection_sweep_reference(n, 100, seed=seed)
        )


def test_lemma_json_is_the_per_trial_loops_report(tmp_path, capsys):
    # the criterion-10 sizes, through the CLI: stdout, -o file and exit code
    args = ["lemma", "--pair-trials", "200", "--trials", "50", "--proj-trials", "5",
            "--n-list", "8", "--seed", "3"]
    want = {
        "schema_version": 1,
        "unit_pair_bound": dataclasses.asdict(unit_pair_sweep_reference(200, seed=3)),
        "orthogonal_change_bound": dataclasses.asdict(orthogonal_sweep_reference(50, seed=3)),
        "nonsingular_change_bound": dataclasses.asdict(nonsingular_sweep_reference(50, seed=3)),
        "fourier_projection_bound": [dataclasses.asdict(projection_sweep_reference(8, 5, seed=3))],
    }
    want_text = json.dumps(want, sort_keys=True, indent=2) + "\n"
    want_code = 2 if want["unit_pair_bound"]["violations"] or want["orthogonal_change_bound"][
        "violations"] else 0
    assert main(args) == want_code
    assert capsys.readouterr().out == want_text
    assert main([*args, "-o", str(tmp_path / "lemma.json")]) == want_code
    assert (tmp_path / "lemma.json").read_text() == want_text


def _pairs(stack, rows, cols, rng):
    A = rng.standard_normal((*stack, rows, cols))
    B = rng.standard_normal((*stack, rows, cols))
    return A, B


@pytest.mark.parametrize("special", [0.0, -0.0, 1e-301, -1e-310, math.nan, math.inf, -math.inf])
def test_stacked_potentials_take_rows_under_zero_product_as_quasi_entropy(special):
    # a product below ZERO_PRODUCT (or NaN) is a 0.0 term, which the stacked
    # kernel and quasi_entropy zero alike; an infinite one stays
    rng = np.random.default_rng(11)
    A, B = _pairs((6,), 5, 7, rng)
    A[1, 2, 3] = special
    A[4, 0, 0] = special
    A[4, 4, 6] = special
    with np.errstate(invalid="ignore", over="ignore"):
        got = lemma.stacked_quasi_entropy(A, B)
        want = [potential.quasi_entropy(a, b) for a, b in zip(A, B)]
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


def test_stacked_potentials_keep_the_zero_sign():
    # the identity pair's terms are all 0.0, so its potential is -0.0; a
    # pair without a kept product gives 0.0
    stack = np.stack([np.eye(3), np.zeros((3, 3))])
    got = lemma.stacked_quasi_entropy(stack, stack)
    assert [v.hex() for v in got.tolist()] == [(-0.0).hex(), (0.0).hex()]


def test_stacked_potentials_sum_large_pairs_in_row_blocks(monkeypatch):
    # pairs over BLOCK_ELEMENTS entries are summed as quasi_entropy sums them
    monkeypatch.setattr(lemma, "BLOCK_ELEMENTS", 30)
    monkeypatch.setattr(potential, "BLOCK_ELEMENTS", 30)
    A, B = _pairs((2, 3), 6, 7, np.random.default_rng(12))
    got = lemma.stacked_quasi_entropy(A, B)
    want = [[potential.quasi_entropy(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]
    assert got.shape == (2, 3)
    assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for row in want for v in row]


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([2, 4, 8, 16]), seed=st.integers(0, 10_000), upper=st.booleans())
def test_projection_bound_of_one_pair_is_the_per_pair_formula(n, seed, upper):
    rng = np.random.default_rng(seed)
    P = lemma.random_projection(rng, n, int(rng.integers(1, n + 1)))
    Q = rng.standard_normal((n, n)) if not upper else lemma.random_projection(rng, n, n // 2)
    got = lemma.verify_fourier_projection_bound(n, P, Q, check_upper=upper)
    want = verify_fourier_projection_bound_reference(n, P, Q, check_upper=upper)
    assert hexed(got) == hexed(want)


def test_squared_deficiency_is_squared_by_pow():
    # |I - P|_F is exactly x here, and x ** 2 (pow, as np.linalg.norm(.) ** 2
    # squares it) rounds up where x * x rounds down
    x = 3.992689444895776
    assert x**2 != x * x
    P = np.eye(4)
    P[0, 0] -= x
    got = lemma.verify_fourier_projection_bound(4, P, np.eye(4), check_upper=False)
    want = verify_fourier_projection_bound_reference(4, P, np.eye(4), check_upper=False)
    assert got.alpha2.hex() == want.alpha2.hex() == (x**2).hex()


def _trace_only_form(report):
    """n log2 n - (tr P^ + tr Q^) log2 n: the lower bound without its alpha^2 +
    beta^2 term."""
    log_n = math.log2(report.n)
    return report.n * log_n - (report.tr_p_hat + report.tr_q_hat) * log_n


def test_trace_term_of_the_projection_lower_bound_is_sharp():
    # P = I - e0 e0^T and Q = I - e1 e1^T zero column 0 of F P and column 1
    # of F Q, so those columns' entry products vanish, and the other n - 2
    # columns keep n products 1/n each: the potential is (n - 2) log2 n, the
    # trace-only form with tr P^ = tr Q^ = 1 exactly.  The log2 n coefficient
    # of the trace term cannot be lowered.
    for n in (8, 64, 256):
        P, Q = np.eye(n), np.eye(n)
        P[0, 0] = Q[1, 1] = 0.0
        report = lemma.verify_fourier_projection_bound(n, P, Q, check_upper=False)
        assert report.tr_p_hat == report.tr_q_hat == 1.0
        assert abs(report.lower_lhs - _trace_only_form(report)) <= 1e-12 * n * math.log2(n)
        assert report.lower_slack >= 0.0


def test_trace_term_charges_a_shared_direction_twice():
    # P = Q = I - e0 e0^T zero column 0 of both F P and F Q, so only that
    # column's products vanish and the other n - 1 columns keep n products
    # 1/n each: the potential is (n - 1) log2 n, log2 n above the trace-only
    # form with tr P^ = tr Q^ = 1.  Removing one direction from both sides
    # costs log2 n, while the trace term charges it twice.
    for n in (8, 64, 256):
        log_n = math.log2(n)
        P = np.eye(n)
        P[0, 0] = 0.0
        report = lemma.verify_fourier_projection_bound(n, P, P.copy(), check_upper=False)
        assert report.tr_p_hat == report.tr_q_hat == 1.0
        assert abs(report.lower_lhs - (n - 1) * log_n) <= 1e-12 * n * log_n
        assert abs(report.lower_lhs - _trace_only_form(report) - log_n) <= 1e-12 * n * log_n


def test_projection_lower_bound_needs_its_alpha_term():
    # P = diag(-1/e, 1, ..., 1) with Q = I: column 0's n entry products are
    # -1/(e n), which add -(log2 n + log2 e)/e to the (n - 1) log2 n of the
    # other columns, while tr P^ = 1 + 1/e.  So the potential falls
    # (1/e) log2 e below the trace-only form at every n, with
    # alpha^2 = (1 + 1/e)^2: the alpha^2 + beta^2 term is needed, with a
    # coefficient of at least 0.28.  The same 1/e as criterion 3's unit pair.
    gap = math.log2(math.e) / math.e
    assert abs(gap - 0.530738) < 1e-6
    for n in (8, 64, 256):
        P = np.eye(n)
        P[0, 0] = -1.0 / math.e
        report = lemma.verify_fourier_projection_bound(n, P, np.eye(n), check_upper=False)
        assert abs(report.alpha2 - (1.0 + 1.0 / math.e) ** 2) <= 1e-12
        assert report.beta2 == 0.0
        assert abs(_trace_only_form(report) - report.lower_lhs - gap) <= 1e-9
        assert gap / report.alpha2 > 0.28
        assert report.lower_slack >= 0.0


def test_projection_lower_bound_is_vacuous_up_to_n_64():
    # criterion 5 (and `gatelab lemma --n-list 8,16,32`) rates the lower
    # bound on projections of rank n - r, r >= 1, for which tr P^ = alpha^2
    # = r_p and tr Q^ = beta^2 = r_q: the right-hand side is
    # n log2 n - (r_p + r_q)(147 + 31 log2 n), largest at r_p = r_q = 1,
    # the coordinate pair here.  It is negative for every n <= 64, where
    # the lower half of criterion 5 holds whatever the potential; n = 128
    # is the first power of two where it says something.
    for n, rhs in ((8, -456.0), (16, -478.0), (32, -444.0), (64, -282.0), (128, 168.0)):
        P, Q = np.eye(n), np.eye(n)
        P[0, 0] = Q[1, 1] = 0.0
        report = lemma.verify_fourier_projection_bound(n, P, Q, check_upper=False)
        assert report.tr_p_hat == report.alpha2 == report.tr_q_hat == report.beta2 == 1.0
        assert report.lower_rhs == rhs == n * math.log2(n) - 2 * (147 + 31 * math.log2(n))


@settings(max_examples=100, deadline=None)
@given(
    slacks=st.lists(st.sampled_from([-1e-7, -2e-7, -0.0, 0.0, 0.5, -1.0, math.inf]), max_size=30),
    cuts=st.lists(st.integers(0, 30), max_size=4),
)
def test_chunked_rating_is_the_whole_list_rating(slacks, cuts):
    # ties, signed zeros and slacks of exactly -tol: the first minimum and
    # its dimension, and the count strictly below -tol, whatever the chunks
    dims = list(range(2, 2 + len(slacks)))
    nominal = lemma._Rating(1e-7)
    bounds = sorted({0, len(slacks), *(c for c in cuts if c <= len(slacks))})
    for lo, hi in zip(bounds, bounds[1:]):
        nominal.add(np.array(slacks[lo:hi]), dims[lo:hi])
    got = lemma._report(len(slacks), nominal)
    want = tally_reference(dims, slacks, 1e-7)
    assert hexed(got) == hexed(want)


SKEW = np.eye(4) + np.diag([0.5, 0.0, 0.0], 1)


@pytest.mark.parametrize(
    "P, Q",
    [
        (2.0 * np.eye(4), np.eye(4)),
        (SKEW, np.eye(4)),
        (np.eye(4), SKEW),
        (np.eye(4), -np.eye(4)),
        (SKEW, 2.0 * np.eye(4)),
    ],
    ids=["P-too-large", "P-not-symmetric", "Q-not-symmetric", "Q-negative", "P-first"],
)
def test_projection_bound_rejects_as_the_per_pair_formula(P, Q):
    with pytest.raises(ValueError) as want:
        verify_fourier_projection_bound_reference(4, P, Q)
    with pytest.raises(ValueError) as got:
        lemma.verify_fourier_projection_bound(4, P, Q)
    assert str(got.value) == str(want.value)


def test_sweep_names_stay_in_potential_and_bottleneck():
    # only the four sweeps that ``gatelab lemma`` calls through them
    from gatelab import bottleneck

    for name in ("sweep_unit_pair_bound", "sweep_orthogonal_change_bound",
                 "sweep_nonsingular_change_bound"):
        assert getattr(potential, name) is getattr(lemma, name)
    assert bottleneck.sweep_fourier_projection_bound is lemma.sweep_fourier_projection_bound
    for module, names in (
        (potential, ("random_orthogonal", "BoundSweepReport", "UNIT_PAIR_SHARP_DIM2",
                     "unit_pair_sharp_bound", "no_such_name")),
        (bottleneck, ("verify_fourier_projection_bound", "random_projection",
                      "FourierProjectionReport", "ProjectionSweepReport", "LOWER_SLOPE",
                      "LOWER_OFFSET", "PROJ_SLACK_TOL", "no_such_name")),
    ):
        for name in names:
            with pytest.raises(AttributeError):
                getattr(module, name)


def test_gates_imports_only_the_model_names_it_uses():
    from gatelab import gates, model

    for name in ("LinearAlgorithm", "parse_columns", "write_algorithm"):
        assert getattr(gates, name) is getattr(model, name)
    for name in ("touched", "parse_algorithm", "render_algorithm", "ParseError",
                 "is_reflection", "Constant", "Rotation", "Gate"):
        assert not hasattr(gates, name)
    # one reader of gate files, which compiles them: the model has none
    assert not hasattr(model, "read_algorithm")
