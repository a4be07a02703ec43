import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatelab import (
    Constant,
    FixtureSpec,
    Rotation,
    build_dft_real,
    build_fixture,
    build_inverse_scaled_fixture,
    build_random,
    build_scaled_bottleneck_fixture,
    build_wht,
    complex_quasi_entropy,
    is_reflection,
    quasi_entropy,
    render_algorithm,
    validate,
)
from gatelab._rng import DefaultRng

from oracles import build_random_reference, dft_embedding_matrix, matrices_at, wht_sign_matrix


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_wht_matches_sign_formula(n):
    a = build_wht(n)
    M, _ = matrices_at(a, a.m)
    assert np.abs(M - wht_sign_matrix(n)).max() < 1e-10


@pytest.mark.parametrize("n", [2, 4, 16])
def test_wht_gate_census(n):
    a = build_wht(n)
    assert a.m == n * int(math.log2(n))
    rotations = sum(isinstance(g, Rotation) for g in a.gates)
    reflections = sum(is_reflection(g) for g in a.gates)
    assert rotations == reflections == a.m // 2


def test_wht_column_norms_are_unit():
    M, _ = matrices_at(build_wht(32), 32 * 5)
    assert np.abs(np.linalg.norm(M, axis=0) - 1.0).max() < 1e-10


def test_wht_rejects_bad_dimension():
    for n in (0, 1, 3, 6):
        with pytest.raises(ValueError):
            build_wht(n)


def test_wht2_gate_list_and_product():
    a = build_wht(2)
    assert a.gates == (Rotation(0, 1, math.pi / 4), Constant(1, -1.0))
    M, _ = matrices_at(a, 2)
    assert np.abs(M - np.array([[1, 1], [1, -1]]) / math.sqrt(2)).max() < 1e-12


def test_wht8_potential_value():
    M, Minv_T = matrices_at(build_wht(8), 24)
    assert abs(quasi_entropy(M, Minv_T) - 24.0) < 1e-10


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_dft_real_matches_dense_embedding(n):
    a = build_dft_real(n)
    M, _ = matrices_at(a, a.m)
    assert np.abs(M - dft_embedding_matrix(n)).max() < 1e-9


def test_dft_real_final_matrix_is_orthogonal():
    a = build_dft_real(16)
    M, _ = matrices_at(a, a.m)
    assert np.abs(M @ M.T - np.eye(16)).max() < 1e-9


def test_dft_real_intermediates_perfectly_conditioned():
    diag = validate(build_dft_real(8))
    assert max(abs(k - 1.0) for k in diag.kappas) < 1e-9


def test_dft8_complex_potential_value():
    a = build_dft_real(8)
    M, Minv_T = matrices_at(a, a.m)
    assert abs(complex_quasi_entropy(M, Minv_T) - 16.0) < 1e-9


def test_dft_rejects_bad_dimension():
    for n in (2, 3, 6):
        with pytest.raises(ValueError):
            build_dft_real(n)


def test_random_builder_is_deterministic():
    a = build_random(6, 50, seed=7)
    b = build_random(6, 50, seed=7)
    assert a.gates == b.gates
    c = build_random(6, 50, seed=8)
    assert c.gates != a.gates


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 2**34),
    m=st.integers(1, 300),
    seed=st.integers(0, 2**130 - 1),
    angle_only=st.booleans(),
)
# the largest n whose coordinates come from 32-bit draws, and the smallest
# that takes 64-bit draws for i (j still takes 32-bit ones)
@example(n=2**32, m=300, seed=7, angle_only=False)
@example(n=2**32 + 1, m=300, seed=7, angle_only=False)
def test_random_builder_matches_the_default_rng_reference(n, m, seed, angle_only):
    got = render_algorithm(build_random(n, m, seed, angle_only))
    assert got == render_algorithm(build_random_reference(n, m, seed, angle_only))


_BOUNDS = (1, 2, 5, 2**31 + 3, 2**32, 2**32 + 1, 2**33, 2**63 - 1)
_ENDS = st.floats(-1e6, 1e6, allow_nan=False)
_CALLS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("integers"), st.sampled_from(_BOUNDS) | st.integers(1, 2**63)),
    st.tuples(st.just("uniform"), _ENDS, _ENDS).map(lambda c: (c[0], *sorted(c[1:]))),
)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**200), calls=st.lists(_CALLS, max_size=60))
# two 32-bit draws share one 64-bit word; a 64-bit draw in between skips the
# buffered half
@example(
    seed=7,
    calls=[("integers", k) for k in (5, 5, 2**33, 2**32, 2**32 + 1, 2**31 + 3, 1, 2)]
    + [("random",), ("integers", 2), ("uniform", -3.0, 3.0), ("integers", 2**63 - 1)],
)
def test_numpy_free_stream_matches_default_rng_call_for_call(seed, calls):
    ours, numpy_rng = DefaultRng(seed), np.random.default_rng(seed)
    for name, *args in calls:
        got, want = getattr(ours, name)(*args), getattr(numpy_rng, name)(*args)
        if name == "integers":
            assert got == int(want)
        else:  # hex, so that the float bits are compared
            assert got.hex() == float(want).hex()


@pytest.mark.parametrize("k", [0, -3, 2**63 + 1])
def test_numpy_free_stream_rejects_the_bounds_numpy_rejects(k):
    with pytest.raises(ValueError) as want:
        np.random.default_rng(1).integers(k)
    with pytest.raises(ValueError, match=f"^{want.value}$"):
        DefaultRng(1).integers(k)


def test_random_angle_only_is_orthogonal():
    diag = validate(build_random(5, 40, seed=3, angle_only=True))
    assert max(abs(k - 1.0) for k in diag.kappas) < 1e-9


def test_random_constants_bounded():
    a = build_random(6, 400, seed=9)
    consts = [g.c for g in a.gates if isinstance(g, Constant)]
    assert consts, "expected some constant gates at this length"
    assert all(0.125 <= abs(c) <= 8.0 for c in consts)


def test_scaled_fixture_intermediate_rows():
    a = build_scaled_bottleneck_fixture(4, 4.0, 2)
    M, _ = matrices_at(a, 2)
    assert np.allclose(M, np.diag([4.0, 4.0, 1.0, 1.0]))
    final, _ = matrices_at(a, a.m)
    assert np.abs(final - wht_sign_matrix(4)).max() < 1e-10


def test_scaled_fixture_condition_number():
    diag = validate(build_scaled_bottleneck_fixture(4, 4.0, 2))
    assert abs(diag.max_kappa - 4.0) < 1e-9


def test_scaled_fixture_rejects_bad_params():
    with pytest.raises(ValueError):
        build_scaled_bottleneck_fixture(4, 1.0, 2)
    with pytest.raises(ValueError):
        build_scaled_bottleneck_fixture(4, 4.0, 0)
    with pytest.raises(ValueError):
        build_scaled_bottleneck_fixture(6, 4.0, 2)


def test_inverse_fixture_mirrors_scaling():
    a = build_inverse_scaled_fixture(8, 4.0, 4)
    _, N = matrices_at(a, 4)
    assert np.allclose(N, np.diag([4.0] * 4 + [1.0] * 4))
    final, _ = matrices_at(a, a.m)
    assert np.abs(final - wht_sign_matrix(8)).max() < 1e-10


@pytest.mark.parametrize(
    "builder",
    [
        lambda: build_wht(16),
        lambda: build_dft_real(16),
        lambda: build_random(8, 100, seed=1),
        lambda: build_scaled_bottleneck_fixture(8, 4.0, 4),
        lambda: build_inverse_scaled_fixture(8, 4.0, 4),
    ],
)
def test_all_builders_replay_cleanly(builder):
    assert validate(builder()).max_residual <= 1e-9


def test_fixture_spec_is_frozen_and_has_its_own_params():
    a, b = FixtureSpec("wht", 8), FixtureSpec("wht", 8)
    assert a == b and a.params == {} and a.params is not b.params
    assert FixtureSpec("random", 4, {"m": 3}) == FixtureSpec(kind="random", n=4, params={"m": 3})
    assert a != FixtureSpec("dft_real", 8) and a != FixtureSpec("wht", 16)
    for name in ("kind", "n", "params", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 4)


def test_fixture_spec_dispatch():
    assert build_fixture(FixtureSpec("wht", 8)).m == 24
    assert build_fixture(FixtureSpec("random", 4, {"m": 10, "seed": 2})).m == 10
    scaled = build_fixture(FixtureSpec("scaled", 4, {"c": 2.0, "k": 1}))
    assert isinstance(scaled.gates[0], Constant)
    with pytest.raises(ValueError):
        build_fixture(FixtureSpec("nope", 4))
