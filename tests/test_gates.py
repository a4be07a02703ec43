import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatelab import (
    Constant,
    LinearAlgorithm,
    ParseError,
    Rotation,
    apply_to_vector,
    build_random,
    build_wht,
    is_reflection,
    parse_algorithm,
    render_algorithm,
    replay,
    touched,
    validate,
)

from gatelab import gates, layering
from gatelab.builders import (
    build_dft_real,
    build_inverse_scaled_fixture,
    build_scaled_bottleneck_fixture,
)
from gatelab.cli import parse_operator
from gatelab.gates import BLOCK_ELEMENTS, column_panels, panel_width
from gatelab.layering import VectorWalk, layer, replay_layers

from oracles import (
    apply_gate_reference,
    compose_dense,
    compose_dense_inverse_transpose,
    layer_reference,
    matrices_at,
    start_pair,
    units_awake_reference,
    validate_reference,
    wht_sign_matrix,
)


def test_apply_to_vector_wht2():
    a = build_wht(2)
    expected = wht_sign_matrix(2) @ np.array([1.0, 0.0])
    got = apply_to_vector(a, [1.0, 0.0])
    assert np.allclose(got, expected, atol=1e-12)
    assert np.allclose(got, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)


def test_apply_to_vector_step_zero_is_identity():
    a = build_random(6, 40, seed=11)
    x = np.arange(6, dtype=float)
    assert np.array_equal(apply_to_vector(a, x, upto_t=0), x)


def test_constant_gate_scales_single_coordinate():
    a = LinearAlgorithm(2, (Constant(0, 3.0),))
    assert np.allclose(apply_to_vector(a, [2.0, 5.0]), [6.0, 5.0])


def test_apply_to_vector_rejects_bad_inputs():
    a = build_wht(4)
    with pytest.raises(ValueError):
        apply_to_vector(a, [1.0, 2.0])
    with pytest.raises(ValueError):
        apply_to_vector(a, np.zeros(4), upto_t=a.m + 1)


def test_replay_quarter_turn_rotation():
    M, Minv_T = start_pair(2)
    steps = replay(LinearAlgorithm(2, (Rotation(0, 1, math.pi / 4),)), M, Minv_T)
    assert next(steps)[:2] == (0, ())
    t, rows = next(steps)
    r = math.sqrt(2) / 2
    expected = np.array([[r, r], [-r, r]])
    assert np.allclose(M, expected, atol=1e-15)
    # rotations are orthogonal, so the inverse transpose tracks M exactly
    assert np.allclose(Minv_T, expected, atol=1e-15)
    assert (t, rows) == (1, (0, 1))


def test_replay_constant_scales_inverse_row():
    M, Minv_T = start_pair(2)
    steps = replay(LinearAlgorithm(2, (Constant(0, 4.0),)), M, Minv_T)
    next(steps)
    t, rows = next(steps)
    assert np.allclose(M[0], [4.0, 0.0])
    assert np.allclose(Minv_T[0], [0.25, 0.0])
    assert (t, rows) == (1, (0,))


def test_replay_checks_arguments_when_called():
    a = build_wht(4)
    with pytest.raises(ValueError):
        replay(a, np.eye(4), stop=a.m + 1)
    with pytest.raises(ValueError):
        replay(a, np.eye(3))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("R"), st.integers(0, 3), st.integers(0, 3), st.floats(-7, 7)),
            st.tuples(
                st.just("C"), st.integers(0, 3), st.sampled_from([-1.0, 1.0]), st.floats(0.5, 2.0)
            ),
        ),
        max_size=30,
    )
)
def test_replay_matches_dense_composition_at_every_step(raw_gates):
    # n = 4 makes rows repeat across gates; about half the gates are constants
    gates = []
    for kind, i, second, value in raw_gates:
        if kind == "C":
            gates.append(Constant(i, second * value))
        elif i != second:
            gates.append(Rotation(i, second, value))
    a = LinearAlgorithm(4, tuple(gates))
    M, Minv_T = start_pair(4)
    for t, _ in replay(a, M, Minv_T):
        want_M = compose_dense(a, t)
        want_N = compose_dense_inverse_transpose(a, t)
        # 1e-10 relative to the trajectory scale, which constants move
        assert np.abs(M - want_M).max() <= 1e-10 * max(1.0, np.abs(want_M).max())
        assert np.abs(Minv_T - want_N).max() <= 1e-10 * max(1.0, np.abs(want_N).max())


# Constants of every kind: reflections, plain scalings, and values whose
# inverse sits near the ends of the float range.
_KERNEL_CONSTANTS = [-1.0, 1.0, 0.5, -3.0, 1.0 / 3.0, 1e-300, -1e300, 2.0**-1000, -(2.0**1000)]


# How kernel_instances draws P or Q: the identity, a dense draw, or a dense
# draw whose chosen rows are +0.0, -0.0 or a mix of both in every column.
_OPERATOR_KINDS = ["identity", "dense", "+0.0 rows", "-0.0 rows", "mixed zero rows"]


@st.composite
def kernel_instances(draw, dense=False):
    """Random gate lists with P and Q drawn as the identity (None) or dense,
    with or without zero rows (the same rows in both); with ``dense`` both
    are dense draws.  Few rows make pairs repeat and gates follow each
    other on one row; at n = 300 one layer spans several blocks."""
    n = draw(st.sampled_from([2, 3, 4, 8, 300]))
    count = draw(st.integers(0, 400 if n == 300 else 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gates = []
    for _ in range(count):
        if gates and rng.random() < 0.2:
            i = touched(gates[-1])[0]  # back to back on one row
        else:
            i = int(rng.integers(n))
        if rng.random() < 0.4:
            gates.append(Constant(i, _KERNEL_CONSTANTS[rng.integers(len(_KERNEL_CONSTANTS))]))
        else:
            j = int(rng.integers(n - 1))
            gates.append(Rotation(i, j + (j >= i), float(rng.uniform(-7, 7))))
    R = draw(st.integers(1, 3))
    if dense:
        return LinearAlgorithm(n, tuple(gates)), R, *rng.standard_normal((2, n, n))
    zero = rng.random(n) < draw(st.sampled_from([0.25, 0.5, 0.9]))
    kinds = [draw(st.sampled_from(_OPERATOR_KINDS))]
    kinds.append(kinds[0] if draw(st.booleans()) else draw(st.sampled_from(_OPERATOR_KINDS)))
    operators = []
    for kind in kinds:
        X = rng.standard_normal((n, n))
        if kind == "+0.0 rows":
            X[zero] = 0.0
        elif kind == "-0.0 rows":
            X[zero] = -0.0
        elif kind == "mixed zero rows":  # each such row holds both zeros: it stays live
            X[zero] = np.where(np.arange(n) % 2, 0.0, -0.0)
        operators.append(None if kind == "identity" else X)
    return LinearAlgorithm(n, tuple(gates)), R, *operators


def _panel_elements(n: int, panels: int) -> int:
    """A ``gates.PANEL_ELEMENTS`` that cuts n columns into panels of an even
    width, about ``panels`` of them (one when that width reaches n)."""
    width = -(-n // panels)
    width += width % 2
    return n * min(width, n)


@settings(max_examples=60, deadline=None)
@given(kernel_instances(), st.integers(1, 3))
def test_layered_walk_matches_the_per_step_replay_bit_for_bit(instance, panels):
    # in every column panel, right after each unit handed over (a gate, or a
    # window of R gates) its rows of M(t) P and M(t)^{-T} Q hold exactly the
    # bytes the per-step replay shows, a unit left out is all zeros there,
    # and each panel ends as the replay's columns (the extreme constants
    # overflow to inf and nan, in both walks alike)
    algorithm, R, P, Q = instance
    n = algorithm.n
    after = {}
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(gates, "PANEL_ELEMENTS", _panel_elements(n, panels))
        windows = layer(algorithm, R)
        M, Minv_T = start_pair(n, P, Q)
        for t, _ in replay(algorithm, M, Minv_T):
            if t and (t % R == 0 or t == algorithm.m):
                rows = list(windows.unit_rows[(t - 1) // R])
                after[(t - 1) // R] = (M[rows], Minv_T[rows])
        lo = 0
        for A, B in column_panels(n, P, Q):
            columns = slice(lo, lo + A.shape[1])
            handed = set()
            for block, _, _, a1, b1 in replay_layers(windows, A, B):
                assert np.array_equal(windows.rows[block.positions], block.rows)
                for u, w in enumerate(block.units.tolist()):
                    start = block.unit_starts[u]
                    rows = slice(start, start + len(windows.unit_rows[w]))
                    want = [x[:, columns].tobytes() for x in after[w]]
                    assert [a1[rows].tobytes(), b1[rows].tobytes()] == want
                handed.update(block.units.tolist())
            for w in set(after) - handed:
                assert not (after[w][0][:, columns].any() or after[w][1][:, columns].any())
            assert (A.tobytes(), B.tobytes()) == (
                M[:, columns].tobytes(), Minv_T[:, columns].tobytes()
            )
            lo += A.shape[1]


@settings(max_examples=20, deadline=None)
@given(kernel_instances(), st.integers(1, 3))
def test_layered_walk_gathers_only_the_rows_asked_for(instance, panels):
    # a pair switched off is None; the units handed over, the other pair and
    # the end matrices keep the full walk's bytes, in every column panel
    algorithm, R, P, Q = instance
    n = algorithm.n
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(gates, "PANEL_ELEMENTS", _panel_elements(n, panels))
        windows = layer(algorithm, R)
        for A, B in column_panels(n, P, Q):
            start = (A.copy(), B.copy())
            full = [
                [step[0].units.tobytes()] + [x.tobytes() for x in step[1:]]
                for step in replay_layers(windows, A, B)
            ]
            for before, after in ((False, True), (True, False), (False, False)):
                A2, B2 = (x.copy() for x in start)
                walk = replay_layers(windows, A2, B2, before=before, after=after)
                for (block, *pairs), (units, *want) in zip(walk, full):
                    kept = (before, before, after, after)
                    assert block.units.tobytes() == units
                    got = [x.tobytes() if keep else x for x, keep in zip(pairs, kept)]
                    assert got == [w if keep else None for w, keep in zip(want, kept)]
                assert (A2.tobytes(), B2.tobytes()) == (A.tobytes(), B.tobytes())


def test_a_woken_row_keeps_the_signed_zero_it_slept_into(monkeypatch):
    # in the first panel of two columns row 3 is a zero row: it sleeps
    # through a reflection to -0.0, and the rotation that meets live row 0
    # then writes cos*(-0.0) - sin*(+0.0) = -0.0 into column 1, where a row
    # woken as +0.0 would hold +0.0
    monkeypatch.setattr(gates, "PANEL_ELEMENTS", 8)
    algorithm = LinearAlgorithm(4, (Constant(3, -1.0), Rotation(0, 3, 0.5)))
    M, Minv_T = start_pair(4)
    for _ in replay(algorithm, M, Minv_T):
        pass
    assert math.copysign(1.0, M[3, 1]) == math.copysign(1.0, Minv_T[3, 1]) == -1.0
    handed = []
    for lo, (A, B) in zip((0, 2), column_panels(4)):
        walk = replay_layers(layer(algorithm), A, B)
        handed.append([block.units.tolist() for block, *_ in walk])
        assert (A.tobytes(), B.tobytes()) == (
            M[:, lo : lo + 2].tobytes(), Minv_T[:, lo : lo + 2].tobytes()
        )
    assert handed == [[[], [1]], [[0], [1]]]


@pytest.mark.parametrize("R", [1, 2])
def test_layered_walk_hands_over_exactly_the_units_with_a_nonzero_entry(R, monkeypatch):
    # WHT 64 from the identity in panels of 16 columns, and at one panel from
    # coordinate projections (``--P proj:...``): a unit whose rows are all
    # zero rows of both matrices at its start sleeps, and only the others
    # are handed over, as a dense per-step replay judges
    n = 64
    algorithm = build_wht(n)
    projections = (parse_operator("proj:0,1,2,3,17,40", n), parse_operator("proj:2,3,9,33", n))
    for elements, P, Q in ((n * 16, None, None), (n * n, *projections)):
        monkeypatch.setattr(gates, "PANEL_ELEMENTS", elements)
        windows, width = layer(algorithm, R), panel_width(n)
        for lo, (A, B) in zip(range(0, n, width), column_panels(n, P, Q)):
            handed = {}
            for block, *_ in replay_layers(windows, A, B, before=False, after=False):
                for u, w in enumerate(block.units.tolist()):
                    start = block.unit_starts[u]
                    rows = block.rows[start : start + len(windows.unit_rows[w])]
                    handed[w] = tuple(rows.tolist())
            awake = units_awake_reference(algorithm, R, P, Q, slice(lo, lo + width))
            assert handed == awake
            assert len(awake) < len(windows.unit_rows)  # some units sleep


@settings(max_examples=60, deadline=None)
@given(kernel_instances(dense=True))
def test_vector_push_matches_the_per_step_walk_bit_for_bit(instance):
    # entry k of a push is row k's entry right after its gate, bit for bit
    # what gate-by-gate application shows; the vector ends as apply_to_vector's
    algorithm, _, P, _ = instance
    walk = VectorWalk(algorithm)
    assert np.array_equal(walk.rows, layer(algorithm).rows)
    x = P[0]
    with np.errstate(all="ignore"):
        for inverse_transpose in (False, True):
            y = x.copy()
            seen = {}
            for t, gate in enumerate(algorithm.gates, start=1):
                apply_gate_reference(y, gate, inverse_transpose=inverse_transpose)
                for i in touched(gate):
                    seen[(t, i)] = y[i].tobytes()
            pushed = x.copy()
            out = walk.push(pushed, inverse_transpose=inverse_transpose)
            assert pushed.tobytes() == y.tobytes()
            got = {(t, i): v.tobytes() for t, i, v in zip(walk.steps.tolist(), walk.rows.tolist(), out)}
            assert got == seen


def _assert_replay_matches_the_gate_reference(algorithm, A, B):
    """Each step of ``replay`` on (A, B) leaves the bytes that applying the
    gate objects one by one leaves."""
    want_A, want_B = A.copy(), B.copy()
    with np.errstate(all="ignore"):
        for t, rows in replay(algorithm, A, B):
            if t:
                gate = algorithm.gates[t - 1]
                apply_gate_reference(want_A, gate)
                apply_gate_reference(want_B, gate, inverse_transpose=True)
                assert rows == touched(gate)
            assert (A.tobytes(), B.tobytes()) == (want_A.tobytes(), want_B.tobytes())


@settings(max_examples=60, deadline=None)
@given(kernel_instances(dense=True))
def test_replay_matches_the_gate_reference_bit_for_bit(instance):
    # on a vector and on n x 7 columns (the extreme constants overflow to inf
    # and nan, in both alike)
    algorithm, _, P, Q = instance
    _assert_replay_matches_the_gate_reference(algorithm, P[0].copy(), Q[0].copy())
    A, B = np.tile(P, 7)[:, :7], np.tile(Q, 7)[:, :7]
    _assert_replay_matches_the_gate_reference(algorithm, A, B)


@pytest.mark.parametrize("columns", [1, 7, 64])
def test_replay_rotates_wide_rows_a_slice_of_columns_at_a_time(columns, monkeypatch):
    # 50 columns in slices of 1, of 7 (the last one ragged) and in one pass
    monkeypatch.setattr(gates, "ROTATE_COLUMNS", columns)
    rng = np.random.default_rng(columns)
    A, B = rng.standard_normal((2, 8, 50))
    _assert_replay_matches_the_gate_reference(build_random(8, 120, seed=4), A, B)


def test_no_gate_objects_are_applied_outside_the_two_kernels():
    from gatelab import quantized

    for name in ("apply_gate_rows", "start_pair"):
        assert not hasattr(gates, name)
    for name in ("_quantized_step", "Gate", "touched"):
        assert not hasattr(quantized, name)


@pytest.mark.parametrize(
    "algorithm",
    [build_wht(16), build_dft_real(16), build_random(8, 60, 3), build_random(300, 400, 5)],
    ids=["wht16", "dft16", "random8", "random300"],
)
def test_transposed_walk_gives_the_rows_of_both_matrices(algorithm):
    # every (t, i) of the small programs: an untouched row of M(t) may need
    # gates that the layering put in later layers than gate t
    walk = VectorWalk(algorithm)
    if algorithm.n <= 16:
        wanted = {(t, i) for t in range(algorithm.m + 1) for i in range(algorithm.n)}
    else:
        wanted = {(t, i) for t, i in zip(walk.steps.tolist(), walk.rows.tolist())}
        wanted |= {(0, 0), (algorithm.m, 1)}  # untouched rows are rows too
    M, Minv_T = start_pair(algorithm.n)
    for t, _ in replay(algorithm, M, Minv_T):
        for i in sorted(i for s, i in wanted if s == t):
            for inverse_transpose, want in ((False, M[i]), (True, Minv_T[i])):
                got = walk.row(t, i, inverse_transpose=inverse_transpose)
                assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_panel_width_keeps_every_n_up_to_512_on_one_panel():
    assert all(panel_width(n) == n for n in range(1, 513))
    assert panel_width(1024) == 256
    assert panel_width(8192) == 32


@pytest.mark.parametrize("n, elements", [(8, 64), (7, 14), (9, 36), (5, 10)])
def test_column_panels_tile_the_start_pair(n, elements, monkeypatch):
    # panels of the width rule, the last one ragged where n is not a multiple
    monkeypatch.setattr(gates, "PANEL_ELEMENTS", elements)
    width = panel_width(n)
    rng = np.random.default_rng(n)
    P = rng.standard_normal((n, n))
    for operators in ((None, None), (P, None), (None, P.tolist())):
        A, B = start_pair(n, *operators)
        lo = 0
        for a, b in column_panels(n, *operators):
            assert a.flags.c_contiguous and b.flags.c_contiguous
            assert a.shape == (n, min(width, n - lo))
            assert a.tobytes() == A[:, lo : lo + a.shape[1]].tobytes()
            assert b.tobytes() == B[:, lo : lo + b.shape[1]].tobytes()
            lo += a.shape[1]
        assert lo == n
    with pytest.raises(ValueError, match=f"P and Q must be {n}x{n}"):
        column_panels(n, P[:, :-1])


def test_layering_keeps_row_order_and_cuts_wide_layers_into_blocks():
    a = build_wht(256)
    blocks = layer(a)
    assert blocks.layers == 16  # log2(256) butterfly stages, rotations then reflections
    assert len(blocks) > blocks.layers
    for block in blocks:
        assert block.rows.size * a.n <= BLOCK_ELEMENTS
        assert len(set(block.rows.tolist())) == block.rows.size
    position = {}
    for k, block in enumerate(blocks):
        for w in block.units.tolist():
            position[w] = k
    last = {}
    for g, gate in enumerate(a.gates):
        for r in touched(gate):
            if r in last:
                assert position[last[r]] < position[g]
            last[r] = g


@pytest.mark.parametrize(
    "algorithm, R, width",
    [
        (build_wht(64), 1, None),
        (build_dft_real(16), 2, None),
        (build_random(8, 60, 3), 3, 1),
        (build_random(300, 400, 5), 1, 1),
    ],
    ids=["wht64", "dft16-R2", "random8-R3-width1", "random300-width1"],
)
def test_layered_gates_name_their_rows_of_the_matrix(algorithm, R, width):
    # each gate's rows i and j (i again for a constant) as rows of A and B,
    # in the layering's gate order, each row of the pair contiguous
    blocks = layer(algorithm, R, width=width)
    arrays = algorithm.arrays
    want = np.stack((arrays.i, np.where(arrays.rotation, arrays.j, arrays.i)))[:, blocks.gates]
    assert np.array_equal(blocks.gate_rows, want)
    assert all(rows.flags.c_contiguous for rows in blocks.gate_rows)


def _assert_same_layering(got, want):
    for name in ("units", "rows", "unit_starts", "row_units", "gates", "gate_rows", "first",
                 "second"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("cuts", "row_cuts", "groups", "gate_cuts", "gate_counts", "unit_rows"):
        assert list(getattr(got, name)) == list(getattr(want, name)), name
    assert got.layers == want.layers


@pytest.mark.parametrize("R", [1, 2, 3])
@pytest.mark.parametrize(
    "algorithm",
    [build_wht(1024), build_dft_real(64), build_scaled_bottleneck_fixture(16, 2.0**20, 4),
     build_inverse_scaled_fixture(16, 2.0**8, 4), build_random(8, 60, 3),
     build_random(300, 400, 5)],
    ids=["wht1024", "dft64", "scaled16", "inverse_scaled16", "random8", "random300"],
)
def test_layering_matches_the_unit_by_unit_reference(algorithm, R):
    # at WHT n=1024 the panel width, 256, cuts every layer into blocks
    for width in (1, panel_width(algorithm.n)):
        _assert_same_layering(layer(algorithm, R, width), layer_reference(algorithm, R, width))


@settings(max_examples=60, deadline=None)
@given(kernel_instances())
def test_layering_of_random_programs_matches_the_unit_by_unit_reference(instance):
    algorithm, R, _, _ = instance
    for width in (1, 2, panel_width(algorithm.n)):
        _assert_same_layering(layer(algorithm, R, width), layer_reference(algorithm, R, width))


def test_one_gate_encoding_and_one_rotation_for_both_matrix_walks(monkeypatch):
    # every gate compiles to (i, j, first, second), and the per-step and the
    # layered walk rotate through the one shared row-pair rotation
    algorithm = build_random(8, 60, 3)
    arrays = algorithm.arrays
    assert arrays._fields == ("i", "j", "first", "second")
    kinds = [isinstance(g, Rotation) for g in algorithm.gates]
    assert arrays.rotation.tolist() == kinds and any(kinds) and not all(kinds)
    calls = []
    rotate_pair = gates.rotate_pair
    assert layering.rotate_pair is rotate_pair  # the layered walk's, imported by name
    for module in (gates, layering):
        monkeypatch.setattr(module, "rotate_pair",
                            lambda *args: calls.append(1) or rotate_pair(*args))
    A, B = start_pair(algorithm.n)
    for _ in replay(algorithm, A, B):
        pass
    assert len(calls) == 2 * sum(kinds)  # each rotation on M and on M^{-T}
    calls.clear()
    A, B = start_pair(algorithm.n)
    for _ in replay_layers(layer(algorithm), A, B):
        pass
    assert calls


def test_layered_walk_applies_gate_runs_in_place():
    # one layered kernel: runs of gates act on A and B themselves, with no
    # per-step objects and no block-relative row positions
    for module in (gates, layering):
        assert not hasattr(module, "LayerStep") and not hasattr(module, "Layering")
    assert "steps" not in layering.Block._fields


def test_full_wht4_matches_dense_gate_product():
    a = build_wht(4)
    M, _ = matrices_at(a, a.m)
    assert np.abs(M - compose_dense(a)).max() < 1e-12


def test_matrices_at_endpoints():
    a = build_wht(2)
    M0, N0 = matrices_at(a, 0)
    assert np.array_equal(M0, np.eye(2))
    assert np.array_equal(N0, np.eye(2))
    M, N = matrices_at(a, a.m)
    F = wht_sign_matrix(2)
    assert np.abs(M - F).max() < 1e-12
    assert np.abs(N - F).max() < 1e-12


def test_matrices_at_constant_fixture():
    a = LinearAlgorithm(4, (Constant(0, 4.0),))
    M, N = matrices_at(a, 1)
    assert np.allclose(M, np.diag([4.0, 1, 1, 1]))
    assert np.allclose(N, np.diag([0.25, 1, 1, 1]))
    with pytest.raises(ValueError):
        matrices_at(a, 2)


def test_validate_wht8_is_perfectly_conditioned():
    diag = validate(build_wht(8))
    assert diag.stable
    assert max(abs(k - 1.0) for k in diag.kappas) < 1e-9


def test_validate_tracks_planted_condition_number():
    # scale one row by 16 mid-run and immediately undo it: exactly one step
    # sees singular values (16, 1, 1, 1)
    gates = list(build_wht(4).gates)
    mid = (Constant(2, 16.0), Constant(2, 1 / 16.0))
    a = LinearAlgorithm(4, tuple(gates[:4]) + mid + tuple(gates[4:]))
    diag = validate(a)
    assert abs(diag.max_kappa - 16.0) < 1e-9


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings would only repeat the error
def test_validate_names_the_first_step_whose_residual_is_not_finite():
    # row 0 of M overflows to inf at step 2 while row 0 of M^{-T} underflows to
    # 0, so the residual there is NaN; a running max would keep 0.0
    overflow = LinearAlgorithm(2, (Constant(0, 1e200), Constant(0, 1e200), Rotation(0, 1, 0.5)))
    with pytest.raises(ArithmeticError, match="residual is not finite at step 2$"):
        validate(overflow)


def test_validate_empty_gate_list():
    diag = validate(LinearAlgorithm(3, ()))
    assert diag.max_residual == 0.0
    assert diag.kappas == [1.0]


# A scaling by |c| in [1/2, 2] multiplies the condition number by at most 2,
# so 19 of them keep every kappa below 2^19 < 1e6.
_MAX_SCALINGS = 19


@st.composite
def validate_programs(draw):
    """Rotations, reflections (c = -1) and scalings with |c| != 1 on few rows,
    so that rows repeat from gate to gate."""
    n = draw(st.integers(2, 6))
    gates, scalings = [], 0
    for kind in draw(st.lists(st.sampled_from("RFC"), max_size=40)):
        i = draw(st.integers(0, n - 1))
        if kind == "R":
            j = draw(st.integers(0, n - 2))
            gates.append(Rotation(i, j + (j >= i), draw(st.floats(-7, 7))))
        elif kind == "F" or scalings == _MAX_SCALINGS:
            gates.append(Constant(i, -1.0))
        else:
            scalings += 1
            c = draw(st.floats(0.5, 2.0).filter(lambda x: x != 1.0))
            gates.append(Constant(i, draw(st.sampled_from([-1.0, 1.0])) * c))
    return LinearAlgorithm(n, tuple(gates))


@settings(max_examples=150, deadline=None)
@given(validate_programs())
def test_validate_matches_the_dense_check_at_every_step(algorithm):
    # the touched-row residual and the repeated kappas agree with the full
    # residual product and an SVD after every gate
    got, want = validate(algorithm), validate_reference(algorithm)
    assert got.stable == want.stable
    assert len(got.kappas) == len(want.kappas) == algorithm.m + 1
    for kappa, expected in zip(got.kappas, want.kappas):
        assert abs(kappa - expected) <= 1e-9 * expected
    assert abs(got.max_residual - want.max_residual) <= 1e-9


def test_validate_runs_an_svd_only_after_a_rescaling_constant(monkeypatch):
    gates = (
        Rotation(0, 1, 0.3), Constant(2, -1.0), Constant(1, 3.0), Rotation(1, 2, 1.1),
        Constant(0, -1.0), Rotation(0, 2, -0.4), Constant(2, 0.25), Rotation(2, 3, 2.0),
        Constant(3, 1.0), Rotation(3, 0, 0.7),
    )
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    diag = validate(LinearAlgorithm(4, gates))
    assert len(calls) == 1 + 2  # t = 0, then after c = 3 and c = 0.25
    kappas = diag.kappas
    # steps 1-2 follow t = 0, steps 4-6 the scaling by 3, steps 8-10 the one by 1/4
    assert kappas[0] == kappas[1] == kappas[2] == 1.0
    assert kappas[3] == kappas[4] == kappas[5] == kappas[6] != 1.0
    assert kappas[7] == kappas[8] == kappas[9] == kappas[10] != kappas[3]


def test_inverse_consistency_and_vector_agreement_random():
    # 1e-9 tolerances are relative: long runs of row scalings can push the
    # trajectory scale to 1e6 and beyond, so residuals are measured against it
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(2, 33))
        m = int(rng.integers(1, 201))
        a = build_random(n, m, seed=int(rng.integers(1_000_000)))
        M, N = matrices_at(a, a.m)
        scale = max(1.0, np.abs(M).max() * np.abs(N).max())
        assert np.abs(M @ N.T - np.eye(n)).max() <= 1e-9 * scale
        x = rng.standard_normal(n)
        direct = apply_to_vector(a, x)
        dense = M @ x
        assert np.abs(direct - dense).max() <= 1e-9 * max(1.0, np.abs(dense).max())


def test_row_locality_untouched_rows_bit_identical():
    a = build_random(8, 60, seed=5)
    for t in range(1, a.m + 1):
        prev_M, prev_N = matrices_at(a, t - 1)
        cur_M, cur_N = matrices_at(a, t)
        rows = set(touched(a.gates[t - 1]))
        keep = [i for i in range(8) if i not in rows]
        assert np.array_equal(prev_M[keep], cur_M[keep])
        assert np.array_equal(prev_N[keep], cur_N[keep])


def test_gate_invariants():
    rejected = [
        (lambda: Rotation(1, 1, 0.3), "rotation needs two distinct coordinates, got 1 twice"),
        (lambda: Rotation(-1, 2, 0.3), "negative coordinate in rotation (-1, 2)"),
        (lambda: Rotation(0, 1, math.nan), "non-finite rotation angle nan"),
        (lambda: Constant(-1, 2.0), "negative coordinate in constant gate (-1)"),
        (lambda: Constant(0, 0.0), "constant gate scalar must be finite and nonzero, got 0.0"),
        (lambda: Constant(0, math.inf), "constant gate scalar must be finite and nonzero, got inf"),
        (lambda: LinearAlgorithm(2, (Rotation(0, 5, 0.1),)),
         "gate 0 touches coordinate 5, out of range for n=2"),
        (lambda: LinearAlgorithm(1, ()), "dimension must be at least 2, got 1"),
    ]
    for make, message in rejected:
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message
    assert is_reflection(Constant(3, -1.0))
    assert not is_reflection(Constant(3, -2.0))
    assert not is_reflection(Rotation(0, 1, 0.1))


def test_gate_model_is_frozen_and_compared_by_value():
    rot, const = Rotation(0, 1, 0.5), Constant(1, 2.0)
    algorithm = LinearAlgorithm(2, [rot, const], label="x")
    assert algorithm.gates == (rot, const)  # stored as a tuple
    twins = [
        (rot, Rotation(0, 1, 0.5)),
        (const, Constant(1, 2.0)),
        (algorithm, LinearAlgorithm(n=2, gates=(Rotation(0, 1, 0.5), Constant(1, 2.0)), label="x")),
    ]
    for a, b in twins:
        assert a == b and hash(a) == hash(b) and a is not b
    assert rot != Rotation(1, 0, 0.5) and const != Constant(1, -2.0)
    assert algorithm != LinearAlgorithm(2, (rot, const))  # the label counts
    # a rotation never equals a constant, whatever their fields
    assert Rotation(0, 1, 2.0) != Constant(0, 1.0) and Constant(0, 1.0) != Rotation(0, 1, 2.0)
    assert len({rot, Rotation(0, 1, 0.5), const, Constant(1, 2.0)}) == 2
    algorithm.arrays  # the cached arrays do not unfreeze the algorithm
    for obj, name in [(rot, "i"), (rot, "theta"), (const, "c"), (rot, "other"),
                      (algorithm, "n"), (algorithm, "gates"), (algorithm, "other")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(
                st.just("R"),
                st.integers(0, 5),
                st.integers(0, 5),
                st.floats(-50, 50, allow_nan=False),
            ),
            st.tuples(
                st.just("C"),
                st.integers(0, 5),
                st.floats(-100, 100, allow_nan=False).filter(lambda c: abs(c) > 1e-9),
            ),
        ),
        max_size=20,
    )
)
def test_text_format_round_trip(raw_gates):
    gates = []
    for spec in raw_gates:
        if spec[0] == "R":
            _, i, j, theta = spec
            if i == j:
                continue
            gates.append(Rotation(i, j, theta))
        else:
            _, i, c = spec
            gates.append(Constant(i, c))
    a = LinearAlgorithm(6, tuple(gates))
    assert parse_algorithm(render_algorithm(a)).gates == a.gates


def test_round_trip_preserves_seventeen_digit_scalars():
    a = LinearAlgorithm(4, (Rotation(0, 3, math.pi / 4), Constant(2, -1.0 / 3.0)))
    b = parse_algorithm(render_algorithm(a))
    assert b.n == 4 and b.gates == a.gates


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_algorithm("n 4 m 1\nR 0 0 0.5\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_algorithm("n 4 m 2\nC 0 2.0\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_algorithm("bogus\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_algorithm("n 4 m 1\nX 0 1\n")
    assert err.value.line == 2


# Gate-file-like text: header and gate letters, numbers, non-finite words and
# every separator ``str.splitlines`` or ``str.split`` treats specially.
_GATE_ALPHABET = "nmRC0123456789+-.e \t\r\n\x0b\x0c"
_WORDS = st.sampled_from(
    ["n", "m", "R", "C", "0", "1", "2", "3", "4", "-1", "+2", "0.5", ".", "e",
     "1e999", "-1e-999", "nan", "inf", "-inf", "9" * 5000]
)
_SEPARATORS = st.sampled_from([" ", "  ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c"])
_GATE_LIKE_TEXT = st.tuples(
    st.sampled_from(["", "n 4 m 1\n", "n 4 m 2\nR 0 1 0.5\n", "n 2 m 0\n", "n 1 m 0\n"]),
    st.one_of(
        st.text(alphabet=_GATE_ALPHABET, max_size=60),
        st.lists(st.tuples(_WORDS, _SEPARATORS), max_size=24).map(
            lambda parts: "".join(word + sep for word, sep in parts)
        ),
    ),
).map("".join)


@settings(max_examples=400, deadline=None)
@given(text=_GATE_LIKE_TEXT)
def test_parser_returns_an_algorithm_or_a_line_numbered_error(text):
    try:
        algorithm = parse_algorithm(text)
    except ParseError as exc:
        assert 1 <= exc.line <= max(1, len(text.splitlines()))
        assert str(exc).startswith(f"line {exc.line}: ")
    else:
        assert isinstance(algorithm, LinearAlgorithm)
