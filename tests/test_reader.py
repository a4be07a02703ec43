"""The one gate-file parser and the reader that compiles its columns.

``gates.read_algorithm`` must give the ``GateArrays`` that compiling the
columns of the parsed gate objects gives, bit for bit, and the gate objects
themselves when ``gates`` is read, and none before; a malformed file gets the line number
and message of the gate checks.
"""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatelab import cli, gates, model
from gatelab.builders import (
    build_dft_real,
    build_inverse_scaled_fixture,
    build_random,
    build_scaled_bottleneck_fixture,
    build_wht,
)
from gatelab.gates import read_algorithm
from gatelab.model import (
    Constant,
    LinearAlgorithm,
    ParseError,
    Rotation,
    parse_algorithm,
    render_algorithm,
)


def _read_text(text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "program.alg")
        path.write_text(text)
        return read_algorithm(str(path))


def _assert_reads_as_parsed(text: str) -> None:
    read = _read_text(text)
    parsed = parse_algorithm(text)
    want = LinearAlgorithm(parsed.n, parsed.gates).arrays  # compiled from the gate objects
    assert read.n == parsed.n and read.m == parsed.m
    for got, expected in zip(read.arrays, want):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        assert not got.flags.writeable
    assert read.gates == parsed.gates
    for gate in read.gates:  # Python numbers, not numpy scalars
        assert [type(field) for field in gate] == [int] * (len(gate) - 1) + [float]


_ANGLES = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda c: c != 0.0 and math.isfinite(1.0 / c)
)


@st.composite
def programs(draw):
    """Up to 60 gates on n = 2..40 rows, every finite angle and every
    constant with a finite reciprocal."""
    n = draw(st.integers(2, 40))
    gates_ = []
    for _ in range(draw(st.integers(0, 60))):
        i = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            gates_.append(Constant(i, draw(_SCALARS)))
        else:
            j = draw(st.integers(0, n - 2))
            gates_.append(Rotation(i, j + (j >= i), draw(_ANGLES)))
    return LinearAlgorithm(n, gates_)


@settings(max_examples=80, deadline=None)
@given(programs())
def test_the_reader_compiles_what_the_parsed_gates_compile(algorithm):
    _assert_reads_as_parsed(render_algorithm(algorithm))


@pytest.mark.parametrize(
    "algorithm",
    [build_wht(64), build_dft_real(32), build_scaled_bottleneck_fixture(16, 2.0**40, 4),
     build_inverse_scaled_fixture(16, 2.0**8, 4), build_random(12, 200, 3)],
    ids=["wht64", "dft32", "scaled16", "inverse_scaled16", "random12"],
)
def test_the_reader_compiles_the_fixtures_as_parsed(algorithm):
    _assert_reads_as_parsed(render_algorithm(algorithm))


def test_an_analysis_builds_no_gate_object_until_gates_is_read(tmp_path, monkeypatch):
    alg = tmp_path / "dft16.alg"
    model.write_algorithm(build_dft_real(16), str(alg))
    made, loaded = [], []
    for kind in (Rotation, Constant):
        def counted_new(cls, *args, real_new=kind.__new__):
            made.append(cls)
            return real_new(cls, *args)

        monkeypatch.setattr(kind, "__new__", counted_new)

    def kept_read(path, real_read=gates.read_algorithm):
        loaded.append(real_read(path))
        return loaded[-1]

    monkeypatch.setattr(gates, "read_algorithm", kept_read)
    assert cli.main(["trace", str(alg), "-o", str(tmp_path / "trace.csv")]) == 0
    assert len(loaded) == 1 and made == []
    assert loaded[0].gates == parse_algorithm(alg.read_text()).gates
    assert len(made) == 2 * loaded[0].m  # the reader's gates, then the parser's


# Each malformed file, the line its ParseError names, and its message.
_MALFORMED = [
    ("", 1, "empty input, expected header 'n <n> m <m>'"),
    ("\n\n", 1, "bad header '', expected 'n <n> m <m>'"),
    ("m 4 n 1\n", 1, "bad header 'm 4 n 1', expected 'n <n> m <m>'"),
    ("n 4 m\n", 1, "bad header 'n 4 m', expected 'n <n> m <m>'"),
    ("n four m 1\nR 0 1 0.5\n", 1, "non-integer dimensions in header 'n four m 1'"),
    ("n 4 m 2\nR 0 1 0.5\n", 1, "header declares m=2 gates but 1 were parsed"),
    ("n 4 m 0\nR 0 1 0.5\n", 1, "header declares m=0 gates but 1 were parsed"),
    ("n 4 m 1\nR 0 1\n", 2, "unrecognized gate line 'R 0 1'"),
    ("n 4 m 1\nC 0 1 2\n", 2, "unrecognized gate line 'C 0 1 2'"),
    ("n 4 m 1\nX 0 1\n", 2, "unrecognized gate line 'X 0 1'"),
    ("n 4 m 1\nr 0 1 0.5\n", 2, "unrecognized gate line 'r 0 1 0.5'"),
    ("n 4 m 1\nR 0x10 1 0.5\n", 2, "invalid literal for int() with base 10: '0x10'"),
    ("n 4 m 1\nR 0 1 0x10\n", 2, "could not convert string to float: '0x10'"),
    ("n 4 m 1\nR 2 2 0.5\n", 2, "rotation needs two distinct coordinates, got 2 twice"),
    ("n 4 m 1\nR -1 2 0.5\n", 2, "negative coordinate in rotation (-1, 2)"),
    ("n 4 m 1\nR 1 -2 0.5\n", 2, "negative coordinate in rotation (1, -2)"),
    ("n 4 m 1\nC -1 2.0\n", 2, "negative coordinate in constant gate (-1)"),
    ("n 4 m 1\nR 0 4 0.5\n", 1, "gate 0 touches coordinate 4, out of range for n=4"),
    ("n 4 m 2\nR 0 1 0.5\nC 9 2.0\n", 1, "gate 1 touches coordinate 9, out of range for n=4"),
    ("n 1 m 0\n", 1, "dimension must be at least 2, got 1"),
    ("n 1 m 1\nR 0 5 0.5\n", 1, "dimension must be at least 2, got 1"),
    ("n 4 m 1\nR 0 1 nan\n", 2, "non-finite rotation angle nan"),
    ("n 4 m 1\nR 0 1 -inf\n", 2, "non-finite rotation angle -inf"),
    ("n 4 m 1\nR 0 1 1e999\n", 2, "non-finite rotation angle inf"),
    ("n 4 m 1\nC 0 inf\n", 2, "constant gate scalar must be finite and nonzero, got inf"),
    ("n 4 m 1\nC 0 nan\n", 2, "constant gate scalar must be finite and nonzero, got nan"),
    ("n 4 m 1\nC 0 0\n", 2, "constant gate scalar must be finite and nonzero, got 0.0"),
    ("n 4 m 1\nC 0 -0.0\n", 2, "constant gate scalar must be finite and nonzero, got -0.0"),
    ("n 4 m 1\nC 0 1e-320\n", 2,
     "constant gate scalar must have a finite reciprocal, got 1e-320"),
    ("n 4 m 3\nR 0 1 0.5\nR 0 1 0.5\nR 0 0 0.5\n", 4,
     "rotation needs two distinct coordinates, got 0 twice"),
    ("n 4 m 2\nR 0 0 0.5\nR 0 x 0.5\n", 2,
     "rotation needs two distinct coordinates, got 0 twice"),
    ("n 4 m 2\nR 0 1 0.5\n\nC 1 2 3\n", 4, "unrecognized gate line 'C 1 2 3'"),
    ("n 4 m 1\nR " + "9" * 5000 + " 1 0.5\n", 2,
     "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits;"
     " use sys.set_int_max_str_digits() to increase the limit"),
]


@pytest.mark.parametrize("text, line, message", _MALFORMED)
def test_a_malformed_file_names_its_line_and_fault(text, line, message):
    for read in (parse_algorithm, _read_text):
        with pytest.raises(ParseError) as err:
            read(text)
        assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


def test_a_constant_without_a_finite_reciprocal_is_refused():
    with pytest.raises(ValueError, match="^constant gate scalar must have a finite reciprocal"):
        Constant(0, 1e-320)
    assert Constant(0, 1e-300).c == 1e-300 and Constant(0, -(2.0**-1022)).c == -(2.0**-1022)


def test_blank_lines_are_skipped_and_underscored_digits_read_as_python_reads_them():
    text = "n 16 m 2\n\n  \t\nR 0 1_0 0.5\r\n\x0cC 1 2_0.5\n\n"
    want = (Rotation(0, 10, 0.5), Constant(1, 20.5))
    assert parse_algorithm(text).gates == want
    assert _read_text(text).gates == want
