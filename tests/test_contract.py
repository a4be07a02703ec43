"""The CLI contract over generated gate files.

Every subcommand that reads a gate file exits 0, 1 or 2.  Exit 0 writes
nothing to stderr, exit 1 writes exactly one ``error:`` line, and exit 2
writes either one ``error:`` line or nothing (a failed inequality writes its
full output instead).  No numpy warning escapes, and every number in every
output file is finite.  The programs are ones the parser accepts, built from
values at the edges of float64: subnormal, huge and tiny angles, and
constants whose products overflow or underflow.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatelab import cli

ANGLES = (0.0, -0.0, 5e-324, 1e-300, 0.3, math.pi / 4, math.pi / 2, 1e16, 7e22, 1e308)
# each is finite and nonzero, with a finite reciprocal
CONSTANTS = (1e308, -1e308, 1e200, 1e-200, 1e-300, -1e-300, 1e-8, 1e16, 7e22, -1.0, 0.5,
             2.0, 3.0)

# The forms run on each program, after the gate file; ``--R 2`` runs at n >= 4.
# Every form also writes ``-o``; ``simulate`` writes its summary beside it.
FORMS = (
    ("validate",),
    ("trace",),
    ("scan",),
    ("scan", "--include-constants"),
    ("scan", "--R", "2"),
    ("chain",),
    ("extract",),
    ("extract", "--no-target-check"),
    ("volume",),
    ("underflow", "--eps", "2^-10"),
    ("simulate", "--eps", "2^-10", "--samples", "20"),
)
CSV_COMMANDS = {"trace", "simulate"}


@st.composite
def gate_files(draw) -> str:
    """The text of a gate file, every value written with ``repr``."""
    n = draw(st.sampled_from([2, 3, 4, 8]))
    rows = st.integers(0, n - 1)
    rotation = st.tuples(
        st.lists(rows, min_size=2, max_size=2, unique=True), st.sampled_from(ANGLES)
    ).map(lambda g: f"R {g[0][0]} {g[0][1]} {g[1]!r}\n")
    constant = st.tuples(rows, st.sampled_from(CONSTANTS)).map(lambda g: f"C {g[0]} {g[1]!r}\n")
    lines = draw(st.lists(st.one_of(rotation, constant), min_size=1, max_size=12))
    return f"n {n} m {len(lines)}\n" + "".join(lines)


def _reject(constant: str):
    raise AssertionError(f"JSON holds {constant}")


def _assert_finite_json(text: str) -> None:
    pending = [json.loads(text, parse_constant=_reject)]
    while pending:
        value = pending.pop()
        if isinstance(value, dict):
            pending.extend(value.values())
        elif isinstance(value, list):
            pending.extend(value)
        elif isinstance(value, float):
            assert math.isfinite(value), value


def _assert_finite_csv(text: str) -> None:
    for line in text.splitlines()[2:]:
        for cell in line.split(","):
            assert not cell or math.isfinite(float(cell)), line


@settings(max_examples=60, deadline=None)
@example("n 2 m 2\nC 0 1e-300\nC 1 1e308\n")
@given(gate_files())
def test_every_subcommand_keeps_the_cli_contract(text):
    n = int(text.split()[1])
    with tempfile.TemporaryDirectory() as tmp:
        alg = os.path.join(tmp, "program.alg")
        with open(alg, "w") as fh:
            fh.write(text)
        for form in FORMS:
            if "--R" in form and n < 4:
                continue
            command = form[0]
            out = os.path.join(tmp, "out.csv" if command in CSV_COMMANDS else "out.json")
            summary = os.path.join(tmp, "summary.json")
            argv = [command, alg, *form[1:], "-o", out]
            if command == "simulate":
                argv += ["--summary", summary]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(argv)
            message = err.getvalue()
            assert code in (0, 1, 2), (argv, code)
            one_line = message.startswith("error: ") and message.count("\n") == 1 \
                and message.endswith("\n")
            if code == 0:
                assert message == "", (argv, message)
            elif code == 1:
                assert one_line, (argv, message)
            else:
                assert message == "" or one_line, (argv, message)
            for path in (out, summary):
                if os.path.exists(path):
                    with open(path) as fh:
                        written = fh.read()
                    os.remove(path)
                    if path.endswith(".csv"):
                        _assert_finite_csv(written)
                    else:
                        _assert_finite_json(written)
