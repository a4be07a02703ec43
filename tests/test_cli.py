import argparse
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatelab import cli, quantized
from gatelab.potential import trace_potential
from gatelab.cli import _simulate_csv, main, parse_number, parse_operator
from gatelab.gates import read_algorithm
from gatelab.model import touched

from oracles import (
    assert_lemma_contract,
    run_stats_events,
    simulate_csv_reference,
    trace_csv_reference,
)


def run(args):
    return main([str(a) for a in args])


def test_parse_number_power_literal():
    assert parse_number("2^-10") == 2.0**-10
    assert parse_number("2^5") == 32.0
    assert parse_number("0.25") == 0.25
    assert parse_number("1e-3") == 1e-3
    with pytest.raises(ValueError):
        parse_number("2^0.5")
    for text in ("nan", "inf", "-inf", "10^400", "0^-1"):
        with pytest.raises(ValueError):
            parse_number(text)


def test_parse_operator_specs(tmp_path):
    assert parse_operator("id", 4) is None
    P = parse_operator("proj:0,2", 4)
    assert np.array_equal(P, np.diag([1.0, 0.0, 1.0, 0.0]))
    mat = tmp_path / "op.txt"
    np.savetxt(mat, np.eye(4))
    assert np.array_equal(parse_operator(f"file:{mat}", 4), np.eye(4))
    with pytest.raises(ValueError):
        parse_operator("proj:9", 4)
    with pytest.raises(ValueError, match="coordinate '1.5' is not an integer"):
        parse_operator("proj:0,1.5", 4)
    bad = np.eye(4)
    bad[3, 0] = np.nan
    np.savetxt(mat, bad)
    with pytest.raises(ValueError, match="entry nan at row 3, column 0 of .* is not finite"):
        parse_operator(f"file:{mat}", 4)
    with pytest.raises(ValueError):
        parse_operator("diag", 4)


def test_build_then_trace_reports_final_potential(tmp_path, capsys):
    alg = tmp_path / "wht8.alg"
    assert run(["build", "--wht", 8, "-o", alg]) == 0
    csv_path = tmp_path / "trace.csv"
    assert run(["trace", alg, "-o", csv_path]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1] == "t,phi,delta,bound,touched_i,touched_j"
    last = lines[-1].split(",")
    assert last[0] == "24"
    assert abs(float(last[1]) - 24.0) < 1e-9


def test_scan_cli_values(tmp_path):
    alg = tmp_path / "wht8.alg"
    run(["build", "--wht", 8, "-o", alg])
    out = tmp_path / "scan.json"
    assert run(["scan", alg, "--R", 1, "-o", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert abs(payload["lhs"] - 2.0) < 1e-9
    assert abs(payload["rhs"] - 1.0) < 1e-9  # 24 gates moving the potential by 24
    assert payload["slack"] >= 0.0


@pytest.mark.filterwarnings("error")
def test_simulate_cli_no_overflow(tmp_path, capsys):
    alg = tmp_path / "wht8.alg"
    run(["build", "--wht", 8, "-o", alg])
    capsys.readouterr()
    csv_path = tmp_path / "sim.csv"
    summary = tmp_path / "sim.json"
    assert run([
        "simulate", alg, "--eps", "2^-10", "--samples", 2000, "--W", 32,
        "-o", csv_path, "--summary", summary,
    ]) == 0
    payload = json.loads(summary.read_text())
    assert payload["overflow_count"] == 0
    assert payload["epsilon"] == 2.0**-10
    header = csv_path.read_text().splitlines()[1]
    assert header == "t,i,mean_bits,max_abs,overflow_flag"
    assert capsys.readouterr() == ("", "")


@settings(max_examples=300, deadline=None)
@given(stats=run_stats_events())
def test_simulate_csv_matches_the_cell_by_cell_reference(stats):
    assert "".join(_simulate_csv(stats)) == simulate_csv_reference(stats)


def test_simulate_stdout_has_the_bytes_of_the_output_file(tmp_path, capsys):
    alg = tmp_path / "dft8.alg"
    run(["build", "--dft", 8, "-o", alg])
    csv_path = tmp_path / "sim.csv"
    args = ["simulate", alg, "--eps", "2^-10", "--samples", 300, "--seed", 4]
    assert run(args + ["-o", csv_path]) == 0
    capsys.readouterr()
    assert run(args) == 0
    out, err = capsys.readouterr()
    assert out.encode() == csv_path.read_bytes() and err == ""


def test_trace_csv_streams_the_bytes_of_the_joined_rendering(tmp_path, capsys):
    alg = tmp_path / "scaled16.alg"
    run(["build", "--scaled", "16,2^8,4", "-o", alg])
    want = trace_csv_reference(trace_potential(read_algorithm(str(alg))))
    csv_path = tmp_path / "trace.csv"
    args = ["trace", alg]
    assert run(args + ["-o", csv_path]) == 0
    assert csv_path.read_text() == want
    capsys.readouterr()
    assert run(args) == 0
    out, err = capsys.readouterr()
    assert out == want and err == ""


def test_chunked_simulate_csv_matches_the_reference(tmp_path, monkeypatch):
    alg = tmp_path / "scaled8.alg"
    run(["build", "--scaled", "8,2^8,4", "-o", alg])
    # chunks of 37 samples: several full chunks and an uneven last one
    monkeypatch.setattr(quantized, "_CHUNK_BUDGET", 8 * 37)
    csv_path = tmp_path / "sim.csv"
    assert run(["simulate", alg, "--eps", "2^-10", "--samples", 200, "--seed", 6,
                "--W", 16, "-o", csv_path]) == 0
    stats = quantized.simulate(read_algorithm(str(alg)), epsilon=2.0**-10, samples=200,
                               seed=6, word_budget=16.0)
    assert csv_path.read_text() == simulate_csv_reference(stats)


def test_simulate_csv_flags_exactly_the_planted_cells(tmp_path):
    alg = tmp_path / "scaled8.alg"
    run(["build", "--scaled", "8,2^8,4", "-o", alg])
    csv_path = tmp_path / "sim.csv"
    assert run(["simulate", alg, "--eps", "2^-10", "--samples", 10_000, "--seed", 3,
                "--W", 16, "-o", csv_path]) == 0
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[2:]]
    n, m = 8, read_algorithm(str(alg)).m
    cells = [(int(r[0]), int(r[1])) for r in rows]
    assert cells == [(t, i) for t in range(m + 1) for i in range(n)]
    flagged = {(int(r[0]), int(r[1])) for r in rows if r[4] == "1"}
    # row i is scaled up at step i+1 and back down at step i+5
    assert flagged == {(t, i) for i in range(4) for t in range(i + 1, i + 5)}


def test_chain_validate_extract_underflow_lemma(tmp_path):
    alg = tmp_path / "inv8.alg"
    run(["build", "--inverse-scaled", "8,4,4", "-o", alg])
    assert run(["chain", alg, "--R", 2, "-o", tmp_path / "chain.json"]) == 0
    assert run(["validate", alg, "-o", tmp_path / "val.json"]) == 0
    assert run(["extract", alg, "--tau", 2, "-o", tmp_path / "ex.json"]) == 0
    extract_payload = json.loads((tmp_path / "ex.json").read_text())
    assert extract_payload["underflow"]["size"] == 4
    assert extract_payload["overflow"]["size"] == 0
    assert run(["underflow", alg, "--eps", "2^-10", "--tau", 2,
                "-o", tmp_path / "uf.json"]) == 0
    uf = json.loads((tmp_path / "uf.json").read_text())
    assert uf["widths"][0] == 4 * 2.0**-10
    code = run([
        "lemma", "--pair-trials", 500, "--trials", 100, "--proj-trials", 10,
        "--n-list", "8", "-o", tmp_path / "lemma.json",
    ])
    assert_lemma_contract(code, json.loads((tmp_path / "lemma.json").read_text()))


def test_chain_without_windows_writes_float_sums(tmp_path):
    alg = tmp_path / "empty.alg"
    alg.write_text("n 4 m 0\n")
    out = tmp_path / "chain.json"
    assert run(["chain", alg, "-o", out]) == 0
    triangle = json.loads(out.read_text())["triangle"]
    assert triangle == {"lhs": 0.0, "rhs": 0.0, "slack": 0.0}
    assert all(type(value) is float for value in triangle.values())


def test_volume_cli_exit_codes(tmp_path):
    alg = tmp_path / "inv8.alg"
    run(["build", "--inverse-scaled", "8,4,4", "-o", alg])
    out = tmp_path / "vol.json"
    assert run(["volume", alg, "--tau", 2, "--b", 32, "-o", out]) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["sum_log2_gamma"] - 8.0) < 1e-9
    # an absurd claimed speedup makes the closed form exceed the achieved sum
    assert run(["volume", alg, "--tau", 2, "--b", "1e9", "-o", out]) == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["extract", "ALG"], "error: final matrix is not the Walsh-Hadamard transform; "
                             "pass --no-target-check to extract anyway\n"),
        (["volume", "ALG"], "error: final matrix is not the Walsh-Hadamard transform\n"),
        (["underflow", "ALG", "--eps", "2^-10"],
         "error: final matrix is not the Walsh-Hadamard transform\n"),
    ],
    ids=["extract", "volume", "underflow"],
)
def test_target_check_failure_names_only_the_cli_flag(args, message, tmp_path, capsys):
    alg = tmp_path / "random8.alg"
    run(["build", "--random", "8,30,1", "-o", alg])
    capsys.readouterr()
    assert run([alg if a == "ALG" else a for a in args]) == 1
    assert capsys.readouterr().err == message


def test_extract_without_target_check_runs_on_any_program(tmp_path):
    alg = tmp_path / "random8.alg"
    run(["build", "--random", "8,30,1", "-o", alg])
    out = tmp_path / "ex.json"
    assert run(["extract", alg, "--no-target-check", "--tau", 100, "-o", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["overflow"]["size"] == payload["underflow"]["size"] == 0


def test_unparseable_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("n 4 m 1\nR 0 0 1.0\n")
    assert run(["trace", bad]) == 1
    assert "line 2" in capsys.readouterr().err
    assert run(["trace", tmp_path / "missing.alg"]) == 1


def test_garbled_gate_file_exits_one_with_a_one_line_message(tmp_path, capsys):
    bad = tmp_path / "garbled.alg"
    bad.write_text("n 4 m 1\r\nR 0 1 1e999\x0c\n\t-.e nan\n")
    assert run(["trace", bad]) == 1
    assert capsys.readouterr() == ("", "error: line 2: non-finite rotation angle inf\n")


@pytest.mark.parametrize("sub", ["trace", "validate", "simulate"])
def test_a_constant_without_a_finite_reciprocal_exits_one(sub, tmp_path, capsys):
    # 1 / 1e-320 overflows: refused as the file is read, not reported as an
    # overflowed trajectory (exit 2) or simulated (exit 0)
    alg = tmp_path / "tiny.alg"
    alg.write_text("n 2 m 2\nR 0 1 0.5\nC 0 1e-320\n")
    out = tmp_path / "out"
    options = ["--eps", "2^-10", "--samples", 20] if sub == "simulate" else []
    args = [sub, alg, "-o", out] + options
    assert run(args) == 1
    assert not out.exists()
    assert capsys.readouterr() == (
        "", "error: line 3: constant gate scalar must have a finite reciprocal, got 1e-320\n"
    )


def test_build_requires_exactly_one_source(tmp_path):
    assert run(["build", "-o", tmp_path / "x.alg"]) == 1
    assert run(["build", "--wht", 4, "--dft", 8, "-o", tmp_path / "x.alg"]) == 1


def test_build_random_angle_only_writes_rotations_alone(tmp_path):
    mixed, rotations = tmp_path / "mixed.alg", tmp_path / "rotations.alg"
    assert run(["build", "--random", "8,40,1", "-o", mixed]) == 0
    assert run(["build", "--random", "8,40,1,angle_only", "-o", rotations]) == 0
    assert any(len(touched(g)) == 1 for g in read_algorithm(mixed).gates)
    assert all(len(touched(g)) == 2 for g in read_algorithm(rotations).gates)


def test_round_trip_through_every_reader(tmp_path):
    alg = tmp_path / "mix.alg"
    run(["build", "--random", "6,30,5", "-o", alg])
    assert run(["validate", alg, "-o", tmp_path / "v.json"]) == 0
    assert run(["scan", alg, "--R", 2, "-o", tmp_path / "s.json"]) == 0
    assert run(["trace", alg, "--P", "proj:0,1", "-o", tmp_path / "t.csv"]) == 0


def test_outputs_are_byte_identical_across_runs(tmp_path):
    alg = tmp_path / "wht8.alg"
    run(["build", "--wht", 8, "-o", alg])
    pairs = []
    for tag in ("a", "b"):
        scan = tmp_path / f"scan_{tag}.json"
        sim = tmp_path / f"sim_{tag}.csv"
        trace = tmp_path / f"trace_{tag}.csv"
        run(["scan", alg, "--R", 2, "-o", scan])
        run(["simulate", alg, "--eps", "2^-10", "--samples", 500, "--seed", 9, "-o", sim])
        run(["trace", alg, "-o", trace])
        pairs.append((scan.read_bytes(), sim.read_bytes(), trace.read_bytes()))
    assert pairs[0] == pairs[1]


def test_extract_unrestricted_gives_orthonormal_systems(tmp_path):
    alg = tmp_path / "wht16.alg"
    run(["build", "--wht", 16, "-o", alg])
    out = tmp_path / "ex.json"
    assert run(["extract", alg, "--unrestricted", "-o", out]) == 0
    payload = json.loads(out.read_text())
    for kind in ("overflow", "underflow"):
        V = np.array(payload[kind]["vectors"]).reshape(payload[kind]["size"], 16)
        assert np.abs(V @ V.T - np.eye(len(V))).max() < 1e-8
    assert payload["overflow"]["size"] + payload["underflow"]["size"] > 0


def test_every_csv_cell_is_a_number(tmp_path):
    alg = tmp_path / "scaled8.alg"
    run(["build", "--scaled", "8,2^8,4", "-o", alg])
    trace, sim = tmp_path / "trace.csv", tmp_path / "sim.csv"
    assert run(["trace", alg, "-o", trace]) == 0
    assert run(["simulate", alg, "--eps", "2^-10", "--samples", 50, "-o", sim]) == 0
    for path, numeric in ((trace, 4), (sim, 5)):
        for line in path.read_text().splitlines()[2:]:
            cells = line.split(",")
            for cell in cells[:numeric]:
                float(cell)
            # touched_i/touched_j are empty where a step touches fewer rows
            assert all(cell == "" or int(cell) >= 0 for cell in cells[numeric:])


@pytest.mark.parametrize(
    "args, reason",
    [
        (["trace"], "required: algorithm"),
        # the removed global flag: argparse takes its value for the subcommand
        (["--threads", "4", "trace", "ALG"], "invalid choice: '4'"),
        (["trace", "ALG", "--threads", "4"], "unrecognized arguments: --threads 4"),
        pytest.param(["simulate", "ALG", "--eps", "nan"],
                     "argument --eps: number 'nan' is not finite", id="args3---eps"),
        (["lemma", "--n-list", "abc"],
         "argument --n-list: 'abc' is not a comma-separated list of integers"),
        (["simulate", "ALG", "--eps", "2^-10", "--seed", "-1"],
         "argument --seed: '-1' is not a non-negative integer"),
        (["simulate", "ALG", "--eps", "2^-10", "--W", "-5"], "argument --W: '-5' is not positive"),
        (["simulate", "ALG", "--eps", "2^-10", "--sigma", "-1"],
         "argument --sigma: '-1' is not non-negative"),
        (["volume", "ALG", "--b", "0"], "argument --b: '0' is not positive"),
        (["volume", "ALG", "--b", "-1"], "argument --b: '-1' is not positive"),
        (["extract", "ALG", "--tau", "0"], "argument --tau: '0' is not positive"),
        (["volume", "ALG", "--tau", "-1"], "argument --tau: '-1' is not positive"),
        (["underflow", "ALG", "--eps", "2^-10", "--tau", "0"],
         "argument --tau: '0' is not positive"),
        (["lemma", "--trials", "0"], "argument --trials: '0' is not at least 1"),
        (["lemma", "--pair-trials", "0"], "argument --pair-trials: '0' is not at least 1"),
        (["lemma", "--proj-trials", "0"], "argument --proj-trials: '0' is not at least 1"),
        (["lemma", "--n-list", "1"], "argument --n-list: '1' is not a list of powers of two"),
        (["lemma", "--n-list", "8,12"], "argument --n-list: '8,12' is not a list of powers of two"),
        (["underflow", "ALG", "--eps", "-1"], "quantization step must be positive, got -1.0"),
        (["lemma", "--seed", "-1"], "argument --seed: '-1' is not a non-negative integer"),
        (["build", "--random", "1,5,1", "-o", "ALG"], "dimension must be at least 2, got n=1"),
        (["build", "--random", "8,5,-1", "-o", "ALG"],
         "seed must be a non-negative integer, got -1"),
        (["build", "--random", "8,5,1,0", "-o", "ALG"],
         "--random: the fourth field must be angle_only, got '0'"),
        (["build", "--random", "a,5,1", "-o", "ALG"], "--random: n must be an integer, got 'a'"),
        (["build", "--random", "8,5,1.5", "-o", "ALG"],
         "--random: seed must be an integer, got '1.5'"),
        (["build", "--scaled", "8,2,x", "-o", "ALG"], "--scaled: k must be an integer, got 'x'"),
        (["build", "--inverse-scaled", "8.0,2,1", "-o", "ALG"],
         "--inverse-scaled: n must be an integer, got '8.0'"),
        (["build", "--scaled", "8,x,1", "-o", "ALG"], "--scaled: c must be a number, got 'x'"),
        (["build", "--inverse-scaled", "8,2^x,1", "-o", "ALG"],
         "--inverse-scaled: c must be a number, got '2^x'"),
        (["build", "--scaled", "8,0.5,1", "-o", "ALG"], "--scaled: c must exceed 1, got 0.5"),
        (["build", "--inverse-scaled", "8,4,9", "-o", "ALG"],
         "--inverse-scaled: k must be in [1, 8], got 9"),
        (["simulate", "ALG", "--eps", "2^-10", "--samples", "0"],
         "argument --samples: '0' is not at least 1"),
        (["scan", "ALG", "--R", "0"], "argument --R: '0' is not at least 1"),
        (["chain", "ALG", "--R", "0"], "argument --R: '0' is not at least 1"),
    ],
)
def test_usage_errors_exit_one_with_a_one_line_message(args, reason, tmp_path, capsys):
    alg = tmp_path / "wht4.alg"
    run(["build", "--wht", 4, "-o", alg])
    capsys.readouterr()
    assert run([alg if a == "ALG" else a for a in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err


@pytest.mark.parametrize(
    "target, exc, args, code, message",
    [
        ("gatelab.directions.extract_directions", RuntimeError("not orthonormal"),
         ["extract", "ALG"], 2, "not orthonormal"),
        ("gatelab.potential.trace_potential", ArithmeticError("drifted by 1e-3"),
         ["trace", "ALG"], 2, "drifted by 1e-3"),
        # an exception without a message is reported by its type
        ("gatelab.quantized.simulate", MemoryError(),
         ["simulate", "ALG", "--eps", "1"], 1, "MemoryError"),
    ],
)
def test_library_failures_exit_with_a_one_line_message(
    target, exc, args, code, message, tmp_path, capsys, monkeypatch
):
    alg = tmp_path / "wht4.alg"
    run(["build", "--wht", 4, "-o", alg])
    capsys.readouterr()

    def fail(*_args, **_kwargs):
        raise exc

    monkeypatch.setattr(target, fail)
    assert run([alg if a == "ALG" else a for a in args]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.filterwarnings("error")
def test_validate_of_an_overflowed_trajectory_exits_two_without_output(tmp_path, capsys):
    alg = tmp_path / "overflow.alg"
    alg.write_text("n 2 m 3\nC 0 1e200\nC 0 1e200\nR 0 1 0.5\n")
    out = tmp_path / "validate.json"
    assert run(["validate", alg, "-o", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: inverse-consistency residual is not finite at step 2\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("to_file", [False, True])
def test_validate_of_an_infinite_condition_number_exits_two_without_output(
    to_file, tmp_path, capsys
):
    # M(2) = diag(1e-170, 1e170): the residual stays 0, but kappa = 1e340
    # overflows, and JSON has no number for it
    alg = tmp_path / "kappa.alg"
    alg.write_text("n 2 m 2\nC 0 1e-170\nC 1 1e170\n")
    out = tmp_path / "validate.json"
    assert run(["validate", alg] + (["-o", out] if to_file else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: condition number is not finite at step 2\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("to_file", [False, True])
def test_simulate_of_an_overflowing_program_exits_two_without_output(to_file, tmp_path, capsys):
    # row 0 overflows to inf at step 2 and the rotation spreads inf and NaN
    alg = tmp_path / "overflow.alg"
    alg.write_text("n 2 m 3\nC 0 1e200\nC 0 1e200\nR 0 1 0.5\n")
    out, summary = tmp_path / "sim.csv", tmp_path / "sim.json"
    args = ["simulate", alg, "--eps", "2^-10", "--samples", 20, "--summary", summary]
    assert run(args + (["-o", out] if to_file else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists() and not summary.exists()
    assert captured.err == "error: the simulated cell (t, i) = (2, 0) is not finite\n"


def test_simulate_names_the_first_bad_cell_in_step_then_row_order(tmp_path, monkeypatch, capsys):
    # step 1 rewrites rows 3 and 1, in that order, and leaves both bad; a
    # later bad event on row 0 comes after them
    alg = tmp_path / "wht4.alg"
    run(["build", "--wht", 4, "-o", alg])
    capsys.readouterr()
    bits = np.ones(8)
    bits[[4, 5, 7]] = math.nan
    crafted = quantized.QuantizedRunStats(
        epsilon=2.0**-10, sigma=1.0, samples=1, word_budget=32.0,
        steps=np.array([0, 0, 0, 0, 1, 1, 2, 3]), rows=np.array([0, 1, 2, 3, 3, 1, 2, 0]),
        event_bits=bits, event_max=np.ones(8),
    )
    monkeypatch.setattr(quantized, "simulate", lambda *args, **kwargs: crafted)
    assert run(["simulate", alg, "--eps", "2^-10"]) == 2
    assert capsys.readouterr() == ("", "error: the simulated cell (t, i) = (1, 1) is not finite\n")
    crafted.event_bits[[4, 5, 7]] = 1.0
    crafted.event_max[6] = math.inf
    assert run(["simulate", alg, "--eps", "2^-10"]) == 2
    assert capsys.readouterr() == ("", "error: the simulated cell (t, i) = (2, 2) is not finite\n")


def test_simulate_never_fills_the_cell_grids(tmp_path, monkeypatch):
    alg = tmp_path / "scaled8.alg"
    run(["build", "--scaled", "8,2^8,4", "-o", alg])
    stats = quantized.simulate(read_algorithm(str(alg)), epsilon=2.0**-10, samples=500,
                               seed=3, word_budget=16.0)
    want = simulate_csv_reference(stats)

    def refuse(stats):
        raise AssertionError("the CLI filled a cell grid")

    for name in ("mean_bits", "max_abs", "overflow_flags"):
        monkeypatch.setattr(quantized.QuantizedRunStats, name, property(refuse))
    csv_path, summary = tmp_path / "sim.csv", tmp_path / "sim.json"
    assert run(["simulate", alg, "--eps", "2^-10", "--samples", 500, "--seed", 3, "--W", 16,
                "-o", csv_path, "--summary", summary]) == 0
    assert csv_path.read_text() == want
    assert json.loads(summary.read_text())["overflow_count"] == 16


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, program, message",
    [
        (command, "n 2 m 3\nC 0 1e200\nC 0 1e200\nR 0 1 0.5\n",
         "the trajectory overflowed: M(m) P or M(m)^{-T} Q is not finite")
        for command in ("trace", "scan", "chain")
    ]
    + [
        ("trace", "n 2 m 2\nC 0 1e200\nR 0 1 0.5\n", "the change bound of step 2 is not finite"),
        ("scan", "n 2 m 2\nC 0 1e200\nR 0 1 0.5\n", "the window product at t = 1 is not finite"),
        ("chain", "n 2 m 2\nC 0 1e200\nR 0 1 0.5\n", "the window product at t = 0 is not finite"),
    ],
)
def test_walks_over_numbers_that_are_not_finite_exit_two_without_output(
    command, program, message, tmp_path, capsys
):
    alg = tmp_path / "overflow.alg"
    alg.write_text(program)
    out = tmp_path / "report.out"
    assert run([command, alg, "-o", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: {message}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("options", [[], ["--no-target-check"]])
@pytest.mark.parametrize(
    "program, message",
    [
        ("n 2 m 3\nC 0 1e200\nC 0 1e200\nR 0 1 0.5\n",
         "the trajectory overflowed: M(m) or M(m)^{-T} is not finite"),
        ("n 2 m 2\nC 0 1e200\nR 0 1 0.5\n", "the squared norm of row 0 of M(1) is not finite"),
    ],
)
def test_extraction_over_numbers_that_are_not_finite_exits_two_without_output(
    options, program, message, tmp_path, capsys
):
    alg = tmp_path / "overflow.alg"
    alg.write_text(program)
    out = tmp_path / "extract.json"
    assert run(["extract", alg, *options, "-o", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["trace", "scan", "chain"])
@pytest.mark.parametrize(
    "option, spec, reason",
    [
        ("--P", "file:{nan}", "--P: entry nan at row 1, column 2 of "),
        ("--Q", "file:{inf}", "--Q: entry -inf at row 1, column 2 of "),
        ("--P", "proj:1,x", "--P: projection coordinate 'x' is not an integer"),
        ("--Q", "file:{missing}", "--Q: "),
    ],
)
def test_bad_operators_exit_one_before_anything_is_written(
    command, option, spec, reason, tmp_path, capsys
):
    alg = tmp_path / "wht4.alg"
    run(["build", "--wht", 4, "-o", alg])
    files = {"nan": tmp_path / "nan.txt", "inf": tmp_path / "inf.txt"}
    for name, entry in (("nan", np.nan), ("inf", -np.inf)):
        X = np.eye(4)
        X[1, 2] = entry
        np.savetxt(files[name], X)
    out = tmp_path / "out"
    capsys.readouterr()
    spec = spec.format(missing=tmp_path / "missing.txt", **files)
    assert run([command, alg, option, spec, "-o", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith(f"error: {reason}") and captured.err.count("\n") == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert "usage: gatelab" in capsys.readouterr().out


# Every subcommand's arguments, in order: option strings (a positional's
# dest), dest, default, required, type, metavar, help, and whether the
# option is a store_true switch.
_OUTPUT = (("-o", "--output"), "output", None, False, None, None, None, False)
_ALGORITHM = ("algorithm", "algorithm", None, True, None, None, None, False)
_P = (("--P",), "P", "id", False, None, None, None, False)
_Q = (("--Q",), "Q", "id", False, None, None, None, False)
_R = (("--R",), "R", 1, False, cli._count, None, None, False)
_TAU = (("--tau",), "tau", None, False, cli._positive, None, None, False)
_EPS = (("--eps",), "eps", None, True, cli._number, None, None, False)
_SURFACE = {
    "build": ("write a reference algorithm to a gate file", cli.cmd_build, [
        (("--wht",), "wht", None, False, int, "N", None, False),
        (("--dft",), "dft", None, False, int, "N", None, False),
        (("--random",), "random", None, False, None, "N,M,SEED[,angle_only]", None, False),
        (("--scaled",), "scaled", None, False, None, "N,C,K", None, False),
        (("--inverse-scaled",), "inverse_scaled", None, False, None, "N,C,K", None, False),
        (("-o", "--output"), "output", None, True, None, None, None, False),
    ]),
    "validate": ("replay and report inverse/condition diagnostics", cli.cmd_validate, [
        _ALGORITHM, _OUTPUT,
    ]),
    "trace": ("CSV trace of the potential along the trajectory", cli.cmd_trace, [
        _ALGORITHM, _P, _Q, _OUTPUT,
    ]),
    "scan": ("window scan for touched-row bottlenecks", cli.cmd_scan, [
        _ALGORITHM, _R, _P, _Q,
        (("--include-constants",), "include_constants", False, False, None, None, None, True),
        _OUTPUT,
    ]),
    "chain": ("verify each link of the averaged bottleneck bound", cli.cmd_chain, [
        _ALGORITHM, _R, _P, _Q, _OUTPUT,
    ]),
    "lemma": ("randomized sweep of the potential inequalities", cli.cmd_lemma, [
        (("--pair-trials",), "pair_trials", 10_000, False, cli._count, None,
         "trials of the unit-pair sweep (default 10000)", False),
        (("--trials",), "trials", 1000, False, cli._count, None,
         "trials of the orthogonal-change and the nonsingular-change sweeps, each "
         "(default 1000)", False),
        (("--proj-trials",), "proj_trials", 100, False, cli._count, None,
         "trials of the projection-bound sweep, per n (default 100)", False),
        (("--n-list",), "n_list", "8,16,32", False, cli._dims, None,
         "dimensions n of the projection-bound sweep, powers of two (default 8,16,32)", False),
        (("--seed",), "seed", 0, False, cli._seed, None,
         "seed of every sweep's generator (default 0)", False),
        _OUTPUT,
    ]),
    "extract": ("extract overflow/underflow direction systems", cli.cmd_extract, [
        _ALGORITHM, _TAU,
        (("--unrestricted",), "unrestricted", False, False, None, None, None, True),
        (("--no-target-check",), "no_target_check", False, False, None, None, None, True),
        _OUTPUT,
    ]),
    "volume": ("uncertainty-volume lower bounds from the underflow basis", cli.cmd_volume, [
        _ALGORITHM, _TAU,
        (("--b",), "b", None, False, cli._positive, None, None, False),
        _OUTPUT,
    ]),
    "simulate": ("quantized replay with bit-usage statistics", cli.cmd_simulate, [
        _ALGORITHM, _EPS,
        (("--sigma",), "sigma", 1.0, False, cli._nonnegative, None, None, False),
        (("--samples",), "samples", 1000, False, cli._count, None, None, False),
        (("--seed",), "seed", 0, False, cli._seed, None, None, False),
        (("--W",), "W", 32.0, False, cli._positive, None, None, False),
        _OUTPUT,
        (("--summary",), "summary", None, False, None, None, None, False),
    ]),
    "underflow": ("per-direction uncertainty widths", cli.cmd_underflow, [
        _ALGORITHM, _EPS, _TAU, _OUTPUT,
    ]),
}


def test_the_parser_declares_every_subcommand_and_argument_as_tabled():
    parser = cli.build_parser()
    assert (parser.prog, parser.description) == (
        "gatelab", "Analysis lab for in-place rotation/constant gate algorithms."
    )
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert (sub.dest, sub.required) == ("command", True)
    listed = [(choice.dest, choice.help) for choice in sub._choices_actions]
    assert listed == [(name, help) for name, (help, _, _) in _SURFACE.items()]
    for name, (_, func, table) in _SURFACE.items():
        command = sub.choices[name]
        assert command.get_default("func") is func, name
        surface = [
            (
                tuple(a.option_strings) or a.dest, a.dest, a.default, a.required, a.type,
                a.metavar, a.help, isinstance(a, argparse._StoreTrueAction),
            )
            for a in command._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert surface == table, name
        # 1 == 1.0 == True: the defaults' types must match too
        assert [list(map(type, row)) for row in surface] == [
            list(map(type, row)) for row in table
        ], name


def _child_env() -> dict:
    """This environment, with the source tree first on the child's path."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_the_process_entry_point_gives_what_main_gives(tmp_path, capsys):
    # ``python -m gatelab.cli`` runs ``entry``, which freezes the collector
    # before the interpreter exits; ``main`` never touches it.
    alg = tmp_path / "wht8.alg"
    run(["build", "--wht", 8, "-o", alg])
    overflow = tmp_path / "overflow.alg"
    overflow.write_text("n 2 m 2\nC 0 1e200\nC 0 1e200\n")
    csv, summary = tmp_path / "sim.csv", tmp_path / "sim.json"
    cases = [
        (["trace", alg], [], 0),
        (["simulate", alg, "--eps", "2^-10", "--samples", 50, "--seed", 3, "-o", csv,
          "--summary", summary], [csv, summary], 0),
        (["trace", tmp_path / "missing.alg"], [], 1),
        (["trace", overflow], [], 2),
    ]
    for args, outputs, code in cases:
        capsys.readouterr()
        frozen = gc.get_freeze_count()
        assert run(args) == code
        assert gc.get_freeze_count() == frozen
        out, err = capsys.readouterr()
        files = [path.read_bytes() for path in outputs]
        for path in outputs:
            path.unlink()
        proc = subprocess.run([sys.executable, "-m", "gatelab.cli", *map(str, args)],
                              env=_child_env(), capture_output=True, timeout=60)
        assert proc.returncode == code
        assert (proc.stdout, proc.stderr) == (out.encode(), err.encode())
        assert [path.read_bytes() for path in outputs] == files
        assert len(err.splitlines()) == (code != 0)


_ANALYSES = {"gatelab.potential", "gatelab.bottleneck", "gatelab.directions", "gatelab.quantized",
             "gatelab.layering"}

# Calls ``cli.main`` with the given arguments, then prints the modules it
# loaded as the last line of stdout; ``json`` is imported only after they are
# listed.
_FOOTPRINT_SCRIPT = """
import sys
from gatelab import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
modules = sorted(sys.modules)
import json
print(json.dumps({"code": code, "modules": modules}))
"""

# No ``build`` kind, nor ``--help``, loads numpy, the analyses, dataclasses
# (and through it inspect) or json.
_BUILD_ABSENT = {"numpy", "dataclasses", "inspect", "json", *_ANALYSES}
# The window walks draw nothing, build no fixture and extract nothing; only
# ``lemma`` compiles the sweeps.
_WALK_ABSENT = {"numpy.random", "gatelab.builders", "gatelab.directions", "gatelab.quantized",
                "gatelab.lemma"}


@pytest.mark.parametrize(
    "args, absent",
    [
        (["build", "--wht", "8", "-o", "OUT"], _BUILD_ABSENT),
        (["build", "--dft", "8", "-o", "OUT"], _BUILD_ABSENT),
        (["build", "--random", "8,50,7", "-o", "OUT"], _BUILD_ABSENT),
        (["build", "--random", "8,50,7,angle_only", "-o", "OUT"], _BUILD_ABSENT),
        (["build", "--scaled", "8,4,2", "-o", "OUT"], _BUILD_ABSENT),
        (["build", "--inverse-scaled", "8,4,2", "-o", "OUT"], _BUILD_ABSENT),
        (["--help"], _BUILD_ABSENT),
        (["validate", "ALG"], _ANALYSES),
        (["simulate", "ALG", "--eps", "2^-10", "--samples", "10"],
         {"gatelab.bottleneck", "gatelab.directions", "gatelab.builders", "gatelab.layering"}),
        (["trace", "ALG", "-o", "OUT"], _WALK_ABSENT),
        (["scan", "ALG"], _WALK_ABSENT),
        (["chain", "ALG"], _WALK_ABSENT),
        (["lemma", "--pair-trials", "50", "--trials", "5", "--proj-trials", "1", "--n-list", "4"],
         {"gatelab.directions", "gatelab.quantized", "gatelab.layering"}),
        (["extract", "ALG"],
         {"numpy.random", "gatelab.potential", "gatelab.bottleneck", "gatelab.lemma",
          "gatelab.quantized"}),
        (["underflow", "ALG", "--eps", "2^-10"],
         {"numpy.random", "gatelab.potential", "gatelab.bottleneck", "gatelab.lemma"}),
    ],
    ids=["build-wht", "build-dft", "build-random", "build-random-angle-only", "build-scaled",
         "build-inverse-scaled", "help", "validate", "simulate", "trace", "scan", "chain",
         "lemma", "extract", "underflow"],
)
def test_each_subcommand_loads_only_the_modules_it_runs(args, absent, tmp_path):
    alg = tmp_path / "wht4.alg"
    run(["build", "--wht", 4, "-o", alg])
    argv = [str(alg) if a == "ALG" else str(tmp_path / "out") if a == "OUT" else a for a in args]
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_SCRIPT, *argv], env=_child_env(),
                          capture_output=True, text=True, check=True, timeout=60)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0, proc.stderr
    loaded = set(report["modules"])
    assert "gatelab.cli" in loaded
    assert not loaded & absent
