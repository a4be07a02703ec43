import json

import numpy as np
import pytest

from gatelab.cli import main, parse_number, parse_operator

from oracles import assert_lemma_contract


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


def test_volume_cli_exit_codes(tmp_path):
    alg = tmp_path / "inv8.alg"
    run(["build", "--inverse-scaled", "8,4,4", "-o", alg])
    out = tmp_path / "vol.json"
    assert run(["volume", alg, "--tau", 2, "--b", 32, "-o", out]) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["sum_log2_gamma"] - 8.0) < 1e-9
    # an absurd claimed speedup makes the closed form exceed the achieved sum
    assert run(["volume", alg, "--tau", 2, "--b", "1e9", "-o", out]) == 2


def test_unparseable_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("n 4 m 1\nR 0 0 1.0\n")
    assert run(["trace", bad]) == 1
    assert "line 2" in capsys.readouterr().err
    assert run(["trace", tmp_path / "missing.alg"]) == 1


def test_build_requires_exactly_one_source(tmp_path):
    assert run(["build", "-o", tmp_path / "x.alg"]) == 1
    assert run(["build", "--wht", 4, "--dft", 8, "-o", tmp_path / "x.alg"]) == 1


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
         "seed must be a non-negative integer, got -1"),
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


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert "usage: gatelab" in capsys.readouterr().out
