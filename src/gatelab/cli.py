"""Command-line entry point.

Subcommands: build, validate, trace, scan, chain, lemma, extract, volume,
simulate, underflow.  Machine-readable outputs (CSV or JSON) carry a
schema_version marker.  Numeric options accept a power literal ``B^E``
(decimal base, integer exponent), e.g. ``--eps 2^-10``.

Exit codes: 0 success, 1 usage, input, I/O or out-of-memory error, 2 a
verification failed: an inequality beyond tolerance (regression signal), an
extraction guarantee, the incremental-potential drift guard of trace and
chain, a trajectory whose inverse-consistency residual or condition number
is not finite (validate), or a walk over numbers that are not finite (trace,
scan and chain; extraction, when M(m) or a squared row norm overflows).

``python -m gatelab.cli`` and the ``gatelab`` script run ``entry``, which
calls ``main`` and then freezes the cyclic collector before the interpreter
exits: shutdown then skips its full collections over the objects numpy's
import left tracked, while atexit handlers still run and every stream is
still flushed and closed.  ``main`` itself leaves the collector alone, so
in-process callers see no change.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, NoReturn

if TYPE_CHECKING:
    import numpy as np

    from . import directions, gates, potential, quantized

# Each subcommand imports the modules it runs, and numpy only with them, so
# that a process loads no more than its subcommand needs: ``build`` never
# loads numpy, ``dataclasses`` or ``json``.  Library functions are called
# through module attributes.

SCHEMA_VERSION = 1
SLACK_TOL = 1e-7


def parse_number(text: str) -> float:
    """Finite plain float or power literal ``B^E`` with integer exponent."""
    if "^" in text:
        base_text, _, exp_text = text.partition("^")
        try:
            value = float(base_text) ** int(exp_text)
        except (OverflowError, ZeroDivisionError):
            value = math.inf
    else:
        value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text!r} is not finite")
    return value


def parse_int_list(text: str) -> list[int]:
    """Comma-separated integers, e.g. ``8,16,32``."""
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ValueError(f"{text!r} is not a comma-separated list of integers") from None


def _option(convert):
    """An argparse type whose error message is the converter's reason.

    argparse reports a plain ``ValueError`` as ``invalid <function name> value``.
    """

    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _ranged(convert, ok, rule: str):
    """An argparse type that converts, then rejects a value outside its range."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise ValueError(f"{text!r} is not {rule}")
        return value

    return _option(parse)


_number = _option(parse_number)
_positive = _ranged(parse_number, lambda v: v > 0, "positive")
_nonnegative = _ranged(parse_number, lambda v: v >= 0, "non-negative")
_count = _ranged(int, lambda v: v >= 1, "at least 1")
_seed = _ranged(int, lambda v: v >= 0, "a non-negative integer")
_dims = _ranged(
    parse_int_list,
    lambda vs: all(v >= 2 and v & (v - 1) == 0 for v in vs),
    "a list of powers of two >= 2",
)


def parse_operator(spec: str, n: int) -> np.ndarray | None:
    """Operator spec: ``id``, ``proj:i,j,...`` (coordinate projection), or
    ``file:PATH`` (an n x n text matrix of finite numbers)."""
    if spec == "id":
        return None
    import numpy as np

    if spec.startswith("proj:"):
        P = np.zeros((n, n))
        for tok in filter(None, spec[5:].split(",")):
            try:
                i = int(tok)
            except ValueError:
                raise ValueError(f"projection coordinate {tok!r} is not an integer") from None
            if not 0 <= i < n:
                raise ValueError(f"projection coordinate {i} out of range for n={n}")
            P[i, i] = 1.0
        return P
    if spec.startswith("file:"):
        P = np.loadtxt(spec[5:])
        if P.shape != (n, n):
            raise ValueError(f"operator file has shape {P.shape}, expected ({n}, {n})")
        bad = np.argwhere(~np.isfinite(P))
        if bad.size:
            r, c = bad[0].tolist()
            raise ValueError(
                f"entry {float(P[r, c])} at row {r}, column {c} of {spec[5:]} is not finite"
            )
        return P
    raise ValueError(f"bad operator spec {spec!r}; use id, proj:i,j,..., or file:PATH")


def _operators(args: argparse.Namespace, n: int) -> list[np.ndarray | None]:
    """P and Q from ``--P`` and ``--Q``; an error names its option."""
    pair = []
    for option, spec in (("--P", args.P), ("--Q", args.Q)):
        try:
            pair.append(parse_operator(spec, n))
        except (ValueError, OSError) as exc:
            raise ValueError(f"{option}: {exc}") from None
    return pair


def _emit(pieces: Iterable[str], path: str | None) -> None:
    """Write each piece to ``path``, or to stdout, as the iterable yields it."""
    if path is None:
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w") as fh:
            fh.writelines(pieces)


def _emit_json(payload: dict, path: str | None) -> None:
    import json

    payload = {"schema_version": SCHEMA_VERSION, **payload}
    _emit([json.dumps(payload, sort_keys=True, indent=2) + "\n"], path)


def _load(path: str) -> gates.LinearAlgorithm:
    from . import gates

    return gates.read_algorithm(path)


def _int_field(option: str, field: str, text: str) -> int:
    """One integer field of a comma-separated ``build`` option, e.g. m of ``--random``."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{option}: {field} must be an integer, got {text!r}") from None


def _number_field(option: str, field: str, text: str) -> float:
    """One number field (``parse_number``) of a comma-separated ``build`` option, e.g. c of ``--scaled``."""
    try:
        return parse_number(text)
    except ValueError:
        raise ValueError(f"{option}: {field} must be a number, got {text!r}") from None


def cmd_build(args: argparse.Namespace) -> int:
    from . import builders, model

    sources = [
        ("wht", args.wht),
        ("dft_real", args.dft),
        ("random", args.random),
        ("scaled", args.scaled),
        ("inverse_scaled", args.inverse_scaled),
    ]
    chosen = [(kind, value) for kind, value in sources if value is not None]
    if len(chosen) != 1:
        raise ValueError("exactly one of --wht/--dft/--random/--scaled/--inverse-scaled is required")
    kind, value = chosen[0]
    option = "--dft" if kind == "dft_real" else f"--{kind.replace('_', '-')}"
    if kind in ("wht", "dft_real"):
        spec = builders.FixtureSpec(kind, int(value))
    elif kind == "random":
        parts = value.split(",")
        if len(parts) not in (3, 4):
            raise ValueError("--random expects n,m,seed[,angle_only]")
        if len(parts) == 4 and parts[3] != "angle_only":
            raise ValueError(f"--random: the fourth field must be angle_only, got {parts[3]!r}")
        n, m, seed = (_int_field("--random", f, p) for f, p in zip(("n", "m", "seed"), parts))
        spec = builders.FixtureSpec(kind, n, {"m": m, "seed": seed, "angle_only": len(parts) == 4})
    else:
        parts = value.split(",")
        if len(parts) != 3:
            raise ValueError(f"{option} expects n,c,k")
        n = _int_field(option, "n", parts[0])
        params = {"c": _number_field(option, "c", parts[1]), "k": _int_field(option, "k", parts[2])}
        spec = builders.FixtureSpec(kind, n, params)
    try:
        algorithm = builders.build_fixture(spec)
    except ValueError as exc:  # a field out of range: name the option
        raise ValueError(f"{option}: {exc}") from None
    model.write_algorithm(algorithm, args.output)
    sys.stdout.write(f"wrote {args.output} (n={algorithm.n}, m={algorithm.m})\n")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from . import gates

    algorithm = _load(args.algorithm)
    diag = gates.validate(algorithm)
    _emit_json(
        {
            "n": diag.n,
            "m": diag.m,
            "max_residual": diag.max_residual,
            "max_kappa": diag.max_kappa,
            "kappas": diag.kappas,
            "stable": bool(diag.stable),
        },
        args.output,
    )
    return 0 if diag.stable else 2


def _trace_csv(trace: potential.PotentialTrace) -> Iterator[str]:
    """The ``trace`` CSV, one line per piece: the two header lines, then one row per step."""
    yield f"# schema_version={SCHEMA_VERSION}\n"
    yield "t,phi,delta,bound,touched_i,touched_j\n"
    columns = zip(trace.values, trace.per_step_delta, trace.per_step_bound, trace.touched_sets)
    for t, (phi, delta, bound, rows) in enumerate(columns):
        ti = str(rows[0]) if rows else ""
        tj = str(rows[1]) if len(rows) > 1 else ""
        yield f"{t},{float(phi)!r},{float(delta)!r},{float(bound)!r},{ti},{tj}\n"


def cmd_trace(args: argparse.Namespace) -> int:
    from . import potential

    algorithm = _load(args.algorithm)
    P, Q = _operators(args, algorithm.n)
    trace = potential.trace_potential(algorithm, P, Q)
    _emit(_trace_csv(trace), args.output)
    worst = max(
        (d - b for d, b in zip(trace.per_step_delta, trace.per_step_bound)), default=0.0
    )
    return 0 if worst <= SLACK_TOL else 2


def cmd_scan(args: argparse.Namespace) -> int:
    from . import bottleneck

    algorithm = _load(args.algorithm)
    P, Q = _operators(args, algorithm.n)
    report = bottleneck.scan_bottlenecks(
        algorithm, P, Q, R=args.R, include_constants=args.include_constants
    )
    _emit_json(
        {
            "R": report.R,
            "t_star": report.t_star,
            "affected": list(report.affected),
            "lhs": report.lhs,
            "rhs": report.rhs,
            "slack": report.slack,
            "per_step": [
                {"t": t, "lhs": value}
                for t, value in zip(report.window_starts, report.per_step_lhs)
            ],
            "phi_final": report.phi_final,
            "phi_identity": report.phi_identity,
            "m": report.m,
            "m_padded": report.m_padded,
        },
        args.output,
    )
    return 0 if report.slack >= -SLACK_TOL else 2


def cmd_chain(args: argparse.Namespace) -> int:
    from . import bottleneck

    algorithm = _load(args.algorithm)
    P, Q = _operators(args, algorithm.n)
    report = bottleneck.verify_bottleneck_chain(algorithm, P, Q, R=args.R)
    slacks = [report.triangle_slack, report.min_window_slack, report.max_vs_average_slack,
              report.scan.slack]
    _emit_json(
        {
            "R": report.R,
            "m": report.m,
            "m_padded": report.m_padded,
            "phi_identity": report.phi_identity,
            "phi_final": report.phi_final,
            "triangle": {
                "lhs": report.triangle_lhs,
                "rhs": report.triangle_rhs,
                "slack": report.triangle_slack,
            },
            "windows": [
                {
                    "start": link.start,
                    "affected": list(link.affected),
                    "delta_abs": link.delta_abs,
                    "bound": link.bound,
                    "slack": link.slack,
                }
                for link in report.windows
            ],
            "min_window_slack": report.min_window_slack,
            "max_endpoint_product": report.max_endpoint_product,
            "average_requirement": report.average_requirement,
            "max_vs_average_slack": report.max_vs_average_slack,
            "scan": {"lhs": report.scan.lhs, "rhs": report.scan.rhs, "slack": report.scan.slack},
        },
        args.output,
    )
    return 0 if min(slacks) >= -SLACK_TOL else 2


def cmd_lemma(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from . import bottleneck, potential

    unit = potential.sweep_unit_pair_bound(trials=args.pair_trials, seed=args.seed)
    orth = potential.sweep_orthogonal_change_bound(trials=args.trials, seed=args.seed)
    nonsing = potential.sweep_nonsingular_change_bound(trials=args.trials, seed=args.seed)
    proj = [
        bottleneck.sweep_fourier_projection_bound(n, trials=args.proj_trials, seed=args.seed)
        for n in args.n_list
    ]
    _emit_json(
        {
            "unit_pair_bound": asdict(unit),
            "orthogonal_change_bound": asdict(orth),
            "nonsingular_change_bound": asdict(nonsing),
            "fourier_projection_bound": [asdict(r) for r in proj],
        },
        args.output,
    )
    violated = (
        unit.violations or orth.violations or nonsing.violations
        or any(r.violations for r in proj)
    )
    return 2 if violated else 0


def cmd_extract(args: argparse.Namespace) -> int:
    from . import directions

    algorithm = _load(args.algorithm)
    try:
        over, under = directions.extract_directions(
            algorithm,
            tau=args.tau,
            unrestricted=args.unrestricted,
            require_wht_target=not args.no_target_check,
        )
    except directions.TargetMismatch as exc:
        raise ValueError(f"{exc}; pass --no-target-check to extract anyway") from None

    def system_payload(system: directions.DirectionSystem) -> dict:
        return {
            "kind": system.kind,
            "size": system.size,
            "steps": system.steps,
            "coords": system.coords,
            "magnitudes": system.magnitudes,
            "vectors": system.vectors.tolist(),
        }

    _emit_json(
        {
            "tau": over.threshold,
            "overflow": system_payload(over),
            "underflow": system_payload(under),
        },
        args.output,
    )
    return 0


def cmd_volume(args: argparse.Namespace) -> int:
    from . import directions

    algorithm = _load(args.algorithm)
    _, under = directions.extract_directions(algorithm, tau=args.tau)
    basis = directions.extend_basis(under, algorithm.n)
    b = args.b if args.b is not None else directions.speedup_factor(algorithm)
    bound = directions.uncertainty_volume_log(basis, b=b)
    _emit_json(
        {
            "tau": under.threshold,
            "b": bound.b,
            "n_prime": bound.n_prime,
            "gammas": [float(g) for g in basis.gammas],
            "sum_log2_gamma": bound.sum_log2_gamma,
            "closed_form": bound.closed_form,
        },
        args.output,
    )
    return 0 if bound.sum_log2_gamma >= bound.closed_form - 1e-9 else 2


def _simulate_csv(stats: quantized.QuantizedRunStats) -> Iterator[str]:
    """The ``simulate`` CSV: the two header lines, then one block of n rows per step.

    Each row's text is kept from block to block and formatted again only at
    the row's touch events: at t = 0, and where step t's gate rewrote it.
    """
    yield f"# schema_version={SCHEMA_VERSION}\n"
    yield "t,i,mean_bits,max_abs,overflow_flag\n"
    cells = [""] * stats.shape[1]
    for t, events in enumerate(stats.by_step()):
        for i, bits, max_abs, flag in events:
            cells[i] = f"{i},{bits!r},{max_abs!r},{int(flag)}\n"
        prefix = f"{t},"
        yield prefix + prefix.join(cells)


def cmd_simulate(args: argparse.Namespace) -> int:
    import numpy as np

    from . import quantized

    algorithm = _load(args.algorithm)
    # an overflowing program leaves inf and NaN cells, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        stats = quantized.simulate(
            algorithm,
            epsilon=args.eps,
            sigma=args.sigma,
            samples=args.samples,
            seed=args.seed,
            word_budget=args.W,
        )
    # a bad cell's latest event is bad, and the event's own cell comes first
    bad = ~(np.isfinite(stats.event_bits) & np.isfinite(stats.event_max))
    if bad.any():
        t, i = min(zip(stats.steps[bad].tolist(), stats.rows[bad].tolist()))
        raise ArithmeticError(f"the simulated cell (t, i) = ({t}, {i}) is not finite")
    _emit(_simulate_csv(stats), args.output)
    if args.summary is not None:
        flagged = stats.flagged_cells()
        _emit_json(
            {
                "epsilon": stats.epsilon,
                "sigma": stats.sigma,
                "samples": stats.samples,
                "seed": args.seed,
                "word_budget": stats.word_budget,
                "n": algorithm.n,
                "m": algorithm.m,
                "overflow_count": len(flagged),
                "flagged": [[t, i] for t, i in flagged],
                # every cell holds an event's value, and the n inputs come first
                "max_mean_bits": float(stats.event_bits.max()),
                "input_row_max_mean_bits": float(stats.event_bits[: algorithm.n].max()),
            },
            args.summary,
        )
    return 0


def cmd_underflow(args: argparse.Namespace) -> int:
    from . import quantized

    algorithm = _load(args.algorithm)
    report = quantized.underflow_widths(algorithm, epsilon=args.eps, tau=args.tau)
    _emit_json(
        {
            "epsilon": report.epsilon,
            "tau": report.tau,
            "n_prime": report.system.size,
            "widths": [float(w) for w in report.widths],
            "directions": report.basis.u_vectors.tolist(),
            "volume_log": report.volume_log,
            "closed_form": report.volume.closed_form,
        },
        args.output,
    )
    return 0


class UsageError(Exception):
    """A command line argparse rejected."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, the code reserved for a failed
    # inequality; raise instead so ``main`` can report it with exit code 1.
    def error(self, message: str) -> NoReturn:
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gatelab",
        description="Analysis lab for in-place rotation/constant gate algorithms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write a reference algorithm to a gate file")
    p.add_argument("--wht", type=int, default=None, metavar="N")
    p.add_argument("--dft", type=int, default=None, metavar="N")
    p.add_argument("--random", default=None, metavar="N,M,SEED[,angle_only]")
    p.add_argument("--scaled", default=None, metavar="N,C,K")
    p.add_argument("--inverse-scaled", dest="inverse_scaled", default=None, metavar="N,C,K")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("validate", help="replay and report inverse/condition diagnostics")
    p.add_argument("algorithm")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("trace", help="CSV trace of the potential along the trajectory")
    p.add_argument("algorithm")
    p.add_argument("--P", default="id")
    p.add_argument("--Q", default="id")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("scan", help="window scan for touched-row bottlenecks")
    p.add_argument("algorithm")
    p.add_argument("--R", type=int, default=1)
    p.add_argument("--P", default="id")
    p.add_argument("--Q", default="id")
    p.add_argument("--include-constants", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("chain", help="verify each link of the averaged bottleneck bound")
    p.add_argument("algorithm")
    p.add_argument("--R", type=int, default=1)
    p.add_argument("--P", default="id")
    p.add_argument("--Q", default="id")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("lemma", help="randomized sweep of the potential inequalities")
    p.add_argument("--pair-trials", type=_count, default=10_000,
                   help="trials of the unit-pair sweep (default 10000)")
    p.add_argument("--trials", type=_count, default=1000,
                   help="trials of the orthogonal-change and the nonsingular-change "
                        "sweeps, each (default 1000)")
    p.add_argument("--proj-trials", type=_count, default=100,
                   help="trials of the projection-bound sweep, per n (default 100)")
    p.add_argument("--n-list", dest="n_list", default="8,16,32", type=_dims,
                   help="dimensions n of the projection-bound sweep, powers of two "
                        "(default 8,16,32)")
    p.add_argument("--seed", type=_seed, default=0,
                   help="seed of every sweep's generator (default 0)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_lemma)

    p = sub.add_parser("extract", help="extract overflow/underflow direction systems")
    p.add_argument("algorithm")
    p.add_argument("--tau", type=_positive, default=None)
    p.add_argument("--unrestricted", action="store_true")
    p.add_argument("--no-target-check", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("volume", help="uncertainty-volume lower bounds from the underflow basis")
    p.add_argument("algorithm")
    p.add_argument("--tau", type=_positive, default=None)
    p.add_argument("--b", type=_positive, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("simulate", help="quantized replay with bit-usage statistics")
    p.add_argument("algorithm")
    p.add_argument("--eps", type=_number, required=True)
    p.add_argument("--sigma", type=_nonnegative, default=1.0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--W", type=_positive, default=32.0)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--summary", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("underflow", help="per-direction uncertainty widths")
    p.add_argument("algorithm")
    p.add_argument("--eps", type=_number, required=True)
    p.add_argument("--tau", type=_positive, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_underflow)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        return _fail(exc, 1)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        return _fail(exc, 1)
    except (RuntimeError, ArithmeticError) as exc:
        # a failed extraction guarantee, the drift guard of the ledger walk
        # or a number that is not finite
        return _fail(exc, 2)


def _fail(exc: BaseException, code: int) -> int:
    sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
    return code


def entry() -> NoReturn:
    """Run ``main`` on ``sys.argv``, freeze every object the cyclic collector
    tracks (see the module docstring), and exit with ``main``'s code."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
