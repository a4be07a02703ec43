"""Command-line entry point.

Subcommands: build, validate, trace, scan, chain, lemma, extract, volume,
simulate, underflow.  Machine-readable outputs (CSV or JSON) carry a
schema_version marker.  Numeric options accept a power literal ``B^E``
(decimal base, integer exponent), e.g. ``--eps 2^-10``.

``main`` reads a subcommand's inputs once, before it dispatches: the gate
file as ``args.algorithm``, and ``--P`` and ``--Q`` as arrays (None for ``id``).

Exit codes: 0 success, 1 usage, input, I/O or out-of-memory error, 2 a
verification failed: an inequality beyond tolerance (regression signal), an
extraction guarantee, the incremental-potential drift guard of trace and
chain, a trajectory whose inverse-consistency residual or condition number
is not finite (validate), or a walk over numbers that are not finite (trace,
scan and chain; extraction, when M(m) or a squared row norm overflows).
Exit 2 from a failed inequality writes the full output and nothing to
stderr; exit 2 from an error, like exit 1, writes one ``error:`` line.

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

    from . import directions, potential, quantized

# Each subcommand imports the modules it runs (``main`` imports ``gates`` to
# read a gate file), and numpy only with them, so that a process loads no more
# than its subcommand needs: ``build`` never loads numpy, ``dataclasses`` or
# ``json``.  Library functions are called through module attributes.

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


def _operators(args: argparse.Namespace) -> None:
    """Parse ``args.P`` and ``args.Q`` for ``args.algorithm``, in place; an
    error names its option."""
    for name in ("P", "Q"):
        try:
            setattr(args, name, parse_operator(getattr(args, name), args.algorithm.n))
        except (ValueError, OSError) as exc:
            raise ValueError(f"--{name}: {exc}") from None


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


# The fields of each comma-separated ``build`` option as (name, converter):
# those of ``--random``, which may add a fourth, ``angle_only``, and those of
# ``--scaled`` and ``--inverse-scaled``.
_RANDOM_FIELDS = (("n", int), ("m", int), ("seed", int))
_PLANTED_FIELDS = (("n", int), ("c", parse_number), ("k", int))


def cmd_build(args: argparse.Namespace) -> int:
    from . import builders, model

    values = (args.wht, args.dft, args.random, args.scaled, args.inverse_scaled)  # as in KINDS
    chosen = [(k, v) for k, v in zip(builders.FixtureSpec.KINDS, values) if v is not None]
    if len(chosen) != 1:
        raise ValueError("exactly one of --wht/--dft/--random/--scaled/--inverse-scaled is required")
    kind, value = chosen[0]
    option = "--dft" if kind == "dft_real" else f"--{kind.replace('_', '-')}"
    if kind in ("wht", "dft_real"):
        spec = builders.FixtureSpec(kind, value)
    else:
        parts = value.split(",")
        if kind == "random" and len(parts) not in (3, 4):
            raise ValueError("--random expects n,m,seed[,angle_only]")
        if kind != "random" and len(parts) != 3:
            raise ValueError(f"{option} expects n,c,k")
        if len(parts) == 4 and parts[3] != "angle_only":
            raise ValueError(f"--random: the fourth field must be angle_only, got {parts[3]!r}")
        fields = _RANDOM_FIELDS if kind == "random" else _PLANTED_FIELDS
        params = {}
        for (field, convert), text in zip(fields, parts):
            try:
                params[field] = convert(text)
            except ValueError:
                what = "an integer" if convert is int else "a number"
                raise ValueError(f"{option}: {field} must be {what}, got {text!r}") from None
        if kind == "random":
            params["angle_only"] = len(parts) == 4
        spec = builders.FixtureSpec(kind, params.pop("n"), params)
    try:
        algorithm = builders.build_fixture(spec)
    except ValueError as exc:  # a field out of range: name the option
        raise ValueError(f"{option}: {exc}") from None
    model.write_algorithm(algorithm, args.output)
    sys.stdout.write(f"wrote {args.output} (n={algorithm.n}, m={algorithm.m})\n")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from . import gates

    diag = gates.validate(args.algorithm)
    _emit_json(vars(diag), args.output)
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

    trace = potential.trace_potential(args.algorithm, args.P, args.Q)
    _emit(_trace_csv(trace), args.output)
    worst = max(
        (d - b for d, b in zip(trace.per_step_delta, trace.per_step_bound)), default=0.0
    )
    return 0 if worst <= SLACK_TOL else 2


def cmd_scan(args: argparse.Namespace) -> int:
    from . import bottleneck

    report = bottleneck.scan_bottlenecks(
        args.algorithm, args.P, args.Q, R=args.R, include_constants=args.include_constants
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

    report = bottleneck.verify_bottleneck_chain(args.algorithm, args.P, args.Q, R=args.R)
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
            "windows": [vars(link) for link in report.windows],
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
            "unit_pair_bound": vars(unit),
            "orthogonal_change_bound": vars(orth),
            "nonsingular_change_bound": vars(nonsing),
            "fourier_projection_bound": [vars(r) for r in proj],
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

    try:
        over, under = directions.extract_directions(
            args.algorithm,
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

    _, under = directions.extract_directions(args.algorithm, tau=args.tau)
    basis = directions.extend_basis(under, args.algorithm.n)
    b = args.b if args.b is not None else directions.speedup_factor(args.algorithm)
    bound = directions.uncertainty_volume_log(basis, b=b)
    _emit_json({"tau": under.threshold, "gammas": basis.gammas, **vars(bound)}, args.output)
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

    # an overflowing program leaves inf and NaN cells, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        stats = quantized.simulate(
            args.algorithm,
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
                "n": args.algorithm.n,
                "m": args.algorithm.m,
                "overflow_count": len(flagged),
                "flagged": [[t, i] for t, i in flagged],
                # every cell holds an event's value, and the n inputs come first
                "max_mean_bits": float(stats.event_bits.max()),
                "input_row_max_mean_bits": float(stats.event_bits[: args.algorithm.n].max()),
            },
            args.summary,
        )
    return 0


def cmd_underflow(args: argparse.Namespace) -> int:
    from . import quantized

    report = quantized.underflow_widths(args.algorithm, epsilon=args.eps, tau=args.tau)
    _emit_json(
        {
            "epsilon": report.epsilon,
            "tau": report.tau,
            "n_prime": report.system.size,
            "widths": report.widths,
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

    def option(*flags, **settings):
        return flags, settings

    def command(name, help, func, *options, gate_file=True, required=False):
        """Add subcommand ``name``: its gate file, then ``options``, then ``-o``."""
        p = sub.add_parser(name, help=help)
        if gate_file:
            p.add_argument("algorithm")
        for flags, settings in options:
            p.add_argument(*flags, **settings)
        p.add_argument("-o", "--output", required=required)
        p.set_defaults(func=func)
        return p

    operators = (
        option("--P", default="id"),
        option("--Q", default="id"),
    )
    window = option("--R", type=_count, default=1)
    tau = option("--tau", type=_positive)
    eps = option("--eps", type=_number, required=True)

    command("build", "write a reference algorithm to a gate file", cmd_build,
            option("--wht", type=int, metavar="N"),
            option("--dft", type=int, metavar="N"),
            option("--random", metavar="N,M,SEED[,angle_only]"),
            option("--scaled", metavar="N,C,K"),
            option("--inverse-scaled", metavar="N,C,K"),
            gate_file=False, required=True)
    command("validate", "replay and report inverse/condition diagnostics", cmd_validate)
    command("trace", "CSV trace of the potential along the trajectory", cmd_trace,
            *operators)
    command("scan", "window scan for touched-row bottlenecks", cmd_scan,
            window,
            *operators,
            option("--include-constants", action="store_true"))
    command("chain", "verify each link of the averaged bottleneck bound", cmd_chain,
            window,
            *operators)
    command("lemma", "randomized sweep of the potential inequalities", cmd_lemma,
            option("--pair-trials", type=_count, default=10_000,
                   help="trials of the unit-pair sweep (default 10000)"),
            option("--trials", type=_count, default=1000,
                   help="trials of the orthogonal-change and the nonsingular-change "
                        "sweeps, each (default 1000)"),
            option("--proj-trials", type=_count, default=100,
                   help="trials of the projection-bound sweep, per n (default 100)"),
            option("--n-list", default="8,16,32", type=_dims,
                   help="dimensions n of the projection-bound sweep, powers of two "
                        "(default 8,16,32)"),
            option("--seed", type=_seed, default=0,
                   help="seed of every sweep's generator (default 0)"),
            gate_file=False)
    command("extract", "extract overflow/underflow direction systems", cmd_extract,
            tau,
            option("--unrestricted", action="store_true"),
            option("--no-target-check", action="store_true"))
    command("volume", "uncertainty-volume lower bounds from the underflow basis", cmd_volume,
            tau,
            option("--b", type=_positive))
    simulate = command("simulate", "quantized replay with bit-usage statistics", cmd_simulate,
                       eps,
                       option("--sigma", type=_nonnegative, default=1.0),
                       option("--samples", type=_count, default=1000),
                       option("--seed", type=_seed, default=0),
                       option("--W", type=_positive, default=32.0))
    simulate.add_argument("--summary")
    command("underflow", "per-direction uncertainty widths", cmd_underflow,
            eps,
            tau)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        return _fail(exc, 1)
    try:
        if "algorithm" in args:
            from . import gates

            args.algorithm = gates.read_algorithm(args.algorithm)
        if "P" in args:
            _operators(args)
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
