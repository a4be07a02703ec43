"""gatelab benchmark: closed-loop CLI workloads, checked outputs, traced layers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload analysis --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

One client runs ``python -m gatelab.cli`` subprocesses one at a time, back to
back, and checks every output (see ``check.py``).  The benchmark and its
children are pinned to one CPU, and each child's wall time is rescaled by the
host speed sampled around it (see ``SpeedGauge``).

With ``--trace 0`` the run builds the workload's gate files three times
(``setup_s`` is the median), then repeats the command sequence as long as
another pass should end within ``--seconds``, and reports the median pass.
With ``--trace 1`` it runs the sequence once as subprocesses, then twice in
process through ``gatelab.cli.main``, untraced and traced, and reports the
per-layer split.  The last line of stdout is the result JSON; the full record
(environment, every invocation, every span) goes to ``perfbench/_out/``.
"""

from __future__ import annotations

import os

# The README promises a single-threaded implementation; pin BLAS before numpy
# loads, here and in every child, so two-core hosts do not oversubscribe.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "_out"
DEFAULT_SEED = 7
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
INVOCATION_TIMEOUT_S = 60.0


class SetupFailed(RuntimeError):
    pass


class SpeedGauge:
    """Samples this host's speed around each child, to rescale its wall time.

    On a shared host the same work can take up to twice as long while a
    neighbour is busy, and that state flips every few seconds.  A fixed mix
    of interpreter, numpy and formatting work is timed right before and right
    after every child, on the same CPU (see ``pin_to_one_cpu``).  The child's
    wall time is multiplied by ``REFERENCE_S`` over the mean of the two
    samples, i.e. reported at the speed the host had when the reference was
    taken.  Raw wall times stay in the record file.
    """

    REFERENCE_S = 0.040  # median sample on a 2-core Xeon VM, Python 3.11, numpy 2.4

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        import numpy as np

        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i
        a = np.arange(2048.0)
        for _ in range(400):
            a = np.sqrt(a * a + 1.0)
        ",".join([repr(x) for x in np.linspace(0.0, 1.0, 20_000).tolist()])
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    def measure(self, run):
        """``run()`` between two samples: (its result, the speed factor)."""
        before = self.sample()
        result = run()
        return result, 2.0 * self.REFERENCE_S / (before + self.sample())


def child_env() -> dict:
    env = dict(os.environ)  # carries PINNED_THREADS
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Spawns and times children through ``launcher.py``; a context manager.

    Start it before this process loads numpy: the children's peak RSS is
    floored at the launcher's, which is floored at this process's RSS at the
    time the launcher starts.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(),
        )

    def run(self, args: list[str], err_path: Path) -> dict:
        """Run one child to completion: wall_s, code, rss_mb, cpu_s."""
        request = {"args": args, "stderr": str(err_path), "timeout": INVOCATION_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=INVOCATION_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child, to one CPU.

    Host interference differs from CPU to CPU, so the speed samples only
    predict a child's speed when both run on the same CPU.  The last CPU of
    the allowed set is used; the first tends to take more interrupts.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def gatelab_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "gatelab.cli", *argv]


def setup(launcher: Launcher, files, dest: Path, gauge: SpeedGauge) -> float:
    """Build the gate files with ``gatelab build`` subprocesses; returns scaled seconds."""
    _fresh(dest)
    total = 0.0
    for f in files:
        argv = gatelab_cmd(["build", *f.build_args(), "-o", str(dest / f.name)])
        child, factor = gauge.measure(lambda: launcher.run(argv, dest / "build.err"))
        if child["code"] != 0:
            raise SetupFailed(f"build {f.name} exited {child['code']}: "
                              f"{(dest / 'build.err').read_text()}")
        total += child["wall_s"] * factor
    return total


def _output_bytes(inv, out_base: str) -> int:
    return sum(os.path.getsize(p) for p in inv.outputs(out_base) if os.path.exists(p))


def _record(inv, out_base, checker, code, wall) -> dict:
    """Check one invocation's outputs, then delete them unless the check failed."""
    outcome = checker.check(inv, code, out_base)
    record = {"label": inv.label, "sub": inv.sub, "code": code, "wall_s": wall,
              "ok": outcome.ok, "reason": outcome.reason,
              "nonfloat_cells": outcome.nonfloat_cells, "bytes_out": _output_bytes(inv, out_base)}
    if outcome.ok:
        for path in inv.outputs(out_base):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    return record


def subprocess_pass(launcher: Launcher, commands, files_dir: Path, out_dir: Path, checker,
                    gauge: SpeedGauge) -> list[dict]:
    records = []
    for k, inv in enumerate(commands):
        out_base = str(out_dir / f"{k:02d}-{inv.sub}")
        argv = gatelab_cmd(inv.argv(str(files_dir), out_base))
        child, factor = gauge.measure(lambda: launcher.run(argv, out_dir / f"{k:02d}.err"))
        rec = _record(inv, out_base, checker, child["code"], child["wall_s"])
        rec.update(scaled_s=child["wall_s"] * factor, rss_mb=child["rss_mb"], cpu_s=child["cpu_s"])
        records.append(rec)
    return records


def inprocess_pass(commands, files_dir: Path, out_dir: Path, checker) -> list[dict]:
    from gatelab import cli

    records = []
    for k, inv in enumerate(commands):
        out_base = str(out_dir / f"{k:02d}-{inv.sub}")
        start = time.perf_counter()
        code = cli.main(inv.argv(str(files_dir), out_base))  # attribute lookup: may be traced
        wall = time.perf_counter() - start
        records.append(_record(inv, out_base, checker, code, wall))
    return records


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------- end to end


def run_timed(launcher: Launcher, workload: str, seed: int, seconds: float, base: Path) -> dict:
    from check import Checker
    from workloads import SUBCOMMANDS, gate_files, invocations

    commands = invocations(workload, seed)
    files = gate_files(commands)
    gauge = SpeedGauge()
    setups = [setup(launcher, files, base / f"files{k}", gauge) for k in range(SETUP_REPEATS)]
    files_dir = base / f"files{SETUP_REPEATS - 1}"
    checker = Checker(str(files_dir))
    out_dir = _fresh(base / "out")

    # Start another pass only if it should end within the time given.
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(subprocess_pass(launcher, commands, files_dir, out_dir, checker, gauge))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    def median_of(per_pass):
        return statistics.median(per_pass(records) for records in passes)

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (median_of(lambda rs: sum(r["scaled_s"] for r in rs)), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for rs in passes for r in rs), "MB"),
    }
    # Single invocations are too noisy on a shared host to gate on; the
    # per-subcommand split stays in the record file.
    subcommand_s = {sub: median_of(lambda rs: sum(r["scaled_s"] for r in rs if r["sub"] == sub))
                    for sub in SUBCOMMANDS}
    return {"metrics": metrics, "subcommand_s": subcommand_s,
            "records": [r for rs in passes for r in rs], "setups_s": setups,
            "passes": len(passes), "speed_samples_s": gauge.samples}


# ----------------------------------------------------------------- per layer


def _startup_s(launcher: Launcher, repeats: int, work_dir: Path) -> float:
    argv = [sys.executable, "-c", "import gatelab.cli"]
    return statistics.median(launcher.run(argv, work_dir / "startup.err")["wall_s"]
                             for _ in range(repeats))


def _builders_s(files, dest: Path) -> float:
    from gatelab import builders, gates

    _fresh(dest)
    start = time.perf_counter()
    for f in files:
        algorithm = builders.build_fixture(builders.FixtureSpec(f.kind, f.n, f.fixture_params()))
        gates.write_algorithm(algorithm, str(dest / f.name))
    return time.perf_counter() - start


def run_traced(launcher: Launcher, workload: str, seed: int, base: Path,
               small: bool = False) -> dict:
    from check import Checker
    from tracing import Tracer, instrument
    from workloads import gate_files, invocations

    commands = invocations(workload, seed, small)
    files = gate_files(commands)
    files_dir = base / "files0"
    gauge = SpeedGauge()
    setup(launcher, files, files_dir, gauge)
    checker = Checker(str(files_dir))

    sub = subprocess_pass(launcher, commands, files_dir, _fresh(base / "out"), checker, gauge)
    plain = inprocess_pass(commands, files_dir, _fresh(base / "out"), checker)
    tracer = Tracer()
    with instrument(tracer):
        traced = inprocess_pass(commands, files_dir, _fresh(base / "out"), checker)
    startup = _startup_s(launcher, 1 if small else STARTUP_REPEATS, base)
    build_s = _builders_s(files, base / "builders")

    spans = tracer.spans
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total(*names):
        return sum(s.duration for name in names for s in by_name[name])

    def self_time(name):
        return sum(s.self_s for s in by_name[name])

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name[name])

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    traced_wall = sum(r["wall_s"] for r in traced)
    plain_wall = sum(r["wall_s"] for r in plain)
    sub_wall = sum(r["wall_s"] for r in sub)
    mains = [s for s in spans if s.name == "cli.main"]
    unaccounted = [r["wall_s"] - startup - main.duration for r, main in zip(sub, mains)]
    bytes_out = sum(r["bytes_out"] for r in sub)

    validate_s = self_time("gates.validate")
    trace_s = total("potential.trace_potential")
    extract_s = total("directions.extract_directions")
    rounds = count("directions.extract_directions", "rounds")
    simulate_s = total("quantized.simulate")
    cli_self = self_time("cli.main")
    metrics = {
        "gates.read_s": (total("gates.read_algorithm"), "s"),
        "gates.validate_s": (validate_s, "s"),
        "gates.validate_gates_per_s": (rate(count("gates.validate", "m"), validate_s), "1/s"),
        "builders.build_s": (build_s, "s"),
        "potential.trace_s": (trace_s, "s"),
        "potential.trace_gates_per_s": (rate(count("potential.trace_potential", "m"), trace_s), "1/s"),
        "potential.sweep_s": (total("potential.sweep_unit_pair_bound",
                                    "potential.sweep_orthogonal_change_bound",
                                    "potential.sweep_nonsingular_change_bound"), "s"),
        "bottleneck.scan_s": (total("bottleneck.scan_bottlenecks"), "s"),
        "bottleneck.scan_calls": (len(by_name["bottleneck.scan_bottlenecks"]), "count"),
        "bottleneck.chain_self_s": (self_time("bottleneck.verify_bottleneck_chain"), "s"),
        "bottleneck.proj_sweep_s": (total("bottleneck.sweep_fourier_projection_bound"), "s"),
        "directions.extract_s": (extract_s, "s"),
        "directions.rounds": (rounds, "count"),
        "directions.round_ms": (1000.0 * extract_s / rounds if rounds else 0.0, "ms"),
        "directions.extend_basis_s": (total("directions.extend_basis"), "s"),
        "quantized.simulate_s": (simulate_s, "s"),
        "quantized.samples_per_s": (rate(count("quantized.simulate", "samples"), simulate_s), "1/s"),
        "quantized.gate_samples_per_s": (
            rate(count("quantized.simulate", "gate_samples"), simulate_s), "1/s"),
        "quantized.underflow_self_s": (self_time("quantized.underflow_widths"), "s"),
        "cli.startup_s": (startup, "s"),
        "cli.self_s": (cli_self, "s"),
        "cli.render_mb_per_s": (rate(bytes_out / 1e6, cli_self), "MB/s"),
        "cli.bytes_out": (bytes_out, "bytes"),
        "cli.nonfloat_cells": (sum(r["nonfloat_cells"] for r in sub), "count"),
        "proc.cpu_s": (sum(r["cpu_s"] for r in sub), "s"),
        "trace.total_s": (traced_wall, "s"),
        "trace.overhead_frac": ((traced_wall - plain_wall) / plain_wall, "fraction"),
        "trace.unaccounted_frac": (sum(unaccounted) / sub_wall, "fraction"),
    }
    layer_self = defaultdict(float)
    for span in spans:
        layer_self[span.layer] += span.self_s
    for r, gap in zip(sub, unaccounted):
        r["unaccounted_s"] = gap
    return {
        "metrics": metrics,
        "records": sub + plain + traced,
        "layer_self_s": dict(layer_self),
        "layer_share": {layer: t / traced_wall for layer, t in layer_self.items()},
        "premise": premise(workload, layer_self, traced_wall),
        "spans": [[s.name, s.start, s.end, s.parent, s.counts] for s in spans],
    }


def premise(workload: str, layer_self: dict, traced_wall: float) -> dict:
    """The layer share that motivates each workload (expected at least 0.9)."""
    layers = {
        "analysis": ("gates", "potential", "bottleneck", "directions"),
        "simulate-wide": ("cli",),
        "simulate-deep": ("quantized",),
    }[workload]
    share = sum(layer_self.get(layer, 0.0) for layer in layers) / traced_wall
    return {"layers": list(layers), "share": share, "holds": share >= 0.9}


# ---------------------------------------------------------------- reporting


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": _git_commit(),
        "seed": seed,
        "threads": PINNED_THREADS,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
    }


def result_line(records: list[dict], metrics: dict) -> dict:
    failed = sum(not r["ok"] for r in records)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def save(name: str, payload: dict) -> Path:
    path = OUT / "results" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, default=float) + "\n")
    return path


def self_check(launcher: Launcher, seed: int) -> int:
    """Every workload at small sizes through the traced run, with every check.

    The traced run covers the subprocess path of the timed run as well."""
    from workloads import WORKLOADS

    records, metrics = [], {}
    for workload in WORKLOADS:
        report = run_traced(launcher, workload, seed, OUT / "self-check" / workload, small=True)
        records += report["records"]
        metrics.update({f"{workload}/{k}": v for k, v in report["metrics"].items()})
    for r in records:
        if not r["ok"]:
            print(f"FAILED {r['reason']}", file=sys.stderr)
    print(json.dumps(result_line(records, metrics)))
    return 0 if all(r["ok"] for r in records) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at small sizes with all checks")
    args = parser.parse_args(argv)

    if not (SRC / "gatelab" / "cli.py").is_file():
        print(f"error: no gatelab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if not args.self_check and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    pin_to_one_cpu()
    with Launcher() as launcher:
        if args.self_check:
            return self_check(launcher, args.seed)
        env = environment(args.seed)
        base = OUT / "work" / args.workload
        try:
            if args.trace:
                report = run_traced(launcher, args.workload, args.seed, base)
            else:
                report = run_timed(launcher, args.workload, args.seed, args.seconds, base)
        except SetupFailed as exc:
            print(f"error: setup failed: {exc}", file=sys.stderr)
            return 1
    for r in report["records"]:
        if not r["ok"]:
            print(f"FAILED {r['reason']}", file=sys.stderr)
    result = result_line(report["records"], report["metrics"])
    path = save(f"{args.workload}-seed{args.seed}-trace{args.trace}",
                {"environment": env, "workload": args.workload, **report, "result": result})
    print(f"environment: {json.dumps(env)}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
