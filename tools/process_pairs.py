"""Time one benchmark workload's processes from two source trees, interleaved.

For two trees, one workload, seed and size this copies each tree's ``src``
into a temporary directory under a name of the same length (``--name-length``
letters, ``a...`` for the base and ``b...`` for the change), builds the
workload's gate files once with the base tree, and then runs every
invocation of ``perfbench/workloads.py`` (read from the base tree, never
changed) ``--rounds`` times from each tree, base and change back to back,
the first of the two alternating from round to round.  Each child runs with
``OPENBLAS_NUM_THREADS=1`` and no bytecode written, as the benchmark's
children do, and is reaped with ``os.wait4``, so its CPU time and
ru_maxrss are its own.  It prints JSON: per invocation, each tree's median
wall seconds, CPU seconds and ru_maxrss in KiB, and the change minus the
base.

    python tools/process_pairs.py --base ../parent --change . --workload simulate-deep \\
        --seed 11 --rounds 7 --only "simulate scaled32" --cpu 1

ru_maxrss steps by about 0.3 MB with the length of the directory a process
compiles its modules from, so trees are compared from equal-length names;
run two ``--name-length`` values to see such a step.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from source_trees import child_env, copy_sources, load_workloads


def _run(argv: list[str], src: Path, cwd: Path) -> dict:
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "gatelab.cli", *argv], cwd=cwd,
                            env=child_env(src),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    return {"wall_s": time.perf_counter() - start, "code": os.waitstatus_to_exitcode(status),
            "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}


def pairs(base: Path, change: Path, workload: str, seed: int, small: bool, rounds: int,
          only: list[str], name_length: int) -> dict:
    workloads = load_workloads(base)
    commands = workloads.invocations(workload, seed, small=small)
    if only:
        commands = [inv for inv in commands if inv.label in only]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        trees = copy_sources(base, change, work, name_length)
        (work / "files").mkdir()
        (work / "out").mkdir()
        for f in workloads.gate_files(commands):
            done = _run(["build", *f.build_args(), "-o", f"files/{f.name}"], trees["base"], work)
            if done["code"]:
                raise RuntimeError(f"building {f.name} failed")

        runs = {(k, side): [] for k in range(len(commands)) for side in trees}
        for r in range(rounds):
            for k, inv in enumerate(commands):
                sides = ("base", "change") if r % 2 == 0 else ("change", "base")
                for side in sides:
                    runs[k, side].append(_run(inv.argv("files", f"out/run{k}"), trees[side], work))

    report = []
    for k, inv in enumerate(commands):
        record = {"label": inv.label}
        for side in trees:
            done = runs[k, side]
            record[side] = {key: statistics.median(d[key] for d in done)
                            for key in ("wall_s", "cpu_s", "maxrss_kb")}
            record[side]["codes"] = sorted({d["code"] for d in done})
        record["change_minus_base"] = {key: record["change"][key] - record["base"][key]
                                       for key in ("wall_s", "cpu_s", "maxrss_kb")}
        report.append(record)
    return {"workload": workload, "seed": seed, "small": small, "rounds": rounds,
            "name_length": name_length, "invocations": report}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="source tree to compare against")
    parser.add_argument("--change", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source tree with the change (default: this one)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--small", action="store_true", help="the workload's small tier")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--only", action="append", default=[],
                        help="run only the invocation with this label (repeatable)")
    parser.add_argument("--name-length", type=int, default=4,
                        help="letters in each copied tree's directory name")
    parser.add_argument("--cpu", type=int, help="pin this process and its children to one CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    result = pairs(args.base.resolve(), args.change.resolve(), args.workload, args.seed,
                   args.small, args.rounds, args.only, args.name_length)
    json.dump(result, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
