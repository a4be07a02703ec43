"""Time one benchmark workload's processes from two source trees, interleaved.

For two trees, one workload, seed and size this copies each whole checkout
into a temporary directory under a name of the same length (``--name-length``
letters, ``a...`` for the base and ``b...`` for the change) and runs every
child as the benchmark runs it: each copy's own ``perfbench/run.py``
``Launcher``, started with that copy's root as the working directory before
this process loads anything large, spawns ``python -m gatelab.cli`` from the
copy's ``src``, with the gate files and outputs where the benchmark puts them
(``perfbench/_out/work/<workload>`` of the copy).  Each copy builds the
workload's gate files, and then every invocation of ``perfbench/workloads.py``
(read from the base tree, never changed) runs ``--rounds`` times from each
tree, base and change back to back, the first of the two alternating from
round to round.  No bytecode is written.  It prints JSON: per invocation, each
tree's median wall seconds, CPU seconds and ru_maxrss in KiB (the launcher's
own ``wait4`` readings), and the change minus the base.

    python tools/process_pairs.py --base ../parent --change . --workload simulate-deep \\
        --seed 11 --rounds 7 --only "simulate scaled32" --cpu 1

ru_maxrss steps by about 0.3 MB with the length of the directory a process
compiles its modules from, so trees are compared from equal-length names;
run two ``--name-length`` values to see such a step.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

from source_trees import copy_checkouts, load_workloads

KEYS = ("wall_s", "cpu_s", "maxrss_kb")


def _load_run(root: Path, side: str):
    """``perfbench/run.py`` of the copy ``root`` as a module; its children
    import gatelab from ``root/src``."""
    spec = importlib.util.spec_from_file_location(f"_{side}_run", root / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs(base: Path, change: Path, workload: str, seed: int, small: bool, rounds: int,
          only: list[str], name_length: int) -> dict:
    workloads = load_workloads(base)
    commands = workloads.invocations(workload, seed, small=small)
    if only:
        commands = [inv for inv in commands if inv.label in only]
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ.pop("PYTHONPATH", None)  # each launcher puts its copy's src first
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        roots = copy_checkouts(base, change, Path(tmp), name_length)
        modules, launchers, dirs = {}, {}, {}
        for side, root in roots.items():
            modules[side] = _load_run(root, side)
            os.chdir(root)
            try:
                launchers[side] = stack.enter_context(modules[side].Launcher())
            finally:
                os.chdir(here)
            work = root / "perfbench" / "_out" / "work" / workload
            dirs[side] = (work / "files2", work / "out")  # the last of three setups
            for path in dirs[side]:
                path.mkdir(parents=True)

        def child(side: str, argv: list[str], err: str) -> dict:
            done = launchers[side].run(modules[side].gatelab_cmd(argv), dirs[side][1] / err)
            return {"wall_s": done["wall_s"], "code": done["code"], "cpu_s": done["cpu_s"],
                    "maxrss_kb": done["rss_mb"] * 1024.0}

        for side, (files, _) in dirs.items():
            for f in workloads.gate_files(commands):
                if child(side, ["build", *f.build_args(), "-o", str(files / f.name)],
                         "build.err")["code"]:
                    raise RuntimeError(f"building {f.name} from the {side} tree failed")

        runs = {(k, side): [] for k in range(len(commands)) for side in roots}
        for r in range(rounds):
            for k, inv in enumerate(commands):
                for side in ("base", "change") if r % 2 == 0 else ("change", "base"):
                    files, out = dirs[side]
                    argv = inv.argv(str(files), str(out / f"{k:02d}-{inv.sub}"))
                    runs[k, side].append(child(side, argv, f"{k:02d}.err"))

    report = []
    for k, inv in enumerate(commands):
        record = {"label": inv.label}
        for side in roots:
            done = runs[k, side]
            record[side] = {key: statistics.median(d[key] for d in done) for key in KEYS}
            record[side]["codes"] = sorted({d["code"] for d in done})
        record["change_minus_base"] = {key: record["change"][key] - record["base"][key]
                                       for key in KEYS}
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
