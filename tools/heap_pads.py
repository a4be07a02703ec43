"""Time one library expression from two source trees over several heap layouts.

An in-process timing moves by several percent with where the allocator
happens to place a walk's arrays, so one process per tree cannot show a
difference smaller than that.  For two trees and one Python expression this
copies each whole checkout into a temporary directory under a name of the
same length (``a...`` for the base, ``b...`` for the change) and runs one
process per (tree, pad): the child first allocates a ``bytearray`` pad of
that many bytes (0, 1000, 4000, 70000 and 300000), which shifts
every later allocation, then runs ``--setup`` once and the expression
``--calls`` times, and reports the best call.  The two trees alternate
which goes first from pad to pad.  Each child runs with
``OPENBLAS_NUM_THREADS=1`` and no bytecode written, pinned to ``--cpu``
when given.  It prints JSON: each tree's best seconds per pad and their
median, and the base's time over the change's per pad and at the medians.

    python tools/heap_pads.py --base ../parent --change . --cpu 1 \\
        --setup "from gatelab import builders, potential; a = builders.build_wht(1024)" \\
        --expr "potential.ledger_walk(a, None, None, 1, ledger=False)"

Names the setup defines are visible to the expression.  ``--rounds`` repeats
the whole sweep and keeps each (tree, pad)'s best over the rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from source_trees import child_env, copy_checkouts

PADS = (0, 1000, 4000, 70000, 300000)

# The child: the pad first, so that it shifts every later allocation, then
# the setup and the timed calls.
_CHILD = """
import sys, time
pad = bytearray(int(sys.argv[1]))
space = {}
exec(sys.argv[2], space)
code = compile(sys.argv[3], "<expr>", "eval")
best = float("inf")
for _ in range(int(sys.argv[4])):
    start = time.perf_counter()
    eval(code, space)
    best = min(best, time.perf_counter() - start)
print(best)
"""


def _best(src: Path, pad: int, setup: str, expr: str, calls: int, cpu: int | None) -> float:
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    done = subprocess.run([sys.executable, "-c", _CHILD, str(pad), setup, expr, str(calls)],
                          env=child_env(src), capture_output=True, text=True, preexec_fn=pin)
    if done.returncode:
        raise RuntimeError(f"the expression failed at pad {pad}:\n{done.stderr}")
    return float(done.stdout)


def sweep(base: Path, change: Path, setup: str, expr: str, calls: int, rounds: int,
          cpu: int | None) -> dict:
    best = {side: [float("inf")] * len(PADS) for side in ("base", "change")}
    with tempfile.TemporaryDirectory() as tmp:
        trees = copy_checkouts(base, change, Path(tmp), 4)
        k = 0
        for _ in range(rounds):
            for p, pad in enumerate(PADS):
                for side in ("base", "change") if k % 2 == 0 else ("change", "base"):
                    seconds = _best(trees[side] / "src", pad, setup, expr, calls, cpu)
                    best[side][p] = min(best[side][p], seconds)
                k += 1
    medians = {side: statistics.median(times) for side, times in best.items()}
    return {
        "setup": setup,
        "expr": expr,
        "calls": calls,
        "rounds": rounds,
        "pads": list(PADS),
        "base": {"best_s": best["base"], "median_s": medians["base"]},
        "change": {"best_s": best["change"], "median_s": medians["change"]},
        "base_over_change": [b / c for b, c in zip(best["base"], best["change"])],
        "median_base_over_change": medians["base"] / medians["change"],
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="source tree to compare against")
    parser.add_argument("--change", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source tree with the change (default: this one)")
    parser.add_argument("--setup", default="", help="Python run once, untimed, before the calls")
    parser.add_argument("--expr", required=True, help="the Python expression to time")
    parser.add_argument("--calls", type=int, default=5, help="calls per process; the best counts")
    parser.add_argument("--rounds", type=int, default=1, help="sweeps over the pads")
    parser.add_argument("--cpu", type=int, help="pin every child to this CPU")
    args = parser.parse_args(argv)
    result = sweep(args.base.resolve(), args.change.resolve(), args.setup, args.expr,
                   args.calls, args.rounds, args.cpu)
    json.dump(result, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
