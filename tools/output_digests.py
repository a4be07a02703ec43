"""Hash every output of one benchmark workload, for byte-identity checks.

For one source tree, workload, seed and size this builds the workload's gate
files with ``python -m gatelab.cli build`` and runs each of its invocations
(``perfbench/workloads.py`` of that tree, read and never changed), one
process at a time with ``OPENBLAS_NUM_THREADS=1`` and no bytecode written,
in a temporary directory; ``--small`` takes the workload's small tier.
It prints JSON: the sha256 of the stdout of ``gatelab --help`` and of each
subcommand's ``--help``, each gate file's sha256, and each invocation's exit
code and the sha256 of its stdout, stderr and every ``-o``/``--summary``
file.  Two trees give byte-identical outputs when their JSON is equal:

    python tools/output_digests.py --tree . --workload analysis --seed 11 > new.json
    python tools/output_digests.py --tree ../old --workload analysis --seed 11 > old.json
    cmp old.json new.json

Every path is relative to the temporary directory, so no output names it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from source_trees import child_env, load_workloads


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(tree: Path, workload: str, seed: int, small: bool) -> dict:
    workloads = load_workloads(tree)
    commands = workloads.invocations(workload, seed, small=small)
    env = child_env(tree / "src")

    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "files").mkdir()
        Path(tmp, "out").mkdir()

        def run(argv: list[str]) -> subprocess.CompletedProcess:
            return subprocess.run([sys.executable, "-m", "gatelab.cli", *argv],
                                  cwd=tmp, env=env, capture_output=True)

        usage = run(["--help"]).stdout
        helps = {"--help": _sha256(usage)}
        # the subcommands, as the usage line lists them: {build,validate,...}
        for name in re.search(rb"\{([\w,-]+)\}", usage)[1].decode().split(","):
            helps[f"{name} --help"] = _sha256(run([name, "--help"]).stdout)

        built = {}
        for f in workloads.gate_files(commands):
            done = run(["build", *f.build_args(), "-o", f"files/{f.name}"])
            if done.returncode:
                raise RuntimeError(f"building {f.name} failed: {done.stderr.decode()}")
            built[f.name] = _sha256(Path(tmp, "files", f.name).read_bytes())

        runs = []
        for k, inv in enumerate(commands):
            base = f"out/run{k}"
            done = run(inv.argv("files", base))
            record = {
                "label": inv.label,
                "exit": done.returncode,
                "stdout": _sha256(done.stdout),
                "stderr": _sha256(done.stderr),
            }
            for path in inv.outputs(base):
                out = Path(tmp, path)
                record["output" + path[len(base):]] = (
                    _sha256(out.read_bytes()) if out.exists() else None
                )
            runs.append(record)
    return {"workload": workload, "seed": seed, "small": small, "help": helps, "files": built,
            "runs": runs}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source tree holding src/ and perfbench/ (default: this one)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--small", action="store_true", help="the workload's small tier")
    args = parser.parse_args(argv)
    result = digests(args.tree.resolve(), args.workload, args.seed, args.small)
    json.dump(result, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
