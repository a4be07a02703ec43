"""What the measurement tools share: a tree's benchmark workloads, copies of
two whole checkouts under names of one length, and a ``gatelab`` child's
environment.  ``process_pairs.py``, ``heap_pads.py`` and ``output_digests.py``
import it from this directory.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import sys
from pathlib import Path


def load_workloads(tree: Path):
    """``perfbench/workloads.py`` of ``tree`` as a module; the file is only read."""
    spec = importlib.util.spec_from_file_location(
        "_tree_workloads", tree / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def copy_checkouts(base: Path, change: Path, into: Path, name_length: int) -> dict[str, Path]:
    """Copy each whole checkout to ``into/a...`` (base) or ``into/b...``
    (change), each directory name ``name_length`` letters long, since ru_maxrss
    steps with the length of the path a process compiles its modules from.
    Git metadata, bytecode and benchmark records are left behind.  Returns the
    two copies' roots keyed ``"base"`` and ``"change"``."""
    copies = {}
    skip = shutil.ignore_patterns(".git", "__pycache__", "*.egg-info", ".hypothesis",
                                  ".pytest_cache", "_out")
    for side, tree, letter in (("base", base, "a"), ("change", change, "b")):
        copies[side] = into / (letter * name_length)
        shutil.copytree(tree, copies[side], ignore=skip)
    return copies


def child_env(src: Path) -> dict[str, str]:
    """This environment with ``src`` as the whole ``PYTHONPATH``, one BLAS
    thread and no bytecode written, as the benchmark runs its children."""
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
                PYTHONPATH=str(src))
