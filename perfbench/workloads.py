"""Workload definitions: gate files to build and CLI invocations to run.

Every workload runs all nine analysis subcommands, so every per-layer metric
is measured on every workload.  A workload's focus
commands run at full size; the remaining subcommands run once each on n=8
files (the "smoke tier"), where an invocation costs little more than
interpreter start-up.  ``small=True`` shrinks the focus commands as well;
the self-check mode uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("analysis", "simulate-wide", "simulate-deep")
SUBCOMMANDS = (
    "validate", "trace", "scan", "chain", "lemma",
    "extract", "volume", "underflow", "simulate",
)

EPS = "2^-10"
PLANTED_K = 4


@dataclass(frozen=True)
class GateFile:
    """A gate file built by ``gatelab build``; ``c_exp`` gives c = 2^c_exp."""

    kind: str  # wht | dft_real | random | scaled | inverse_scaled
    n: int
    m: int = 0
    seed: int = 0
    c_exp: int = 0

    @property
    def name(self) -> str:
        if self.kind == "random":
            return f"random{self.n}m{self.m}s{self.seed}.alg"
        if self.kind in ("scaled", "inverse_scaled"):
            return f"{self.kind}{self.n}c{self.c_exp}k{PLANTED_K}.alg"
        return f"{self.kind}{self.n}.alg"

    @property
    def target(self) -> str:
        """Dense closed form the program ends at: the planted fixtures end at the WHT."""
        return "dft_real" if self.kind == "dft_real" else "wht"

    def build_args(self) -> list[str]:
        if self.kind == "wht":
            return ["--wht", str(self.n)]
        if self.kind == "dft_real":
            return ["--dft", str(self.n)]
        if self.kind == "random":
            return ["--random", f"{self.n},{self.m},{self.seed}"]
        flag = "--scaled" if self.kind == "scaled" else "--inverse-scaled"
        return [flag, f"{self.n},2^{self.c_exp},{PLANTED_K}"]

    def fixture_params(self) -> dict:
        if self.kind == "random":
            return {"m": self.m, "seed": self.seed}
        if self.kind in ("scaled", "inverse_scaled"):
            return {"c": 2.0**self.c_exp, "k": PLANTED_K}
        return {}


@dataclass(frozen=True)
class Invocation:
    """One ``gatelab`` subprocess: the subcommand, its gate file and options."""

    sub: str
    file: GateFile | None
    options: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        parts = [self.sub]
        if self.file is not None:
            parts.append(self.file.name[:-4])
        parts.extend(self.options)
        return " ".join(parts)

    def argv(self, files_dir: str, out_base: str) -> list[str]:
        """CLI argv; outputs go to ``out_base`` plus a suffix (see ``outputs``)."""
        argv = [self.sub]
        if self.file is not None:
            argv.append(f"{files_dir}/{self.file.name}")
        argv.extend(self.options)
        argv.extend(["-o", self.outputs(out_base)[0]])
        if self.sub == "simulate":
            argv.extend(["--summary", self.outputs(out_base)[1]])
        return argv

    def outputs(self, out_base: str) -> list[str]:
        if self.sub == "trace":
            return [out_base + ".csv"]
        if self.sub == "simulate":
            return [out_base + ".csv", out_base + ".summary.json"]
        return [out_base + ".json"]


def _wht(n):
    return GateFile("wht", n)


def _dft(n):
    return GateFile("dft_real", n)


def _scaled(n, c_exp):
    return GateFile("scaled", n, c_exp=c_exp)


def _inv(n):
    return GateFile("inverse_scaled", n, c_exp=8)


def _simulate(f: GateFile, samples: int, seed: int) -> Invocation:
    options = ("--eps", EPS, "--samples", str(samples), "--seed", str(seed), "--W", "32")
    return Invocation("simulate", f, options)


def smoke_tier(seed: int) -> dict[str, Invocation]:
    """One small invocation per subcommand, keyed by subcommand."""
    return {
        "validate": Invocation("validate", GateFile("random", 8, m=50, seed=seed)),
        "trace": Invocation("trace", _dft(8)),
        "scan": Invocation("scan", _scaled(8, 20), ("--R", "1", "--include-constants")),
        "chain": Invocation("chain", _wht(8), ("--R", "2")),
        "lemma": Invocation("lemma", None, ("--pair-trials", "1000", "--trials", "20",
                                            "--proj-trials", "2", "--n-list", "8",
                                            "--seed", str(seed))),
        "extract": Invocation("extract", _inv(8)),
        "volume": Invocation("volume", _inv(8)),
        "underflow": Invocation("underflow", _inv(8), ("--eps", EPS)),
        "simulate": _simulate(_wht(8), 1000, seed),
    }


def _focus(workload: str, seed: int, small: bool) -> list[Invocation]:
    if workload == "analysis":
        # Sized so that three passes fit in a run: one n=1024 point each for
        # trace and scan, and the cubic-cost commands at n <= 128.
        big, mid, small_n, tiny = (32, 16, 16, 16) if small else (1024, 512, 128, 64)
        rand = GateFile("random", tiny, m=100 if small else 1000, seed=seed)
        return [
            Invocation("validate", _wht(tiny)),
            Invocation("validate", rand),
            Invocation("trace", _wht(big)),
            Invocation("trace", _dft(mid)),
            Invocation("scan", _wht(big), ("--R", "1")),
            Invocation("scan", _scaled(mid, 20), ("--R", "1", "--include-constants")),
            Invocation("scan", _dft(mid), ("--R", "2")),
            Invocation("chain", _wht(small_n), ("--R", "2")),
            Invocation("chain", _dft(small_n), ("--R", "2")),
            Invocation("lemma", None, ("--seed", str(seed))),  # default trials, even if small
            Invocation("extract", _inv(tiny)),
            Invocation("volume", _inv(tiny // 2)),
            Invocation("underflow", _inv(tiny // 2), ("--eps", EPS)),
        ]
    if workload == "simulate-wide":
        # Several mid-sized invocations per pass rather than two large ones
        # (here and below): more samples average out host noise.
        n, samples = (16, 100) if small else (128, 250)
        return [_simulate(f, samples, seed + k) for k in range(3) for f in (_wht(n), _dft(n))]
    if workload == "simulate-deep":
        n, samples = (16, 2000) if small else (32, 50_000)
        return [_simulate(f, samples, seed + k) for k in range(2) for f in (_wht(n), _scaled(n, 40))]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def invocations(workload: str, seed: int, small: bool = False) -> list[Invocation]:
    """The workload's command sequence: focus commands, then the smoke tier
    for every subcommand the focus list does not run."""
    focus = _focus(workload, seed, small)
    covered = {inv.sub for inv in focus}
    return focus + [inv for sub, inv in smoke_tier(seed).items() if sub not in covered]


def gate_files(commands: list[Invocation]) -> list[GateFile]:
    """Distinct gate files in first-use order."""
    seen: dict[GateFile, None] = {}
    for inv in commands:
        if inv.file is not None:
            seen.setdefault(inv.file)
    return list(seen)
