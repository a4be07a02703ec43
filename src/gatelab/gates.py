"""Gate model of in-place linear algorithms and their matrix trajectory.

An algorithm over R^n is an ordered list of elementary gates, each either a
planar (Givens) rotation acting on a pair of coordinates or a scaling of a
single coordinate by a nonzero constant.  Composing the first t gates gives
the trajectory M(0)=Id, M(1), ..., M(m).  Alongside M we maintain the inverse
transpose, which evolves under equally cheap row operations: a rotation
applies to its rows unchanged (rotations are orthogonal), a scaling by c
scales the matching row by 1/c.  Every gate therefore touches at most two
rows of both matrices, which the analysis modules exploit for O(n) per-gate
updates; ``replay`` is the one walk over the trajectory that they all use.

Coordinates are 0-based everywhere, including the text file format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

import numpy as np


@dataclass(frozen=True)
class Rotation:
    """Planar rotation by ``theta`` radians acting on coordinates ``i`` and ``j``.

    Acting on the state it maps (x_i, x_j) to
    (cos(theta)*x_i + sin(theta)*x_j, -sin(theta)*x_i + cos(theta)*x_j).
    """

    i: int
    j: int
    theta: float

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ValueError(f"rotation needs two distinct coordinates, got {self.i} twice")
        if self.i < 0 or self.j < 0:
            raise ValueError(f"negative coordinate in rotation ({self.i}, {self.j})")
        if not math.isfinite(self.theta):
            raise ValueError(f"non-finite rotation angle {self.theta!r}")


@dataclass(frozen=True)
class Constant:
    """Multiplication of coordinate ``i`` by the nonzero scalar ``c``."""

    i: int
    c: float

    def __post_init__(self) -> None:
        if self.i < 0:
            raise ValueError(f"negative coordinate in constant gate ({self.i})")
        if not math.isfinite(self.c) or self.c == 0.0:
            raise ValueError(f"constant gate scalar must be finite and nonzero, got {self.c!r}")


Gate = Union[Rotation, Constant]


def is_reflection(gate: Gate) -> bool:
    """A constant gate with scalar exactly -1."""
    return isinstance(gate, Constant) and gate.c == -1.0


def touched(gate: Gate) -> tuple[int, ...]:
    """Indices of the rows rewritten by the gate."""
    if isinstance(gate, Rotation):
        return (gate.i, gate.j)
    return (gate.i,)


@dataclass(frozen=True)
class LinearAlgorithm:
    """Dimension n plus an ordered gate list; the composed map is M(m)."""

    n: int
    gates: tuple[Gate, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"dimension must be at least 2, got {self.n}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for pos, gate in enumerate(self.gates):
            for idx in touched(gate):
                if idx >= self.n:
                    raise ValueError(
                        f"gate {pos} touches coordinate {idx}, out of range for n={self.n}"
                    )

    @property
    def m(self) -> int:
        return len(self.gates)


def rotate_rows(A: np.ndarray, i: int, j: int, cos_t: float, sin_t: float) -> None:
    """Left-multiply rows i, j of A by [[cos, sin], [-sin, cos]] in place."""
    ri = cos_t * A[i] + sin_t * A[j]
    rj = -sin_t * A[i] + cos_t * A[j]
    A[i] = ri
    A[j] = rj


def apply_gate_rows(A: np.ndarray, gate: Gate, inverse_transpose: bool = False) -> None:
    """Apply a gate as a left row-operation to A in place.

    With ``inverse_transpose`` the induced operation on M^{-T} is applied
    instead: identical for rotations, row scaling by 1/c for constants.
    """
    if isinstance(gate, Rotation):
        rotate_rows(A, gate.i, gate.j, math.cos(gate.theta), math.sin(gate.theta))
    else:
        A[gate.i] *= (1.0 / gate.c) if inverse_transpose else gate.c


def apply_to_vector(
    algorithm: LinearAlgorithm, x: Iterable[float], upto_t: int | None = None
) -> np.ndarray:
    """Return M(upto_t) x by sequential gate application (never a dense multiply)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (algorithm.n,):
        raise ValueError(f"expected vector of length {algorithm.n}, got shape {x.shape}")
    if upto_t is None:
        upto_t = algorithm.m
    if not 0 <= upto_t <= algorithm.m:
        raise ValueError(f"step index {upto_t} out of range [0, {algorithm.m}]")
    y = x.copy()
    for gate in algorithm.gates[:upto_t]:
        apply_gate_rows(y, gate)
    return y


def replay(
    algorithm: LinearAlgorithm,
    P: np.ndarray | None = None,
    Q: np.ndarray | None = None,
    stop: int | None = None,
) -> Iterator[tuple[int, tuple[int, ...], np.ndarray, np.ndarray]]:
    """Walk the trajectory (M(t) P, M(t)^{-T} Q) for t = 0..stop (default m).

    Yields ``(t, rows, A, B)`` with ``rows`` the rows gate t rewrote (``()``
    at t = 0).  A and B are the same two arrays at every step, updated in
    place (O(n) per gate): copy them to keep a snapshot.  P or Q of None
    means identity.  The arguments are checked when ``replay`` is called.
    """
    n = algorithm.n
    if stop is None:
        stop = algorithm.m
    if not 0 <= stop <= algorithm.m:
        raise ValueError(f"step index {stop} out of range [0, {algorithm.m}]")
    A = np.eye(n) if P is None else np.array(P, dtype=float)
    B = np.eye(n) if Q is None else np.array(Q, dtype=float)
    if A.shape != (n, n) or B.shape != (n, n):
        raise ValueError(f"P and Q must be {n}x{n}")

    def steps():
        yield 0, (), A, B
        for t, gate in enumerate(algorithm.gates[:stop], start=1):
            apply_gate_rows(A, gate)
            apply_gate_rows(B, gate, inverse_transpose=True)
            yield t, touched(gate), A, B

    return steps()


def matrices_at(algorithm: LinearAlgorithm, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense (M(t), M(t)^{-T}) obtained by replaying gates from the identity."""
    for _, _, M, Minv_T in replay(algorithm, stop=t):
        pass
    return M, Minv_T


@dataclass
class TrajectoryDiagnostics:
    """Replay report: inverse consistency and per-step condition numbers."""

    n: int
    m: int
    max_residual: float
    kappas: list[float]
    max_kappa: float
    stable: bool


def validate(algorithm: LinearAlgorithm, residual_tol: float = 1e-6) -> TrajectoryDiagnostics:
    """Replay the trajectory and report consistency diagnostics.

    Residual is the max entrywise deviation of M(t) * M(t)^{-T}.T from the
    identity over all t; condition numbers come from a full SVD at each step.
    A residual above ``residual_tol`` flags the algorithm as numerically
    unstable (only pathological constants can cause this).
    """
    n = algorithm.n
    eye = np.eye(n)
    max_residual = 0.0
    kappas: list[float] = []
    for _, _, M, Minv_T in replay(algorithm):
        residual = float(np.abs(M @ Minv_T.T - eye).max())
        max_residual = max(max_residual, residual)
        svals = np.linalg.svd(M, compute_uv=False)
        kappas.append(float(svals[0] / svals[-1]))
    return TrajectoryDiagnostics(
        n=n,
        m=algorithm.m,
        max_residual=max_residual,
        kappas=kappas,
        max_kappa=float(max(kappas)),
        stable=max_residual <= residual_tol,
    )


class ParseError(ValueError):
    """Malformed algorithm text; ``line`` is the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def render_algorithm(algorithm: LinearAlgorithm) -> str:
    """Serialize to the gate text format.

    Header line ``n <n> m <m>``, then one gate per line: ``R <i> <j> <theta>``
    or ``C <i> <c>`` with scalars printed at 17 significant digits so that
    ``parse_algorithm(render_algorithm(a))`` reproduces the gates exactly.
    The free-form label is not part of the format.
    """
    lines = [f"n {algorithm.n} m {algorithm.m}"]
    for gate in algorithm.gates:
        if isinstance(gate, Rotation):
            lines.append(f"R {gate.i} {gate.j} {gate.theta:.17g}")
        else:
            lines.append(f"C {gate.i} {gate.c:.17g}")
    return "\n".join(lines) + "\n"


def parse_algorithm(text: str, label: str = "") -> LinearAlgorithm:
    """Parse the gate text format; raises ParseError with a line number."""
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty input, expected header 'n <n> m <m>'")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "n" or header[2] != "m":
        raise ParseError(1, f"bad header {lines[0]!r}, expected 'n <n> m <m>'")
    try:
        n, m = int(header[1]), int(header[3])
    except ValueError:
        raise ParseError(1, f"non-integer dimensions in header {lines[0]!r}") from None

    gates: list[Gate] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts:
            continue
        try:
            if parts[0] == "R" and len(parts) == 4:
                gates.append(Rotation(int(parts[1]), int(parts[2]), float(parts[3])))
            elif parts[0] == "C" and len(parts) == 3:
                gates.append(Constant(int(parts[1]), float(parts[2])))
            else:
                raise ParseError(lineno, f"unrecognized gate line {raw!r}")
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    if len(gates) != m:
        raise ParseError(1, f"header declares m={m} gates but {len(gates)} were parsed")
    try:
        return LinearAlgorithm(n=n, gates=tuple(gates), label=label)
    except ValueError as exc:
        raise ParseError(1, str(exc)) from None


def write_algorithm(algorithm: LinearAlgorithm, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(render_algorithm(algorithm))


def read_algorithm(path: str) -> LinearAlgorithm:
    with open(path) as fh:
        return parse_algorithm(fh.read(), label=path)
