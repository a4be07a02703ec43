"""Gate model of in-place linear algorithms and its text format, without numpy.

An algorithm over R^n is an ordered list of elementary gates, each either a
planar (Givens) rotation acting on a pair of coordinates or a scaling of a
single coordinate by a nonzero constant.  Composing the first t gates gives
the trajectory M(0)=Id, M(1), ..., M(m); ``gates`` compiles and walks it.

This module holds only the gate objects, ``LinearAlgorithm`` and the text
format, in plain Python: building and writing a gate file never loads numpy.
``LinearAlgorithm.arrays`` imports the numpy kernel the first time an
analysis asks for the compiled gate arrays.

Coordinates are 0-based everywhere, including the text file format.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Union

if TYPE_CHECKING:
    from .gates import GateArrays

# The gate objects and LinearAlgorithm are tuples of their fields: immutable,
# equal and hashed by value, and checked in ``__new__``.


class _RotationFields(NamedTuple):
    i: int
    j: int
    theta: float


class Rotation(_RotationFields):
    """Planar rotation by ``theta`` radians acting on coordinates ``i`` and ``j``.

    Acting on the state it maps (x_i, x_j) to
    (cos(theta)*x_i + sin(theta)*x_j, -sin(theta)*x_i + cos(theta)*x_j).
    """

    __slots__ = ()

    def __new__(cls, i: int, j: int, theta: float) -> Rotation:
        if i == j:
            raise ValueError(f"rotation needs two distinct coordinates, got {i} twice")
        if i < 0 or j < 0:
            raise ValueError(f"negative coordinate in rotation ({i}, {j})")
        if not math.isfinite(theta):
            raise ValueError(f"non-finite rotation angle {theta!r}")
        return super().__new__(cls, i, j, theta)


class _ConstantFields(NamedTuple):
    i: int
    c: float


class Constant(_ConstantFields):
    """Multiplication of coordinate ``i`` by the nonzero scalar ``c``."""

    __slots__ = ()

    def __new__(cls, i: int, c: float) -> Constant:
        if i < 0:
            raise ValueError(f"negative coordinate in constant gate ({i})")
        if not math.isfinite(c) or c == 0.0:
            raise ValueError(f"constant gate scalar must be finite and nonzero, got {c!r}")
        return super().__new__(cls, i, c)


Gate = Union[Rotation, Constant]


def is_reflection(gate: Gate) -> bool:
    """A constant gate with scalar exactly -1."""
    return isinstance(gate, Constant) and gate.c == -1.0


def touched(gate: Gate) -> tuple[int, ...]:
    """Indices of the rows rewritten by the gate."""
    if isinstance(gate, Rotation):
        return (gate.i, gate.j)
    return (gate.i,)


class _AlgorithmFields(NamedTuple):
    n: int
    gates: tuple[Gate, ...]
    label: str


class LinearAlgorithm(_AlgorithmFields):
    """Dimension n plus an ordered gate list; the composed map is M(m)."""

    def __new__(cls, n: int, gates: tuple[Gate, ...], label: str = "") -> LinearAlgorithm:
        if n < 2:
            raise ValueError(f"dimension must be at least 2, got {n}")
        gates = tuple(gates)
        for pos, gate in enumerate(gates):
            for idx in touched(gate):
                if idx >= n:
                    raise ValueError(
                        f"gate {pos} touches coordinate {idx}, out of range for n={n}"
                    )
        return super().__new__(cls, n, gates, label)

    def __setattr__(self, name: str, value: object) -> None:
        # the instance dict exists only for the cached ``arrays``
        raise AttributeError(f"cannot assign to {name!r} of a LinearAlgorithm")

    @property
    def m(self) -> int:
        return len(self.gates)

    @cached_property
    def arrays(self) -> GateArrays:
        """The gate list compiled into arrays; computed once per algorithm."""
        # Imported here: the arrays need numpy, which building and writing
        # a gate file never load.
        from .gates import GateArrays

        return GateArrays.compile(self.gates)


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
