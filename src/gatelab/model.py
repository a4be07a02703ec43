"""Gate model of in-place linear algorithms and its text format, without numpy.

An algorithm over R^n is an ordered list of elementary gates, each either a
planar (Givens) rotation acting on a pair of coordinates or a scaling of a
single coordinate by a nonzero constant.  Composing the first t gates gives
the trajectory M(0)=Id, M(1), ..., M(m); ``gates`` compiles and walks it.

This module holds only the gate objects, ``LinearAlgorithm`` and the text
format, in plain Python: building and writing a gate file never loads numpy.
The format has one parser, ``parse_columns``, which reads the text into
three columns (i, j and value, j = -1 for a constant) and checks every gate
on the way.  ``parse_algorithm`` wraps the columns in a
``LinearAlgorithm`` that builds its gate objects when ``gates`` is first
read; ``gates.read_algorithm`` compiles them into the numpy gate arrays
without building any.  ``LinearAlgorithm.arrays`` imports the numpy kernel
the first time an analysis asks for the compiled gate arrays.

Coordinates are 0-based everywhere, including the text file format.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import islice
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence, Union

if TYPE_CHECKING:
    from .gates import GateArrays

# The gate objects are tuples of their fields: immutable, equal and hashed by
# value, and checked in ``__new__``.


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
    """Multiplication of coordinate ``i`` by the nonzero scalar ``c``, whose
    reciprocal scales the row of the inverse transpose and must be finite."""

    __slots__ = ()

    def __new__(cls, i: int, c: float) -> Constant:
        if i < 0:
            raise ValueError(f"negative coordinate in constant gate ({i})")
        if not math.isfinite(c) or c == 0.0:
            raise ValueError(f"constant gate scalar must be finite and nonzero, got {c!r}")
        if not math.isfinite(1.0 / c):
            raise ValueError(f"constant gate scalar must have a finite reciprocal, got {c!r}")
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


def _check_rows(n: int, i: Sequence[int], j: Sequence[int]) -> None:
    """Raise ValueError unless n >= 2 and every row the gates touch is below n."""
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    if max(i, default=0) >= n or max(j, default=0) >= n:
        pos = next(g for g in range(len(i)) if i[g] >= n or j[g] >= n)
        row = i[pos] if i[pos] >= n else j[pos]
        raise ValueError(f"gate {pos} touches coordinate {row}, out of range for n={n}")


class LinearAlgorithm:
    """Dimension n plus an ordered gate list; the composed map is M(m).

    Frozen, and equal and hashed by (n, gates, label).  ``columns`` holds
    the gate list as three columns (i, j, value), one entry per gate: a
    rotation of rows i and j by the angle value, or, where j is -1, the
    constant value on row i; ``arrays`` compiles them.  One made by
    ``from_columns`` builds its gate objects only when ``gates`` is first
    read, so an analysis of a gate file never builds one.
    """

    def __init__(self, n: int, gates: Iterable[Gate], label: str = "") -> None:
        gates = tuple(gates)
        i = [g.i for g in gates]
        j = [g.j if isinstance(g, Rotation) else -1 for g in gates]
        _check_rows(n, i, j)
        columns = (i, j, [g[-1] for g in gates])  # the last field: theta or c
        self.__dict__.update(n=n, m=len(gates), label=label, gates=gates, columns=columns)

    @classmethod
    def from_columns(
        cls, n: int, columns: tuple, label: str = "", arrays: GateArrays | None = None
    ) -> LinearAlgorithm:
        """The algorithm of checked columns (``parse_columns``'s, or any
        sequences of the same numbers), with its compiled ``arrays`` if given."""
        algorithm = cls.__new__(cls)
        algorithm.__dict__.update(n=n, m=len(columns[0]), label=label, columns=columns)
        if arrays is not None:
            algorithm.__dict__["arrays"] = arrays
        return algorithm

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r} of a LinearAlgorithm")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearAlgorithm):
            return NotImplemented
        return (self.n, self.gates, self.label) == (other.n, other.gates, other.label)

    def __hash__(self) -> int:
        return hash((self.n, self.gates, self.label))

    def __repr__(self) -> str:
        return f"LinearAlgorithm(n={self.n}, gates={self.gates!r}, label={self.label!r})"

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        # Python numbers, whatever sequences the columns are
        return tuple(
            Rotation(int(i), int(j), float(v)) if j >= 0 else Constant(int(i), float(v))
            for i, j, v in zip(*self.columns)
        )

    @cached_property
    def arrays(self) -> GateArrays:
        """The gate list compiled into arrays; computed once per algorithm."""
        # Imported here: the arrays need numpy, which building and writing
        # a gate file never load.
        from .gates import GateArrays

        return GateArrays.compile(self.columns)


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


def parse_columns(text: str) -> tuple[int, tuple[list, list, list]]:
    """The one parser of the gate text format: the dimension n and the gate
    columns (i, j, value) of ``LinearAlgorithm.columns``.  Every gate is
    checked as ``Rotation``, ``Constant`` and ``LinearAlgorithm`` check it,
    in plain Python as the lines are read; raises ParseError with a line
    number."""
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

    columns = ([], [], [])
    add_i, add_j, add_value = (column.append for column in columns)
    isfinite = math.isfinite
    # rows below n (two per line at most: the table costs no more than the
    # text) under their decimals ``str(r)``, read twice as fast as by ``int``;
    # other text (``07``, ``1_0``, a larger row) takes ``int`` and range checks
    rows = {str(r): r for r in range(min(n, 2 * len(lines)))}
    beyond_rows = False
    raw = ""
    try:
        for raw in islice(lines, 1, None):
            parts = raw.split()
            size = len(parts)
            # a gate that fails the quick check is made, to raise its own error
            if size == 4 and parts[0] == "R":
                try:
                    i, j = rows[parts[1]], rows[parts[2]]
                except KeyError:
                    i, j = int(parts[1]), int(parts[2])
                    beyond_rows = True
                value = float(parts[3])
                if i == j or i < 0 or j < 0 or not isfinite(value):
                    Rotation(i, j, value)
            elif size == 3 and parts[0] == "C":
                try:
                    i = rows[parts[1]]
                except KeyError:
                    i = int(parts[1])
                    beyond_rows = True
                j, value = -1, float(parts[2])
                if i < 0 or not isfinite(value) or not value or not isfinite(1.0 / value):
                    Constant(i, value)
            elif size:
                raise ValueError(f"unrecognized gate line {raw!r}")
            else:
                continue  # a blank line
            add_i(i)
            add_j(j)
            add_value(value)
    except ValueError as exc:
        # whether a line parses depends on its text alone, so no earlier
        # line holds the same text
        raise ParseError(lines.index(raw, 1) + 1, str(exc)) from None
    if len(columns[0]) != m:
        raise ParseError(1, f"header declares m={m} gates but {len(columns[0])} were parsed")
    try:
        if n < 2 or beyond_rows:
            _check_rows(n, *columns[:2])
    except ValueError as exc:
        raise ParseError(1, str(exc)) from None
    return n, columns


def parse_algorithm(text: str, label: str = "") -> LinearAlgorithm:
    """Parse the gate text format (``parse_columns``) into an algorithm whose
    gate objects are built from the columns when ``gates`` is first read."""
    n, columns = parse_columns(text)
    return LinearAlgorithm.from_columns(n, columns, label)


def write_algorithm(algorithm: LinearAlgorithm, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(render_algorithm(algorithm))
