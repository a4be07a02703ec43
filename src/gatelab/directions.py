"""Greedy extraction of orthonormal overflow/underflow direction systems.

The extraction walks the trajectory looking for touched rows that stay large
after projecting away everything already extracted.  Writing P for the
projection onto the orthogonal complement of the overflow directions and Q
for that of the underflow directions, each round rates every candidate pair
(step t, coordinate i) by the product

    |row_i(M(t)) P| * |row_i(M(t)^{-T}) Q|.

A candidate qualifies only if at least one of its two factors reaches the
threshold tau; the round extends the side with the larger factor, recording
the step, coordinate, and the factor as the direction's magnitude.  The loop
stops when no candidate qualifies, at which point both factors of every pair
are below tau, so in particular every product is below tau squared.

Because an extracted direction is the projected row itself (normalized), the
same (t, i) pair can never re-qualify on the same side: its projected row is
annihilated by the update.  Each step contributes at most two coordinates,
so a system of size k spans at least k/2 distinct steps; the unrestricted
scan offers all n coordinates at every step, so there it spans at least k/n.

The default threshold is sqrt(b/2) for speedup factor b = n*log2(n)/m.

The ledger.  P and Q are never formed.  For a candidate row r and an
orthonormal system v_1..v_k, |r P|^2 = |r|^2 - sum_j (r . v_j)^2, and
r . v = (M(t) v)_i.  So one layered walk of (I, I) (``layering.replay_layers``)
gives every candidate's |r|^2 and |s|^2 (s its row of M(t)^{-T}) and the
final M(m) for the target check.  The walk takes the identity's columns in
panels (``gates.column_panels``): each panel adds its part of every squared
norm, and its columns of M(m) are checked against the matching columns of
the transform, a block at a time, so neither n x n matrix is ever whole
beyond n = 512.  After that a round

- rates every candidate from its two squared residuals;
- materialises only the winner's row, by a transposed walk of e_i
  (``layering.VectorWalk.row``), and orthogonalises it against its own system
  (Gram-Schmidt, twice), so the recorded magnitude is the norm |w| of that
  row, not the ledger's value;
- pushes the new unit vector once through M (overflow) or M^{-T}
  (underflow) (``layering.VectorWalk.push``), which gives r . v for every
  candidate and updates the ledger in O(m).

One round costs O(m + kn), not the O(mn) of replaying both matrices.

Rounding.  Let u = 2^-53.  A rotation writes two entries (a, b) as
fl(c a + s b) and fl(c b - s a); with float c and s, c^2 + s^2 is within 2u
of 1, so the pair is off by at most 5u |(a, b)|.  Rotations and reflections
preserve the 2-norm of what follows, so after t of them a pushed unit vector
is off by at most 5tu, and a walked row of M(t) by at most 7tu |r|.  The
ledger's squared residual over k directions is therefore within

    zeta |r|^2,   zeta = u (n + k + 14t + 10 t sqrt(k))  <=  u (2n + m (14 + 10 sqrt(n)))

of the exact one: the n squares of |r|^2 add n u, the k subtractions k u,
and sum_j 2 |r . v_j| 5tu |r| <= 10 t sqrt(k) u |r|^2 by Cauchy-Schwarz, as
sum_j (r . v_j)^2 <= |r|^2.  The right-hand side, with k = n and t = m, is
the ``rounding_bound`` used.  A constant with |c| != 1 scales a row and its
error alike, at one more rounding, so the bound holds relative to the row
while rows of different norms are not mixed, as in the planted fixtures; a
program that mixes them loses relative accuracy in proportion to its norm
growth, and then only the exact winner check below stands guard.

The selection rule, which rounding noise cannot flip:

- A factor whose squared residual is at most zeta |r|^2 counts as exactly 0.
  Once one system spans R^n, every factor on that side is 0 in exact
  arithmetic; without this rule the ledger's noise (about 1e-16 |r|^2)
  would rank the other side's candidates.
- Scores within the relative tolerance rho = 2 sqrt(zeta) of the top score
  tie.  A squared residual L above sqrt(zeta) |r|^2 is off by at most
  sqrt(zeta) relative, its factor by half that, and a product of two such
  factors by sqrt(zeta); two scores equal in exact arithmetic thus differ
  by less than rho.  Ties go to the smallest step, then the smallest
  coordinate, and then, when the two factors are equal within rho, to the
  overflow side.
- The winner's side must still reach tau - ``MAGNITUDE_SLACK`` once
  materialised exactly; if rounding beyond the bound made it qualify, the
  extraction raises instead of recording it.

So where two scores are equal in exact arithmetic the rule, not the noise,
picks.  On the inverse-scaled fixtures at the default tau (n >= 8), the
overflow system spans R^n before the underflow side is done, and the later
underflow picks are the smallest steps with a unit factor, e.g. (13, 4),
(13, 5), (15, 6), (15, 7) at magnitude 1 for n=8, where a per-round rescan
with the projections picked the noise maxima (29, 2), (31, 3), (27, 1),
(25, 0) at magnitude 0.707.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .builders import wht_entries
from .gates import (
    BLOCK_ELEMENTS,
    LinearAlgorithm,
    Workspace,
    check_finite,
    column_panels,
    panel_width,
    squared_row_norms,
)
from .layering import VectorWalk, layer, replay_layers


# A system's Gram matrix may miss the identity by ORTHO_TOL (``check``), and
# the final matrix the transform by TARGET_TOL (``extract_directions``).
ORTHO_TOL = 1e-8
TARGET_TOL = 1e-8

# A direction's magnitude, its materialised row's norm, may fall short of the
# threshold by MAGNITUDE_SLACK: the least a recorded magnitude may be is
# tau - MAGNITUDE_SLACK, both when it is extracted and when ``check`` reads it.
MAGNITUDE_SLACK = 1e-12


def speedup_factor(algorithm: LinearAlgorithm) -> float:
    """Gate-count speedup b = n*log2(n) / m."""
    if algorithm.m == 0:
        raise ValueError("speedup factor undefined for an empty gate list")
    return algorithm.n * math.log2(algorithm.n) / algorithm.m


@dataclass(eq=False)
class DirectionSystem:
    """Ordered orthonormal directions, one per row of ``vectors`` (from an
    extraction, the (size, n) slice of its basis), with their provenance."""

    kind: str  # "overflow" | "underflow"
    vectors: np.ndarray
    steps: list[int]
    coords: list[int]
    magnitudes: list[float]
    threshold: float

    @property
    def size(self) -> int:
        return len(self.vectors)

    def gram_residual(self) -> float:
        """max |V V^T - I| over the system's vectors V: blocks of at most
        ``BLOCK_ELEMENTS`` entries of V against panels of ``panel_width(n)``
        vectors, V read in place, so that V V^T is never whole beyond n = 512."""
        k = self.size
        if not k:
            return 0.0
        V = np.asarray(self.vectors, dtype=float)
        n = V.shape[1]
        width, step = panel_width(n), max(1, BLOCK_ELEMENTS // n)
        worst = []
        for col in range(0, k, width):
            panel = V[col : col + width]
            for lo in range(0, k, step):
                gram = V[lo : lo + step] @ panel.T
                diagonal = np.arange(max(lo, col), min(lo + step, col + width, k))
                gram[diagonal - lo, diagonal - col] -= 1.0
                worst.append(np.abs(gram, out=gram).max())
        return float(np.max(worst))

    def check(self, per_step: int = 2) -> None:
        """Raise if the extraction guarantees do not hold.

        ``per_step`` is the most coordinates the scan offered at one step: 2
        for the touched-row scan, n for the unrestricted one.
        """
        if self.gram_residual() > ORTHO_TOL:
            raise RuntimeError(f"direction system not orthonormal within {ORTHO_TOL}")
        for mag in self.magnitudes:
            if mag < self.threshold - MAGNITUDE_SLACK:
                raise RuntimeError(f"magnitude {mag} below threshold {self.threshold}")
        pairs = list(zip(self.steps, self.coords))
        if len(set(pairs)) != len(pairs):
            raise RuntimeError("repeated (step, coordinate) pair in direction system")
        if len(set(self.steps)) < math.ceil(self.size / per_step):
            raise RuntimeError("direction system concentrated on too few steps")


def rounding_bound(n: int, m: int) -> float:
    """zeta: a squared residual of the ledger is within zeta |r|^2 of the exact one
    (see the module docstring)."""
    return 2.0**-53 * (2 * n + m * (14 + 10 * math.sqrt(n)))


class TargetMismatch(ValueError):
    """The final matrix of the gate list is not the Walsh-Hadamard transform."""


def _squared_row_norms(
    algorithm: LinearAlgorithm, require_wht_target: bool
) -> tuple[np.ndarray, np.ndarray]:
    """|row_i(M(t))|^2 and |row_i(M(t)^{-T})|^2 of every touched row, by one
    layered walk of (I, I), in the row order of the layering; each panel of
    the walk's M(m) is checked against the transform.  A panel whose M(m) or
    M(m)^{-T} is not finite, or a squared norm that is not finite, raises
    ``ArithmeticError`` before that panel's target check."""
    n = algorithm.n
    blocks = layer(algorithm)
    squares = np.zeros((2, blocks.rows.size))  # 0.0 + x is x for every x >= 0
    workspace = Workspace()
    # an overflow is reported as an error, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, (A, B) in zip(range(0, n, panel_width(n)), column_panels(n)):
            walk = replay_layers(blocks, A, B, workspace, before=False)
            for block, _, _, a1, b1 in walk:  # a zero row would add 0.0
                squares[0, block.positions] += squared_row_norms(a1)
                squares[1, block.positions] += squared_row_norms(b1)
            # no gate makes an entry that is not finite finite again
            if not (np.isfinite(A).all() and np.isfinite(B).all()):
                raise ArithmeticError("the trajectory overflowed: M(m) or M(m)^{-T} is not finite")
            for side, name in zip(squares, ("M", "M^{-T}")):
                check_finite(side, lambda k: f"the squared norm of row {blocks.rows[k]} of "
                                             f"{name}({blocks.row_units[k] + 1})")
            if require_wht_target and not _matches_wht(A, lo, TARGET_TOL, workspace):
                raise TargetMismatch("final matrix is not the Walsh-Hadamard transform")
    return squares[0], squares[1]


def _matches_wht(A: np.ndarray, lo: int, tol: float, workspace: Workspace) -> bool:
    """Whether the panel A, columns lo.. of an n x n matrix, is within tol of
    the transform's columns everywhere, compared in blocks of at most
    ``BLOCK_ELEMENTS`` entries; a NaN entry is a mismatch."""
    n, k = A.shape
    step = max(1, BLOCK_ELEMENTS // k)
    cols = np.arange(lo, lo + k)
    for r in range(0, n, step):
        rows = A[r : r + step]
        target = workspace.take("target", rows.shape)
        wht_entries(n, np.arange(r, r + len(rows)), cols, out=target)
        np.subtract(rows, target, out=target)
        if not float(np.abs(target, out=target).max()) <= tol:
            return False
    return True


def _residual(w: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, float]:
    """``w`` less its projection onto the rows of ``V``, in place, and its norm:
    Gram-Schmidt twice, the second pass removing what rounding left of the first."""
    w -= V.T @ (V @ w)
    w -= V.T @ (V @ w)
    return w, float(np.linalg.norm(w))


def extract_directions(
    algorithm: LinearAlgorithm,
    tau: float | None = None,
    unrestricted: bool = False,
    require_wht_target: bool = True,
) -> tuple[DirectionSystem, DirectionSystem]:
    """Extract the overflow and underflow systems at threshold tau.

    The scan visits each step's touched coordinates; ``unrestricted`` widens
    it to every coordinate at every step (including step 0).  Selection
    follows the rule of the module docstring.  A final matrix other than the
    Walsh-Hadamard transform (within ``TARGET_TOL``) raises
    ``TargetMismatch`` (a ``ValueError``) unless ``require_wht_target`` is
    False; an overflowed walk raises ``ArithmeticError`` either way.

    The unrestricted scan needs only the rows at step 0 and the touched rows.
    A row that gate t does not touch is, at step t, the row it was at step
    t - 1, so the candidate (t, i) has exactly the factors of (t - 1, i);
    by induction, those of (s, i) for the last step s <= t that touched row
    i, or s = 0.  (s, i) comes first in scan order, so it wins every tie
    and (t, i) never does: dropping it changes nothing.
    """
    n = algorithm.n
    if tau is None:
        tau = math.sqrt(speedup_factor(algorithm) / 2.0)
    if not tau > 0:
        raise ValueError(f"threshold must be positive, got {tau}")
    r2, s2 = _squared_row_norms(algorithm, require_wht_target)

    walk = VectorWalk(algorithm)
    steps, coords = walk.steps, walk.rows
    first = n if unrestricted else 0  # the step-0 rows are unit rows
    if unrestricted:
        steps = np.concatenate((np.zeros(n, dtype=np.int64), steps))
        coords = np.concatenate((np.arange(n), coords))
        r2, s2 = (np.concatenate((np.ones(n), x)) for x in (r2, s2))
    rank = np.empty(steps.size, dtype=np.int64)  # position in (step, coordinate) order
    rank[np.lexsort((coords, steps))] = np.arange(steps.size)
    zeta = rounding_bound(n, algorithm.m)
    rho = 2.0 * math.sqrt(zeta)

    bases, kinds = (np.empty((n, n)), np.empty((n, n))), ("overflow", "underflow")
    systems = tuple(DirectionSystem(k, b[:0], [], [], [], tau) for k, b in zip(kinds, bases))
    squares = (r2, s2)
    residuals = (r2.copy(), s2.copy())
    factors = np.empty((2, steps.size))
    pushed = np.empty(steps.size)
    while systems[0].size + systems[1].size < 2 * n:
        for side in (0, 1):
            factors[side] = 0.0
            np.sqrt(residuals[side], out=factors[side],
                    where=residuals[side] > zeta * squares[side])
        norm_m, norm_q = factors
        qualifies = np.maximum(norm_m, norm_q) >= tau
        if not qualifies.any():
            break
        score = norm_m * norm_q
        (tied,) = np.nonzero(qualifies & (score >= score[qualifies].max() * (1.0 - rho)))
        k = tied[np.argmin(rank[tied])]
        side = 0 if norm_m[k] >= norm_q[k] * (1.0 - rho) else 1
        t, i = int(steps[k]), int(coords[k])

        system = systems[side]
        w, magnitude = _residual(walk.row(t, i, inverse_transpose=side == 1), system.vectors)
        if magnitude < tau - MAGNITUDE_SLACK:
            raise RuntimeError(
                f"{system.kind} candidate ({t}, {i}) rated {factors[side, k]!r} but its row "
                f"gives {magnitude!r} < tau: rounding beyond the ledger's bound"
            )
        v = np.divide(w, magnitude, out=bases[side][system.size])
        system.vectors = bases[side][: system.size + 1]
        system.steps.append(t)
        system.coords.append(i)
        system.magnitudes.append(magnitude)
        if unrestricted:
            pushed[:first] = v
        walk.push(v.copy(), inverse_transpose=side == 1, out=pushed[first:])
        np.subtract(residuals[side], np.square(pushed, out=pushed), out=residuals[side])

    for system in systems:
        system.check(per_step=n if unrestricted else 2)
    return systems


@dataclass(eq=False)
class ExtendedBasis:
    """Underflow directions completed to a full orthonormal basis of R^n.

    For extracted directions the stored z vector is the recoverable component
    gamma_j * u_j; extension slots store the chosen standard basis vector.
    """

    z_vectors: np.ndarray  # (n, n): row j is z_j
    u_vectors: np.ndarray  # (n, n): row j is u_j
    gammas: list[float]
    n_extracted: int


def extend_basis(underflow: DirectionSystem, n: int) -> ExtendedBasis:
    """Complete an underflow system to a basis using standard basis vectors.

    Each extension picks the coordinate axis least explained by the vectors
    so far (ties toward the smallest index).  By pigeonhole, with j vectors in
    place some axis has explained mass at most j/n, so the projected residual
    norm is at least sqrt(1 - j/n).
    """
    n_prime = underflow.size
    if n_prime > n:
        raise ValueError(f"system of size {n_prime} cannot extend to dimension {n}")
    basis = np.empty((n, n))  # row j is u_j
    z_vectors = np.zeros((n, n))
    gammas = list(underflow.magnitudes)
    explained = np.zeros(n)  # each axis's running sum of u_j^2, row after row
    basis[:n_prime] = np.reshape(underflow.vectors, (n_prime, n))
    for u, gamma, z in zip(basis, gammas, z_vectors):  # the extracted rows
        np.multiply(u, gamma, out=z)
        explained += u * u

    for j in range(n_prime, n):
        U = basis[:j]  # no rows at j = 0: nothing projected away
        z = z_vectors[j]
        z[int(np.argmin(explained))] = 1.0
        w, gamma = _residual(z.copy(), U)
        if gamma < 1e-12:
            raise RuntimeError(f"degenerate projection while extending at slot {j}")
        guarantee = math.sqrt(max(1.0 - j / n, 0.0))
        if gamma < guarantee - 1e-9:
            raise RuntimeError(
                f"extension norm {gamma} below pigeonhole guarantee {guarantee} at slot {j}"
            )
        u = np.divide(w, gamma, out=basis[j])
        explained += u * u
        gammas.append(gamma)

    return ExtendedBasis(z_vectors=z_vectors, u_vectors=basis, gammas=gammas, n_extracted=n_prime)


@dataclass
class VolumeBound:
    """Input-uncertainty volume lower bound, in log2 relative to epsilon^n."""

    sum_log2_gamma: float
    closed_form: float
    b: float
    n_prime: int


def uncertainty_volume_log(
    basis: ExtendedBasis, b: float, n_prime: int | None = None
) -> VolumeBound:
    """Both volume lower bounds: the per-direction sum and the closed form.

    The per-direction bound is sum_j log2 gamma_j over the full basis.  The
    closed form replaces extracted magnitudes by sqrt(b/2) and extension ones
    by the pigeonhole guarantee: n' * log2 sqrt(b/2) plus the tail
    sum_{j=n'+1..n} log2 sqrt(1 - (j-1)/n).
    """
    if n_prime is None:
        n_prime = basis.n_extracted
    n = len(basis.gammas)
    if not 0 <= n_prime <= n:
        raise ValueError(f"n_prime {n_prime} out of range [0, {n}]")
    sum_log2_gamma = float(sum(math.log2(g) for g in basis.gammas))
    closed = n_prime * math.log2(math.sqrt(b / 2.0))
    for j in range(n_prime + 1, n + 1):
        closed += math.log2(math.sqrt(1.0 - (j - 1) / n))
    return VolumeBound(
        sum_log2_gamma=sum_log2_gamma, closed_form=closed, b=b, n_prime=n_prime
    )
