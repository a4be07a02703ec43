"""Greedy extraction of orthonormal overflow/underflow direction systems.

The extraction walks the trajectory looking for touched rows that stay large
after projecting away everything already extracted.  Maintaining projections
P (orthogonal complement of the overflow directions) and Q (of the underflow
directions), each round scans candidate pairs (step t, coordinate i) and
rates them by the product

    |row_i(M(t)) P| * |row_i(M(t)^{-T}) Q|.

A candidate qualifies only if at least one of its two factors reaches the
threshold tau; the round extends the side with the larger factor, recording
the step, coordinate, and the factor as the direction's magnitude.  The loop
stops when no candidate qualifies, at which point both factors of every pair
are below tau, so in particular every product is below tau squared.

Because an extracted direction is the projected row itself (normalized), the
same (t, i) pair can never re-qualify on the same side: its projected row is
annihilated by the update P <- P - v v^T.  Each step contributes at most two
coordinates, so a system of size k spans at least k/2 distinct steps; the
unrestricted scan offers all n coordinates at every step, so there it spans
at least k/n.

The default threshold is sqrt(b/2) for speedup factor b = n*log2(n)/m.

Each round walks the trajectory layer by layer (``gates.replay_layers``).
Right after a block is applied, its rows are exactly the candidates (t, i)
of the block's gates, so one batch of row norms rates them all.  Blocks come
in layer order, not step order, so the winner is kept by the rule the
sequential scan's strict ``>`` implements: the largest score wins, and among
exactly equal scores the smallest (t, i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .builders import wht_matrix
from .gates import Block, LinearAlgorithm, layer, matrices_at, replay_layers, start_pair
from .potential import row_norms


def speedup_factor(algorithm: LinearAlgorithm) -> float:
    """Gate-count speedup b = n*log2(n) / m."""
    if algorithm.m == 0:
        raise ValueError("speedup factor undefined for an empty gate list")
    return algorithm.n * math.log2(algorithm.n) / algorithm.m


@dataclass
class DirectionSystem:
    """Ordered orthonormal directions with their extraction provenance."""

    kind: str  # "overflow" | "underflow"
    vectors: list[np.ndarray]
    steps: list[int]
    coords: list[int]
    magnitudes: list[float]
    threshold: float

    @property
    def size(self) -> int:
        return len(self.vectors)

    def gram_residual(self) -> float:
        if not self.vectors:
            return 0.0
        V = np.array(self.vectors)
        return float(np.abs(V @ V.T - np.eye(self.size)).max())

    def check(self, ortho_tol: float = 1e-8, per_step: int = 2) -> None:
        """Raise if the extraction guarantees do not hold.

        ``per_step`` is the most coordinates the scan offered at one step: 2
        for the touched-row scan, n for the unrestricted one.
        """
        if self.gram_residual() > ortho_tol:
            raise RuntimeError(f"direction system not orthonormal within {ortho_tol}")
        for mag in self.magnitudes:
            if mag < self.threshold - 1e-12:
                raise RuntimeError(f"magnitude {mag} below threshold {self.threshold}")
        pairs = list(zip(self.steps, self.coords))
        if len(set(pairs)) != len(pairs):
            raise RuntimeError("repeated (step, coordinate) pair in direction system")
        if len(set(self.steps)) < math.ceil(self.size / per_step):
            raise RuntimeError("direction system concentrated on too few steps")


def _orthogonalize(w: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    # Deflation already leaves w orthogonal to the basis up to float noise;
    # re-orthogonalize explicitly only when the residual is visible.
    if basis:
        V = np.array(basis)
        dots = V @ w
        if np.abs(dots).max() > 1e-10 * max(np.linalg.norm(w), 1e-30):
            w = w - V.T @ dots
            w = w - V.T @ (V @ w)
    return w


def extract_directions(
    algorithm: LinearAlgorithm,
    tau: float | None = None,
    unrestricted: bool = False,
    require_wht_target: bool = True,
    target_tol: float = 1e-8,
) -> tuple[DirectionSystem, DirectionSystem]:
    """Extract the overflow and underflow systems at threshold tau.

    The scan visits each step's touched coordinates; ``unrestricted`` widens
    it to every coordinate at every step (including step 0).  Ties are broken
    toward the smallest step, then the smallest coordinate, and toward the
    overflow side when both factors are equal.

    The unrestricted scan needs only the rows at step 0 and the touched rows.
    A row that gate t does not touch is, at step t, bit for bit the row it
    was at step t - 1, so the candidate (t, i) has exactly the factors of
    (t - 1, i); by induction, those of (s, i) for the last step s <= t that
    touched row i, or s = 0.  (s, i) comes first in scan order, so under the
    strict first maximum (t, i) never wins, and dropping it changes nothing.
    """
    n = algorithm.n
    if require_wht_target:
        M_final, _ = matrices_at(algorithm, algorithm.m)
        if float(np.abs(M_final - wht_matrix(n)).max()) > target_tol:
            raise ValueError(
                "final matrix is not the Walsh-Hadamard transform; "
                "pass require_wht_target=False to extract anyway"
            )
    if tau is None:
        tau = math.sqrt(speedup_factor(algorithm) / 2.0)
    if tau <= 0:
        raise ValueError(f"threshold must be positive, got {tau}")

    blocks = list(layer(algorithm).blocks)  # made once, walked in every round
    P = np.eye(n)
    Q = np.eye(n)
    over = DirectionSystem("overflow", [], [], [], [], tau)
    under = DirectionSystem("underflow", [], [], [], [], tau)

    for _ in range(2 * n):
        best = _best_candidate(algorithm, blocks, P, Q, tau, unrestricted)
        if best is None:
            break
        _, t, i, norm_m, norm_q, row_m, row_q = best
        if norm_m >= norm_q:
            system, projection, row, magnitude = over, P, row_m, norm_m
        else:
            system, projection, row, magnitude = under, Q, row_q, norm_q
        w = _orthogonalize(row, system.vectors)
        v = w / np.linalg.norm(w)
        system.vectors.append(v)
        system.steps.append(t)
        system.coords.append(i)
        system.magnitudes.append(magnitude)
        projection -= np.outer(v, v)
        projection[:] = (projection + projection.T) / 2.0

    per_step = n if unrestricted else 2
    over.check(per_step=per_step)
    under.check(per_step=per_step)
    return over, under


def _best_candidate(
    algorithm: LinearAlgorithm,
    blocks: list[Block],
    P: np.ndarray,
    Q: np.ndarray,
    tau: float,
    unrestricted: bool,
):
    """Scan one pass for the qualifying pair with the largest factor product.

    Returns ``(score, t, i, |row_i(M(t)) P|, |row_i(M(t)^{-T}) Q|, row, row)``
    of the winner, or None when no candidate qualifies.
    """
    best = None

    def rate(steps: np.ndarray, coords: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
        nonlocal best
        norm_m, norm_q = row_norms(a), row_norms(b)
        score = norm_m * norm_q
        qualifies = np.maximum(norm_m, norm_q) >= tau
        if not qualifies.any():
            return
        top = score[qualifies].max()
        if best is not None and top < best[0]:
            return
        (tied,) = np.nonzero(qualifies & (score == top))
        k = tied[np.lexsort((coords[tied], steps[tied]))[0]]
        t, i = int(steps[k]), int(coords[k])
        if best is None or top > best[0] or (t, i) < best[1:3]:
            best = (float(top), t, i, float(norm_m[k]), float(norm_q[k]), a[k].copy(), b[k].copy())

    A, B = start_pair(algorithm.n, P, Q)
    if unrestricted:
        rate(np.zeros(algorithm.n, dtype=np.int64), np.arange(algorithm.n), A, B)
    for block, _, _, a1, b1 in replay_layers(blocks, A, B):
        rate(block.row_units + 1, block.rows, a1, b1)  # gate g is step g + 1
    return best


@dataclass
class ExtendedBasis:
    """Underflow directions completed to a full orthonormal basis of R^n.

    For extracted directions the stored z vector is the recoverable component
    gamma_j * u_j; extension slots store the chosen standard basis vector.
    """

    z_vectors: list[np.ndarray]
    u_vectors: list[np.ndarray]
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
    u_vectors = [np.asarray(u, dtype=float).copy() for u in underflow.vectors]
    gammas = list(underflow.magnitudes)
    z_vectors = [g * u for g, u in zip(gammas, u_vectors)]

    for j in range(n_prime, n):
        if u_vectors:
            U = np.array(u_vectors)
            explained = (U**2).sum(axis=0)
        else:
            explained = np.zeros(n)
        i0 = int(np.argmin(explained))
        z = np.zeros(n)
        z[i0] = 1.0
        w = z.copy()
        if u_vectors:
            U = np.array(u_vectors)
            w = w - U.T @ (U @ w)
            w = w - U.T @ (U @ w)
        gamma = float(np.linalg.norm(w))
        if gamma < 1e-12:
            raise RuntimeError(f"degenerate projection while extending at slot {j}")
        guarantee = math.sqrt(max(1.0 - j / n, 0.0))
        if gamma < guarantee - 1e-9:
            raise RuntimeError(
                f"extension norm {gamma} below pigeonhole guarantee {guarantee} at slot {j}"
            )
        z_vectors.append(z)
        u_vectors.append(w / gamma)
        gammas.append(gamma)

    return ExtendedBasis(
        z_vectors=z_vectors, u_vectors=u_vectors, gammas=gammas, n_extracted=n_prime
    )


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
