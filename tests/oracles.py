"""Independent dense oracles used by the tests.

Everything here is computed from first principles with plain numpy: closed
forms for the reference transforms, dense gate matrices composed with @, and
brute-force potential evaluation.  Nothing reuses the package's incremental
replay paths, so an agreement between the two is a genuine dual-route check.
``spawned_normal_draws`` is the per-sample seeding that ``quantized`` derives
in bulk.  ``assert_lemma_contract`` checks a ``lemma`` report against the
exit-code contract the README documents.
"""

import math

import numpy as np

from gatelab.gates import Constant, Rotation


def wht_sign_matrix(n: int) -> np.ndarray:
    F = np.empty((n, n))
    for k in range(n):
        for l in range(n):
            F[k, l] = -1.0 if bin(k & l).count("1") % 2 else 1.0
    return F / math.sqrt(n)


def dft_embedding_matrix(n: int) -> np.ndarray:
    N = n // 2
    E = np.empty((n, n))
    for k in range(N):
        for l in range(N):
            w = np.exp(-2j * np.pi * k * l / N) / math.sqrt(N)
            E[2 * k, 2 * l] = w.real
            E[2 * k, 2 * l + 1] = -w.imag
            E[2 * k + 1, 2 * l] = w.imag
            E[2 * k + 1, 2 * l + 1] = w.real
    return E


def gate_matrix(gate, n: int) -> np.ndarray:
    G = np.eye(n)
    if isinstance(gate, Rotation):
        c, s = math.cos(gate.theta), math.sin(gate.theta)
        G[gate.i, gate.i] = c
        G[gate.i, gate.j] = s
        G[gate.j, gate.i] = -s
        G[gate.j, gate.j] = c
    elif isinstance(gate, Constant):
        G[gate.i, gate.i] = gate.c
    else:
        raise TypeError(f"unknown gate {gate!r}")
    return G


def compose_dense(algorithm, t: int | None = None) -> np.ndarray:
    if t is None:
        t = algorithm.m
    M = np.eye(algorithm.n)
    for gate in algorithm.gates[:t]:
        M = gate_matrix(gate, algorithm.n) @ M
    return M


def compose_dense_inverse_transpose(algorithm, t: int | None = None) -> np.ndarray:
    """M(t)^{-T} as the product of the dense gates' inverse transposes."""
    if t is None:
        t = algorithm.m
    N = np.eye(algorithm.n)
    for gate in algorithm.gates[:t]:
        N = np.linalg.inv(gate_matrix(gate, algorithm.n)).T @ N
    return N


def potential_brute(A: np.ndarray, B: np.ndarray) -> float:
    total = 0.0
    for a, b in zip(np.ravel(A), np.ravel(B)):
        p = a * b
        if p != 0.0:
            total -= p * math.log2(abs(p))
    return total


def spawned_normal_draws(seed: int, lo: int, hi: int, sigma: float, n: int) -> np.ndarray:
    """Inputs of samples lo..hi-1 as columns: one spawned child and generator each."""
    children = np.random.SeedSequence(seed).spawn(hi)[lo:hi]
    X = np.empty((n, len(children)))
    for col, child in enumerate(children):
        X[:, col] = np.random.default_rng(child).normal(0.0, sigma, n)
    return X


def assert_lemma_contract(code: int, payload: dict) -> None:
    """Check a ``gatelab lemma`` run against its documented contract.

    The contract holds at every seed: the sharp unit-pair and
    orthogonal-change constants, the two-endpoint nonsingular bound and the
    Fourier projection bound are never violated, and the exit code is 2
    exactly when the report holds a nominal violation.  Whether a small sweep
    finds one of the false nominal two-row constants depends on the seed.
    """
    unit, orth = payload["unit_pair_bound"], payload["orthogonal_change_bound"]
    assert unit["corrected_violations"] == 0
    assert orth["corrected_violations"] == 0
    assert payload["nonsingular_change_bound"]["violations"] == 0
    assert all(r["violations"] == 0 for r in payload["fourier_projection_bound"])
    nominal = unit["violations"] + orth["violations"]
    assert code == (2 if nominal else 0), f"exit {code} with {nominal} nominal violations"
