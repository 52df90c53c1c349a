"""Shared fixtures: benchmark problems, cached references, random families."""

import numpy as np
import pytest

from mslcp import (GridLcpSpec, Partition, SparseMatrix, build_block_splitting,
                   make_grid_lcp, reference_solve)

ACCEPTANCE_LINES = []


def record_acceptance_line(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_sparse_hplus(rng, n, density=0.4, dominance=1.3, z_pattern=False):
    """Random strictly diagonally dominant matrix with positive diagonal.

    Strict diagonal dominance with positive diagonal certifies H+ (the ones
    vector witnesses the Jacobi matrix contraction).  With ``z_pattern`` the
    off-diagonals are nonpositive, which additionally makes it an M-matrix.
    """
    a = np.zeros((n, n))
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    vals = rng.uniform(0.1, 1.0, size=(n, n))
    if not z_pattern:
        vals *= rng.choice([-1.0, 1.0], size=(n, n))
    a[mask] = -np.abs(vals[mask]) if z_pattern else vals[mask]
    row_abs = np.abs(a).sum(axis=1)
    diag = dominance * np.maximum(row_abs, 0.5)
    np.fill_diagonal(a, diag)
    return SparseMatrix.from_dense(a)


def random_m_matrix(rng, n, density=0.4, dominance=1.3):
    return random_sparse_hplus(rng, n, density=density, dominance=dominance,
                               z_pattern=True)


def reducible_m_matrices():
    """Random M-matrices, many reducible, each with a right-hand side that
    is zero in about half its entries."""
    rng = np.random.default_rng(1)
    for _ in range(150):
        n = int(rng.integers(2, 40))
        m = random_m_matrix(rng, n, density=float(rng.uniform(0.02, 0.5)))
        yield m, rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.5)


def weighted_max_norm(v, w) -> float:
    """max_j |v_j| / w_j for a strictly positive weight vector w: the norm in
    which the asynchronous iteration contracts (test oracle)."""
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if np.any(w <= 0.0):
        raise ValueError("weights must be strictly positive")
    return float(np.max(np.abs(v) / w, initial=0.0))


def dense_jacobi_matrix(a: SparseMatrix) -> np.ndarray:
    """|D|^-1 |B| of the comparison matrix, densely (test oracle)."""
    ad = a.to_dense()
    d = np.abs(np.diag(ad))
    b = np.abs(ad - np.diag(np.diag(ad)))
    return b / d[:, None]


def dense_contraction_matrix(m: SparseMatrix, n_mat: SparseMatrix) -> np.ndarray:
    """inv(<M>) |N| densely (test oracle)."""
    md = m.to_dense()
    comp = -np.abs(md)
    np.fill_diagonal(comp, np.abs(np.diag(md)))
    return np.linalg.solve(comp, np.abs(n_mat.to_dense()))


@pytest.fixture(scope="session")
def grid_problem():
    cache = {}

    def get(p, shift=0.0):
        key = (p, shift)
        if key not in cache:
            cache[key] = make_grid_lcp(GridLcpSpec(p=p, shift=shift))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def grid_reference(grid_problem):
    cache = {}

    def get(p, tol=1e-12):
        key = (p, tol)
        if key not in cache:
            cache[key] = reference_solve(grid_problem(p), tol=tol)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def grid_multisplitting(grid_problem):
    cache = {}

    def get(p, m, variant="jacobi"):
        key = (p, m, variant)
        if key not in cache:
            prob = grid_problem(p)
            part = Partition.contiguous(prob.n, m)
            cache[key] = build_block_splitting(prob.A, part, variant)
        return cache[key]

    return get
