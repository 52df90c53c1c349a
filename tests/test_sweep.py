"""The level-scheduled sweep kernel against the sequential row loop it replaced.

``sequential_sweep`` is the row loop that forward substitution, the
projected forward sweep, Gauss-Seidel and projected Gauss-Seidel each used
to run in Python.  The kernel reorders the rows by level but keeps every
row's arithmetic, so the two must agree bit for bit, signed zeros included.
"""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

from mslcp import (GridLcpSpec, Partition, SparseMatrix, build_block_splitting,
                   make_grid_lcp, solve_sub_lcp)
from mslcp.sparse import (_block_diagonal, _sweep_schedule, gauss_seidel_sweep,
                          solve_lower_triangular)
from mslcp.sublcp import projected_gauss_seidel


def sequential_sweep(a, f, x_old=None, project=False):
    """Reference: rows in order, each subtracting its off-diagonal products
    in ascending column order; lower entries read this sweep's values,
    upper entries the previous iterate (zero when there is none)."""
    offs = a.row_offsets.tolist()
    cols = a.col_indices.tolist()
    vals = a.values.tolist()
    diag = a.diagonal()
    x = np.zeros(a.n_rows) if x_old is None else np.array(x_old, dtype=np.float64)
    for j in range(a.n_rows):
        s = f[j]
        for t in range(offs[j], offs[j + 1]):
            c = cols[t]
            if c != j:
                s -= vals[t] * x[c]
        new = s / diag[j]
        if project and new < 0.0:
            new = 0.0
        x[j] = new
    return x


def random_matrix(rng, n, density, lower):
    """Random sparse matrix with a positive diagonal and mixed-sign,
    mixed-magnitude off-diagonal entries."""
    d = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 3, (n, n))
    d *= rng.random((n, n)) < density
    if lower:
        d = np.tril(d)
    np.fill_diagonal(d, rng.uniform(0.5, 4.0, n))
    return SparseMatrix.from_dense(d)


def random_forcing(rng, n):
    f = rng.standard_normal(n)
    # signed zeros: a row with no nonzero products must keep f_j's sign
    f[rng.random(n) < 0.2] = -0.0
    f[rng.random(n) < 0.1] = 0.0
    return f


def block_lower_factors(p):
    """The four block-lower factors of the p x p grid, and their stack, the
    matrix that the synchronous solve sweeps."""
    prob = make_grid_lcp(GridLcpSpec(p=p))
    ms = build_block_splitting(prob.A, Partition.contiguous(prob.n, 4),
                               "block_lower_triangular")
    factors = [s.M for s in ms.splittings]
    return factors + [_block_diagonal(factors)]


CASES = [(n, density) for n in (1, 2, 7, 30, 90) for density in (0.05, 0.3, 0.8)]


@pytest.mark.parametrize("project", [False, True])
@pytest.mark.parametrize("n,density", CASES)
def test_lower_triangular_matches_row_loop(n, density, project):
    rng = np.random.default_rng([n, int(density * 100), project])
    for _ in range(3):
        a = random_matrix(rng, n, density, lower=True)
        f = random_forcing(rng, n)
        expected = sequential_sweep(a, f, project=project)
        assert gauss_seidel_sweep(a, f, project=project).tobytes() \
            == expected.tobytes()


@pytest.mark.parametrize("project", [False, True])
@pytest.mark.parametrize("n,density", CASES)
def test_general_with_previous_iterate_matches_row_loop(n, density, project):
    rng = np.random.default_rng([n, int(density * 100), project, 1])
    for _ in range(3):
        a = random_matrix(rng, n, density, lower=False)
        f = random_forcing(rng, n)
        x_old = rng.standard_normal(n)
        x_old[rng.random(n) < 0.2] = -0.0
        expected = sequential_sweep(a, f, x_old, project=project)
        assert gauss_seidel_sweep(a, f, x_old, project=project).tobytes() \
            == expected.tobytes()


@pytest.mark.parametrize("lower", [True, False])
@pytest.mark.parametrize("n,density", CASES)
def test_levels_read_only_earlier_levels_or_previous_iterate(n, density, lower):
    rng = np.random.default_rng([n, int(density * 100), lower, 2])
    a = random_matrix(rng, n, density, lower=lower)
    levels, perm, has_upper = _sweep_schedule(a)
    assert sorted(perm.tolist()) == list(range(n))
    start, off_diagonal = 0, a.entry_rows() != a.col_indices
    for s, e, entries, diag in levels:
        assert s == start < e
        assert len(diag) == e - s
        held = int(np.count_nonzero(
            off_diagonal & np.isin(a.entry_rows(), perm[s:e])))
        # a level whose rows hold no off-diagonal entry makes no kernel call
        assert (entries is None) == (held == 0)
        if entries is not None:
            offs, slots, negvals = entries
            assert offs[0] == 0 and offs[-1] == len(slots) == len(negvals) \
                == held
            # slots in [s, n) would read this level's own range or a later one
            assert np.all((slots < s) | ((slots >= n) & (slots < 2 * n)))
            if lower:
                assert np.all(slots < s)
        start = e
    assert start == n and has_upper == (not lower and bool(
        np.any(a.col_indices > a.entry_rows())))


@pytest.mark.parametrize("project", [False, True])
@pytest.mark.parametrize("lower", [True, False])
def test_nonfinite_inputs_match_row_loop(lower, project):
    rng = np.random.default_rng([lower, project, 3])
    for n, density in CASES:
        a = random_matrix(rng, n, density, lower=lower)
        f = random_forcing(rng, n)
        f[rng.random(n) < 0.03] = np.inf
        f[rng.random(n) < 0.03] = -np.inf
        f[rng.random(n) < 0.03] = np.nan
        x_old = None
        if not lower:
            x_old = rng.standard_normal(n)
            x_old[rng.random(n) < 0.03] = np.inf
            x_old[rng.random(n) < 0.03] = np.nan
        with np.errstate(all="ignore"):
            got = gauss_seidel_sweep(a, f, x_old, project=project)
            expected = sequential_sweep(a, f, x_old, project=project)
        assert np.array_equal(np.isfinite(got), np.isfinite(expected))
        finite = np.isfinite(expected)
        assert got[finite].tobytes() == expected[finite].tobytes()


def test_threads_building_one_schedule_get_the_same_bits():
    # every thread's first sweep finds the schedule cache empty; a short
    # switch interval interleaves the schedule builds
    rng = np.random.default_rng(29)
    threads = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            a = random_matrix(rng, 90, 0.3, lower=False)
            f = random_forcing(rng, 90)
            x_old = rng.standard_normal(90)
            barrier = threading.Barrier(threads)
            results = [None] * threads

            def sweep(i):
                barrier.wait(timeout=30)
                results[i] = gauss_seidel_sweep(a, f, x_old, project=True)

            workers = [threading.Thread(target=sweep, args=(i,))
                       for i in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
                assert not w.is_alive()
            expected = sequential_sweep(a, f, x_old, project=True).tobytes()
            assert all(y is not None and y.tobytes() == expected
                       for y in results)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("lower", [False, True], ids=["previous", "forward"])
def test_threads_sweeping_one_matrix_at_once_get_the_row_loop_bits(lower):
    # each thread sweeps its own f (and previous iterate) many times while
    # the others sweep the same matrix; a work vector shared between the
    # threads would mix their levels
    rng = np.random.default_rng(37)
    threads, rounds, n = 4, 200, 90
    a = random_matrix(rng, n, 0.3, lower=lower)
    inputs = [(random_forcing(rng, n), None if lower
               else rng.standard_normal(n)) for _ in range(threads)]
    expected = [sequential_sweep(a, f, x_old, project=True).tobytes()
                for f, x_old in inputs]
    barrier = threading.Barrier(threads)
    mismatches = [None] * threads
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def sweep(i):
        f, x_old = inputs[i]
        barrier.wait(timeout=30)
        mismatches[i] = sum(
            gauss_seidel_sweep(a, f, x_old, project=True).tobytes()
            != expected[i] for _ in range(rounds))

    try:
        workers = [threading.Thread(target=sweep, args=(i,))
                   for i in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
            assert not w.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert mismatches == [0] * threads


def test_later_sweeps_leave_an_earlier_result_unchanged():
    rng = np.random.default_rng(41)
    for lower in (True, False):
        a = random_matrix(rng, 30, 0.3, lower=lower)
        f = random_forcing(rng, 30)
        x_old = None if lower else rng.standard_normal(30)
        y = gauss_seidel_sweep(a, f, x_old, project=True)
        kept = y.copy()
        for _ in range(3):
            other = gauss_seidel_sweep(a, random_forcing(rng, 30),
                                       None if lower
                                       else rng.standard_normal(30))
            assert other is not y
        assert y.tobytes() == kept.tobytes()


def test_swept_matrix_pickles_and_copies_without_its_workspaces():
    rng = np.random.default_rng(43)
    a = random_matrix(rng, 30, 0.3, lower=False)
    f, x_old = random_forcing(rng, 30), rng.standard_normal(30)
    y = gauss_seidel_sweep(a, f, x_old, project=True)
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert b == a
        assert gauss_seidel_sweep(b, f, x_old, project=True).tobytes() \
            == y.tobytes()

def test_repeated_sweeps_on_grid_match_row_loop(grid_problem):
    a = grid_problem(6).A
    rng = np.random.default_rng(5)
    f = rng.standard_normal(a.n_rows)
    x = y = np.zeros(a.n_rows)
    for _ in range(10):
        x = gauss_seidel_sweep(a, f, x, project=True)
        y = sequential_sweep(a, f, y, project=True)
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("p", [4, 8, 16])
def test_block_lower_factors_match_row_loop(p):
    rng = np.random.default_rng(p)
    for m in block_lower_factors(p):
        f = random_forcing(rng, m.n_rows)
        for project in (False, True):
            assert gauss_seidel_sweep(m, f, project=project).tobytes() \
                == sequential_sweep(m, f, project=project).tobytes()


def test_public_callers_match_row_loop():
    rng = np.random.default_rng(23)
    low = random_matrix(rng, 40, 0.2, lower=True)
    low = low.same_pattern(np.where(low.entry_rows() == low.col_indices,
                                    low.values, -np.abs(low.values)))
    f = random_forcing(rng, 40)
    assert solve_lower_triangular(low, f).tobytes() \
        == sequential_sweep(low, f).tobytes()
    assert solve_sub_lcp(low, "lower_triangular", f).tobytes() \
        == sequential_sweep(low, f, project=True).tobytes()


def test_diagonal_sweep_is_the_clamp():
    # the one level of a diagonal factor makes no kernel call: divide and
    # project give max(0, f / d) bit for bit, and the contraction operator
    # of a diagonal <M> gives f / d
    rng = np.random.default_rng(31)
    d = rng.uniform(0.5, 4.0, 1600)
    f = rng.choice([-0.0, 0.0, -1.0, 5e-324, 1.5, -2.5], 1600)
    diag = SparseMatrix.from_dense(np.diag(d))
    levels, _, _ = _sweep_schedule(diag)
    assert [entries for _, _, entries, _ in levels] == [None]
    assert solve_sub_lcp(diag, "diagonal", f).tobytes() \
        == np.maximum(0.0, f / d).tobytes()
    assert solve_lower_triangular(diag, f).tobytes() == (f / d).tobytes()


def test_empty_matrix():
    empty = SparseMatrix(0, 0, np.zeros(1, dtype=np.int64),
                         np.zeros(0, dtype=np.int64), np.zeros(0))
    no_rows = np.zeros(0)
    assert gauss_seidel_sweep(empty, no_rows).shape == (0,)
    assert solve_lower_triangular(empty, no_rows).shape == (0,)
    assert solve_sub_lcp(empty, "lower_triangular", no_rows).shape == (0,)
    x, sweeps, change = projected_gauss_seidel(empty, no_rows)
    assert x.shape == (0,) and sweeps == 1 and change == 0.0

