"""Canonical CSR sparse matrices and the entrywise primitives built on them.

Matrices are stored in canonical compressed-sparse-row form: row offsets are
nondecreasing, column indices are strictly increasing inside every row, and
no explicitly stored zero values are admitted.  Canonical form makes
entrywise comparisons between matrices a merged-pattern traversal and pins a
deterministic (ascending-column) summation order for matrix-vector products.

``spmv`` calls scipy's compiled CSR kernel ``csr_matvec`` from the private
module ``scipy.sparse._sparsetools`` on the stored arrays, the kernel that
``csr_array @ x`` ends in, so the inner loops pay for the product and not
for the operator's dispatch.  ``spmv_unchecked`` is the same call without
the check of x, for the solvers' inner loop, which checks its own iterates.

``all_finite`` tests finiteness with one ``np.vdot`` per chunk of at most
8192 entries that no finite array can overflow, so a diverging solve's
entries, huge or not finite, raise no warning and BLAS runs each product on
the calling thread.

``gauss_seidel_sweep`` is the one sweep kernel behind forward substitution
and every Gauss-Seidel sweep.  Its rows run in level order, one in-place
``csr_matvec`` call per level with off-diagonal entries, and each row is
bit-identical to a sequential row loop as long as that kernel sums in
stored order without fused multiply-adds, as ``spmv`` assumes too.  A
projected level is one in-place ``np.maximum(0.0, seg, out=seg)``, which
relies on the tie rule that ``maximum`` returns its second argument unless
the first is greater or a NaN, so -0.0 and NaN stay as in the row loop;
``tests/test_sweep.py`` pins that rule against the row loop.  Each thread
sweeps in its own work vector, held on the matrix in a ``threading.local``
with every level's view of it and kernel arguments bound once, so a level
costs its three kernel calls and the vector dies with its thread.

All values are immutable after construction, and the caches a matrix keeps
hold no state that one thread's call leaves for another's; instances are
safe to share between threads.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
from scipy.sparse._sparsetools import csr_matvec

from .errors import NonFiniteError


# 2^-60 keeps the dot product of any finite array below the largest double
# for fewer than 2^60 entries, whatever the order of its additions
_PROBE_ENTRY = 2.0 ** -60
# OpenBLAS's ddot runs threaded above 10 000 entries, and then waits for a
# second core; a longer array is tested in chunks of this many
_FINITE_CHUNK = 8192


@functools.lru_cache(maxsize=16)
def _finite_probe(size: int) -> np.ndarray:
    probe = np.full(size, _PROBE_ENTRY)
    probe.setflags(write=False)
    return probe


def all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of the float64 array ``arr`` is finite.

    One dot product with a vector of 2^-60 entries decides, per chunk of at
    most ``_FINITE_CHUNK`` entries, so BLAS runs it on this thread: no
    finite array can overflow it, and an inf or nan entry makes it inf or
    nan.  The product is ``np.vdot``, which reads no floating-point flag, so
    entries of both infinite signs (inf - inf) raise no invalid warning, as
    ``dot`` does, and huge finite ones raise no overflow warning.  Should a
    numpy build raise one anyway, under ``np.errstate`` or a warnings filter
    that makes it an error, the entrywise test decides instead.
    """
    flat = arr.ravel()
    try:
        if flat.size <= _FINITE_CHUNK:
            return math.isfinite(np.vdot(_finite_probe(flat.size), flat))
        probe = _finite_probe(_FINITE_CHUNK)
        for start in range(0, flat.size, _FINITE_CHUNK):
            chunk = flat[start:start + _FINITE_CHUNK]
            if not math.isfinite(np.vdot(probe[:chunk.size], chunk)):
                return False
        return True
    except (FloatingPointError, RuntimeWarning):
        return bool(np.isfinite(arr).all())


def require_finite(name: str, arr: np.ndarray) -> None:
    """Reject NaN/Inf at public operation boundaries (``all_finite``)."""
    if not all_finite(arr):
        raise NonFiniteError(f"{name} contains non-finite entries")


def as_count(name: str, value) -> int:
    """``value`` as a plain int; a bool or a non-integer is rejected."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_vector(x, n: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-d float64 array, optionally checking its length."""
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    require_finite(name, v)
    if n is not None and v.shape[0] != n:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {n}")
    return v


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Immutable CSR matrix over float64.

    Attributes
    ----------
    n_rows, n_cols : int
        Matrix shape.
    row_offsets : (n_rows+1,) int64 array
        Nondecreasing; ``row_offsets[-1] == len(values)``.
    col_indices : int64 array
        Strictly increasing within each row, all ``< n_cols``.
    values : float64 array
        Finite and nonzero (canonical form stores no explicit zeros).
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    _caches: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        offs = np.ascontiguousarray(self.row_offsets, dtype=np.int64)
        cols = np.ascontiguousarray(self.col_indices, dtype=np.int64)
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        for name in ("n_rows", "n_cols"):
            object.__setattr__(self, name, as_count(name, getattr(self, name)))
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if offs.shape != (self.n_rows + 1,):
            raise ValueError("row_offsets must have length n_rows + 1")
        if offs[0] != 0 or np.any(np.diff(offs) < 0) or offs[-1] != len(vals):
            raise ValueError("row_offsets must be nondecreasing from 0 to len(values)")
        if cols.shape != vals.shape:
            raise ValueError("col_indices and values must have equal length")
        if len(cols) and (cols.min() < 0 or cols.max() >= self.n_cols):
            raise ValueError("column index out of range")
        # strictly increasing inside each row: the only allowed decreases in the
        # concatenated index stream are at row boundaries
        if len(cols) > 1:
            nondecr = np.diff(cols) > 0
            row_starts = offs[1:-1]
            interior = np.ones(len(cols) - 1, dtype=bool)
            interior[row_starts[(row_starts > 0) & (row_starts < len(cols))] - 1] = False
            if not np.all(nondecr | ~interior):
                raise ValueError("column indices must be strictly increasing within each row")
        require_finite("values", vals)
        if np.any(vals == 0.0):
            raise ValueError("canonical form admits no explicitly stored zeros")
        for a in (offs, cols, vals):
            a.setflags(write=False)
        object.__setattr__(self, "row_offsets", offs)
        object.__setattr__(self, "col_indices", cols)
        object.__setattr__(self, "values", vals)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_dense(a) -> "SparseMatrix":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("dense input must be two-dimensional")
        require_finite("matrix", a)
        return SparseMatrix.from_scipy(scipy.sparse.csr_array(a))

    # -- basic queries -----------------------------------------------------

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def to_dense(self) -> np.ndarray:
        return self.to_scipy().toarray()

    def to_scipy(self):
        """Zero-copy view as a scipy CSR array (for entrywise arithmetic glue)."""
        return scipy.sparse.csr_array(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.n_rows, self.n_cols),
        )

    @staticmethod
    def from_scipy(a) -> "SparseMatrix":
        a = a.tocsr().copy()
        a.sum_duplicates()
        a.sort_indices()
        a.eliminate_zeros()
        return SparseMatrix(a.shape[0], a.shape[1], a.indptr, a.indices, a.data)

    def diagonal(self) -> np.ndarray:
        """Main-diagonal entries as a dense vector (0 where structurally absent)."""
        cached = self._caches.get("diag")
        if cached is None:
            if not self.is_square:
                raise ValueError("diagonal requires a square matrix")
            cached = self.to_scipy().diagonal()
            cached.setflags(write=False)
            self._caches["diag"] = cached
        return cached

    def entry_rows(self) -> np.ndarray:
        """Row index of every stored entry (cached)."""
        cached = self._caches.get("entry_rows")
        if cached is None:
            cached = np.repeat(np.arange(self.n_rows), np.diff(self.row_offsets))
            cached.setflags(write=False)
            self._caches["entry_rows"] = cached
        return cached

    def same_pattern(self, values: np.ndarray) -> "SparseMatrix":
        """New matrix with this sparsity pattern and the given entry values."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.values.shape:
            raise ValueError("replacement values must match the stored pattern")
        keep = values != 0.0
        if np.all(keep):
            return SparseMatrix(self.n_rows, self.n_cols, self.row_offsets,
                                self.col_indices, values)
        offsets = np.zeros(self.n_rows + 1, dtype=np.int64)
        rows = self.entry_rows()[keep]
        np.add.at(offsets, rows + 1, 1)
        return SparseMatrix(self.n_rows, self.n_cols, np.cumsum(offsets),
                            self.col_indices[keep], values[keep])

    def __eq__(self, other) -> bool:
        """Entry equality, which canonical form makes matrix equality."""
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.col_indices, other.col_indices)
            and np.array_equal(self.values, other.values)
        )


def spmv(a: SparseMatrix, x) -> np.ndarray:
    """Matrix-vector product ``a @ x`` by scipy's compiled ``csr_matvec``.

    This is the kernel that scipy's ``csr_array @ x`` ends in, called on the
    stored arrays without the operator's dispatch.  It adds each row's
    products into a zeroed output one after another in stored
    (ascending-column) order, so each entry is bit-identical to a sequential
    row loop.  ``x`` is checked and coerced by ``as_vector``.
    """
    return spmv_unchecked(a, as_vector(x, a.n_cols, name="x"))


def spmv_unchecked(a: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """``spmv`` without the check of ``x``, for an inner loop whose vectors
    are its own results.  ``x`` must be a contiguous float64 array of length
    ``a.n_cols``: the kernel checks no bounds (canonical form keeps every
    index inside the shape)."""
    out = np.zeros(a.n_rows)
    csr_matvec(a.n_rows, a.n_cols, a.row_offsets, a.col_indices, a.values,
               x, out)
    return out


def comparison_matrix(a: SparseMatrix) -> SparseMatrix:
    """Comparison matrix: absolute values on the diagonal, negated absolute
    values off it.  Pattern is unchanged."""
    if not a.is_square:
        raise ValueError("comparison matrix requires a square matrix")
    on_diag = a.entry_rows() == a.col_indices
    vals = np.where(on_diag, np.abs(a.values), -np.abs(a.values))
    return a.same_pattern(vals)


def abs_matrix(a: SparseMatrix) -> SparseMatrix:
    """Entrywise absolute value, same pattern."""
    return a.same_pattern(np.abs(a.values))


def _block_diagonal(mats: list) -> SparseMatrix:
    """blockdiag of the square ``mats``: their CSR arrays concatenated, each
    member's row offsets shifted by the entries before it and its columns by
    the rows before it, its values as they are."""
    offsets, cols, n, nnz = [np.zeros(1, dtype=np.int64)], [], 0, 0
    for a in mats:
        offsets.append(a.row_offsets[1:] + nnz)
        cols.append(a.col_indices + n)
        n, nnz = n + a.n_rows, nnz + a.nnz
    return SparseMatrix(n, n, np.concatenate(offsets), np.concatenate(cols),
                        np.concatenate([a.values for a in mats]))


def _leading_block(a: SparseMatrix, n: int) -> SparseMatrix:
    """The leading n x n block of ``a``, whose first n rows must read only
    its first n columns, as a ``_block_diagonal`` cut between two members
    does: views of a's arrays, with a's diagonal and entry rows cut to
    match, so the block allocates no array of its own until it is swept."""
    nnz = int(a.row_offsets[n])
    lead = SparseMatrix(n, n, a.row_offsets[:n + 1], a.col_indices[:nnz],
                        a.values[:nnz])
    lead._caches.update(diag=a.diagonal()[:n],
                        entry_rows=a.entry_rows()[:nnz])
    return lead


def _sweep_schedule(a: SparseMatrix):
    """Level schedule of ``gauss_seidel_sweep`` for ``a`` (cached).

    A level holds the rows whose strictly-lower entries read earlier levels
    only.  ``perm`` lists the rows in level order (stable, so ascending
    inside a level), and level k is the range [s, e) of that order.  Each
    level keeps its rows' off-diagonal entries as a CSR slice in ascending
    column order: offsets rebased to 0, column slots into the work vector
    [new iterate in level order | previous iterate], and negated values; a
    level with none (level 0 of a lower-triangular matrix, the only level
    of a diagonal one) keeps None and makes no kernel call.  A
    lower entry's slot lies in an earlier level's range, an upper entry's in
    the second half, so no level reads its own range.  Returns (levels,
    perm, whether ``a`` has an entry above the diagonal).
    """
    cached = a._caches.get("sweep")
    if cached is None:
        n, rows, cols = a.n_rows, a.entry_rows(), a.col_indices
        level = [0] * n
        for j, c in zip(rows[cols < rows].tolist(), cols[cols < rows].tolist()):
            # CSR order: a row's lower neighbours are final before it
            level[j] = max(level[j], level[c] + 1)
        level = np.asarray(level, dtype=np.int64)
        perm = np.argsort(level, kind="stable")
        pos = np.empty(n, dtype=np.int64)
        pos[perm] = np.arange(n)
        off = rows != cols
        r, c, at = rows[off], cols[off], pos[rows[off]]
        # entries arrive row by row in ascending column order; a stable sort
        # by level position keeps each row's order
        order = np.argsort(at, kind="stable")
        slot = np.where(c < r, pos[c], n + c)[order]
        negvals = -a.values[off][order]
        row_offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(at, minlength=n), out=row_offs[1:])
        diag = a.diagonal()[perm]
        bounds = np.searchsorted(level[perm], np.arange(level.max(initial=-1) + 2))
        levels = []
        for s, e in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            lo, hi = row_offs[s], row_offs[e]
            entries = (row_offs[s:e + 1] - lo, slot[lo:hi], negvals[lo:hi])
            levels.append((s, e, entries if hi > lo else None, diag[s:e]))
        cached = a._caches["sweep"] = (levels, perm, bool(np.any(cols > rows)))
    return cached


class _ThreadWork(threading.local):
    """Each thread's sweep workspaces for one matrix; a pickled or copied
    matrix starts with none."""

    def __reduce__(self):
        return _ThreadWork, ()


def _workspace(a: SparseMatrix, with_old: bool):
    """This thread's work vector for sweeping ``a``, with the levels bound
    to it (built on a thread's first sweep of ``a``, then kept).

    The vector has n entries, or 2n ``with_old``, and lives in a
    ``threading.local`` (``_ThreadWork``) in ``a._caches``, so each thread
    sweeps in its own vector and the vector dies with its thread (or with
    ``a``).  Returns (the new-iterate
    half, the previous-iterate half, perm, order, levels), each level as its
    segment view, its ready ``csr_matvec`` argument tuple (None for a level
    with no off-diagonal entry) and its diagonal.  ``order``, the inverse of
    the schedule's ``perm``, gathers y back into row order.
    """
    local = a._caches.get("sweep_work")
    if local is None:
        local = a._caches.setdefault("sweep_work", _ThreadWork())
    name = "with_old" if with_old else "without_old"
    ws = getattr(local, name, None)
    if ws is None:
        levels, perm, has_upper = _sweep_schedule(a)
        if has_upper and not with_old:
            raise ValueError("forward substitution requires a lower-triangular matrix")
        n = a.n_rows
        work = np.empty(2 * n if with_old else n)
        bound = []
        for s, e, entries, diag in levels:
            seg = work[s:e]
            args = None if entries is None \
                else (e - s, work.size, *entries, work, seg)
            bound.append((seg, args, diag))
        ws = (work[:n], work[n:], perm, np.argsort(perm), tuple(bound))
        setattr(local, name, ws)
    return ws


def gauss_seidel_sweep(a: SparseMatrix, f, x_old=None,
                       project: bool = False) -> np.ndarray:
    """One Gauss-Seidel sweep for ``a y = f``, rows in order.

    Row j takes ``(f_j - sum_{c<j} a_jc y_c - sum_{c>j} a_jc x_old_c) / a_jj``,
    set to 0.0 when negative if ``project``.  Without ``x_old`` the matrix
    must be lower triangular (forward substitution), and the work vector has
    no previous-iterate half.  ``f`` must have length n.  The caller checks
    that the diagonal is nonzero.

    The rows of a level are updated together (Anderson & Saad 1989; Saltz
    1990), in level order in a work vector that f is gathered into: one
    ``csr_matvec`` call adds each row's negated products to its f_j in
    ascending column order, in place, then one divide and one projection
    finish the level.  f + (-p) is f - p in IEEE arithmetic, so each row is
    bit-identical to the sequential row loop, provided the kernel sums in
    stored order without fused multiply-adds, as ``spmv`` assumes.  Each
    thread sweeps in its own work vector, held on the matrix with every
    level's view and kernel arguments bound to it (``_workspace``), so a
    level costs its three kernel calls; ``y`` is a fresh array.

    The projection is ``np.maximum(0.0, seg, out=seg)``, which returns its
    second argument unless the first is greater or a NaN: a row keeps -0.0
    and NaN, as the row loop's ``if new < 0.0`` does.  The other argument
    order turns -0.0 into +0.0.  numpy documents only the NaN half of this
    tie rule, so ``tests/test_sweep.py`` pins both against the row loop.
    """
    head, tail, perm, order, levels = _workspace(a, x_old is not None)
    n = a.n_rows
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (n,):
        raise ValueError(f"f has shape {f.shape}, expected ({n},)")
    if x_old is not None:
        # only upper entries read this second half
        tail[:] = x_old
    # the check above keeps every index in range, so "clip" never clips; it
    # lets take gather into the view without a buffer
    f.take(perm, out=head, mode="clip")
    for seg, args, diag in levels:
        if args is not None:
            csr_matvec(*args)
        np.divide(seg, diag, out=seg)
        if project:
            np.maximum(0.0, seg, out=seg)
    return head.take(order)


def solve_lower_triangular(l: SparseMatrix, b) -> np.ndarray:
    """Forward substitution for a lower-triangular matrix with nonzero
    diagonal; the matrix is checked once and the result cached in
    ``l._caches`` (a failing one is not cached)."""
    b = as_vector(b, l.n_rows, name="b")
    if "triangular_solve" not in l._caches:
        if not l.is_square:
            raise ValueError("triangular solve requires a square matrix")
        if np.any(l.diagonal() == 0.0):
            raise ValueError("triangular solve requires a nonzero diagonal")
        l._caches["triangular_solve"] = True
    return gauss_seidel_sweep(l, b)
