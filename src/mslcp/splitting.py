"""Multisplitting construction, hypothesis validation, and inner-count bounds.

A multisplitting of a square matrix A is a family of splittings
A = M_i - N_i (i = 1..m) together with nonnegative diagonal weighting
matrices E_i that sum to the identity.  Two built-in families are provided:

* ``jacobi``: every M_i is the diagonal of A;
* ``block_lower_triangular``: M_i keeps the diagonal everywhere plus the
  strictly-lower entries whose row and column both lie in block i.

Both are built by masking A's entries, so M_i - N_i = A holds exactly in
floating point, and both dominate the comparison matrix for H+ inputs.
Arbitrary user splittings are accepted but should be checked with
``validate_multisplitting``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import splu

from .errors import ConvergenceError
from .hmatrix import MatrixClass, SpectralRadiusEstimate, classify, \
    spectral_radius_nonneg
from .sparse import SparseMatrix, abs_matrix, as_count, as_vector, \
    comparison_matrix, solve_lower_triangular, spmv
from .sublcp import factor_structure

VARIANTS = ("jacobi", "block_lower_triangular")
# cap on min_inner_count's search and on an inner_tolerance loop's solves
MAX_INNER_COUNT = 100000
# validate_multisplitting's slack, relative to A's largest entry
VALIDATION_TOL = 1e-12


def _block_error(b: int, text: str) -> ValueError:
    """A ValueError about partition block b that carries b as ``block``,
    so a reader can name the line that held it."""
    exc = ValueError(f"partition block {b} {text}")
    exc.block = b
    return exc


@dataclass(frozen=True)
class Partition:
    """Disjoint ownership of the index set {0..n-1} by m blocks; the sizes
    are stored as ``int`` (``sparse.as_count``).  An invalid block raises a
    ``ValueError`` that names it and the offending index, and carries its
    number as ``block``."""

    n: int
    m: int
    owner_sets: tuple

    def __post_init__(self):
        for name in ("n", "m"):
            object.__setattr__(self, name, as_count(name, getattr(self, name)))
        if self.m < 1:
            raise ValueError("partition needs at least one block")
        if len(self.owner_sets) != self.m:
            raise ValueError("owner_sets length must equal m")
        sets = []
        owner = np.full(self.n, -1)
        for b, s in enumerate(self.owner_sets):
            block = np.asarray(s)
            if block.ndim != 1:
                raise _block_error(b, f"must be 1-D, got {block.ndim} "
                                      f"dimensions")
            if len(block) == 0:
                raise _block_error(b, "must be nonempty")
            # a float or boolean index would be truncated or read as 0/1
            if not np.issubdtype(block.dtype, np.integer):
                raise _block_error(b, f"must hold integers, got dtype "
                                      f"{block.dtype}")
            block = block.astype(np.int64)
            idx, counts = np.unique(block, return_counts=True)
            if len(idx) != len(block):
                raise _block_error(b, f"repeats index {idx[counts > 1][0]}")
            if idx[0] < 0 or idx[-1] >= self.n:
                j = block[(block < 0) | (block >= self.n)][0]
                raise _block_error(b, f"holds index {j}, outside "
                                      f"[0, {self.n})")
            taken = idx[owner[idx] >= 0]
            if len(taken):
                raise _block_error(b, f"holds index {taken[0]}, which block "
                                      f"{owner[taken[0]]} holds too; blocks "
                                      f"must be disjoint")
            owner[idx] = b
            idx.setflags(write=False)
            sets.append(idx)
        if np.any(owner < 0):
            raise ValueError(f"partition blocks must cover every index; "
                             f"none holds {np.argmax(owner < 0)}")
        object.__setattr__(self, "owner_sets", tuple(sets))

    @staticmethod
    def contiguous(n: int, m: int) -> "Partition":
        """Contiguous blocks of near-equal size; the remainder goes to the
        first blocks."""
        n, m = as_count("n", n), as_count("m", m)
        if not 1 <= m <= n:
            raise ValueError("need 1 <= m <= n")
        blocks = np.array_split(np.arange(n, dtype=np.int64), m)
        return Partition(n, m, tuple(blocks))


@dataclass(frozen=True)
class WeightingScheme:
    """Diagonals of the weighting matrices E_i.

    Entries are nonnegative, the diagonals sum to one entrywise (within
    1e-15), and every E_i carries at least one strictly positive entry.
    Indicator weightings (exact 0/1 diagonals from a partition) are detected;
    the threaded executor needs them, since each worker publishes only the
    block it owns.
    """

    weights: tuple

    def __post_init__(self):
        if len(self.weights) == 0:
            raise ValueError("weighting needs at least one diagonal")
        ws = tuple(as_vector(w, name="weight diagonal") for w in self.weights)
        n = len(ws[0])
        total = np.zeros(n)
        for w in ws:
            if len(w) != n:
                raise ValueError("weight diagonals must share one length")
            if np.any(w < 0.0):
                raise ValueError("weight entries must be nonnegative")
            if not np.any(w > 0.0):
                raise ValueError("each weighting matrix needs a positive entry")
            w.setflags(write=False)
            total += w
        if np.max(np.abs(total - 1.0)) > 1e-15:
            raise ValueError("weight diagonals must sum to the identity")
        object.__setattr__(self, "weights", ws)
        indicator = all(np.all((w == 0.0) | (w == 1.0)) for w in ws)
        owners = tuple(np.flatnonzero(w == 1.0) for w in ws) if indicator else None
        object.__setattr__(self, "_indicator_owners", owners)

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def n(self) -> int:
        return len(self.weights[0])

    @property
    def is_indicator(self) -> bool:
        return self._indicator_owners is not None

    @property
    def indicator_owners(self):
        return self._indicator_owners

    @staticmethod
    def indicator(partition: Partition) -> "WeightingScheme":
        """0/1 weights: E_i is the identity on block i, zero elsewhere."""
        ws = []
        for idx in partition.owner_sets:
            w = np.zeros(partition.n)
            w[idx] = 1.0
            ws.append(w)
        return WeightingScheme(tuple(ws))


@dataclass(frozen=True)
class Splitting:
    """One splitting pair (M, N).

    M alone decides how the subproblem is solved: ``structure`` is
    ``sublcp.factor_structure(M)``, one of ``diagonal``, ``lower_triangular``
    and ``general``.  ``contraction_operator`` and its radius estimate
    ``contraction_estimate`` are built on first use and kept, so processors
    that share a splitting object share them.
    """

    M: SparseMatrix
    N: SparseMatrix

    def __post_init__(self):
        if not self.M.is_square or self.M.n_rows != self.N.n_rows \
                or self.N.n_rows != self.N.n_cols:
            raise ValueError("splitting factors must be square and same-sized")

    @property
    def n(self) -> int:
        return self.M.n_rows

    @property
    def structure(self) -> str:
        return factor_structure(self.M)

    @cached_property
    def contraction_operator(self) -> "ContractionOperator":
        return ContractionOperator(self)

    @cached_property
    def contraction_estimate(self) -> SpectralRadiusEstimate:
        return spectral_radius_nonneg(self.contraction_operator, self.n,
                                      tol=1e-8)


class ContractionOperator:
    """The linear map v -> <M>^-1 (|N| v): forward substitution for an exact
    <M>, whose diagonal is checked here, or one sparse LU of a ``general``
    <M> (a Z-matrix), which x = <M>^-1 e > 0 certifies an M-matrix.
    ``ValueError`` if either check fails."""

    def __init__(self, splitting: Splitting):
        self.comp_m = comparison_matrix(splitting.M)
        self.abs_n = abs_matrix(splitting.N)
        self.structure = splitting.structure
        if self.structure != "general":
            if np.any(self.comp_m.diagonal() == 0.0):
                raise ValueError(f"{self.structure} splitting factor has a "
                                 f"zero diagonal entry")
            return
        try:
            self._lu = splu(self.comp_m.to_scipy().tocsc())
            x = self._lu.solve(np.ones(splitting.n))
        except RuntimeError:  # the factor is exactly singular
            x = np.zeros(splitting.n)
        if not np.all((x > 0.0) & (x < np.inf)):
            raise ValueError("comparison matrix of M is not an M-matrix; "
                             "contraction operator undefined")

    def __call__(self, v: np.ndarray) -> np.ndarray:
        w = spmv(self.abs_n, v)
        if self.structure == "general":
            return self._lu.solve(w)
        return solve_lower_triangular(self.comp_m, w)


@dataclass(frozen=True)
class MultisplittingSet:
    """A validated family of splittings plus its weighting.

    ``contraction_estimates[i]`` is the value of splitting i's
    ``contraction_estimate``, so a set holds no radius of its own; no solver
    reads it.  ``matrix_class`` carries the classification of the matrix the
    set was built from, when known.  The blocks a processor owns are
    ``weighting.indicator_owners`` for an indicator weighting.  ``n`` is at
    least 1, because every weighting diagonal carries a positive entry.
    The set keeps no solve state.
    """

    splittings: tuple
    weighting: WeightingScheme
    matrix_class: MatrixClass | None = None

    def __post_init__(self):
        m = len(self.splittings)
        if m == 0:
            raise ValueError("multisplitting needs at least one splitting")
        if self.weighting.m != m:
            raise ValueError("splittings and weighting must agree on m")
        if self.weighting.n != self.splittings[0].n:
            raise ValueError("weighting size does not match the splittings")

    @property
    def contraction_estimates(self) -> tuple:
        return tuple(s.contraction_estimate.value for s in self.splittings)

    @property
    def m(self) -> int:
        return len(self.splittings)

    @property
    def n(self) -> int:
        return self.splittings[0].n


def build_block_splitting(a: SparseMatrix, partition: Partition,
                          variant: str = "jacobi",
                          matrix_class: MatrixClass | None = None
                          ) -> MultisplittingSet:
    """Build a Jacobi or block-lower-triangular multisplitting of an H+ matrix.

    Factors are produced by masking A's entry array, so M_i - N_i = A holds
    bit-exactly.  The weighting is the indicator scheme of the partition.
    Each block-lower splitting's ``contraction_estimate`` is evaluated here,
    the Jacobi one on first use.  ``matrix_class``, A's ``classify``, is
    computed when omitted.

    Raises
    ------
    ValueError
        If A fails the H+ classification, or the partition or
        ``matrix_class`` has another size.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown splitting variant {variant!r}")
    if partition.n != a.n_rows:
        raise ValueError("partition size does not match the matrix")
    cls = matrix_class or classify(a)
    if not cls.is_h_plus:
        raise ValueError("matrix is not classified H+ (positive diagonal H-matrix); "
                         "refusing to build a multisplitting")
    if len(cls.witness_u) != a.n_rows:
        raise ValueError(f"matrix_class is of a matrix of size "
                         f"{len(cls.witness_u)}, not of this one ({a.n_rows})")

    rows = a.entry_rows()
    cols = a.col_indices
    on_diag = rows == cols

    splittings = []
    if variant == "jacobi":
        m_mat = a.same_pattern(np.where(on_diag, a.values, 0.0))
        n_mat = a.same_pattern(np.where(on_diag, 0.0, -a.values))
        splittings = [Splitting(m_mat, n_mat)] * partition.m
    else:
        for idx in partition.owner_sets:
            member = np.zeros(a.n_rows, dtype=bool)
            member[idx] = True
            keep = on_diag | (member[rows] & member[cols] & (cols < rows))
            m_mat = a.same_pattern(np.where(keep, a.values, 0.0))
            n_mat = a.same_pattern(np.where(keep, 0.0, -a.values))
            splittings.append(Splitting(m_mat, n_mat))
        for s in splittings:  # estimated now, cached on the splitting
            s.contraction_estimate

    return MultisplittingSet(tuple(splittings),
                             WeightingScheme.indicator(partition),
                             matrix_class=cls)


@dataclass(frozen=True)
class MultisplittingValidation:
    """Outcome of the convergence-hypothesis checks, one entry per splitting.

    ``violations`` lists (splitting index, check code, message); empty means
    every hypothesis held.  Check codes: ``sum`` (M_i - N_i = A),
    ``domination`` (<A> <= <M_i> - |N_i| entrywise), ``contraction``
    (estimated rho(<M_i>^-1 |N_i|) < 1).
    """

    contraction_estimates: tuple
    reconstruction_errors: tuple
    domination_margins: tuple
    violations: tuple

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


def validate_multisplitting(a: SparseMatrix, ms: MultisplittingSet
                            ) -> MultisplittingValidation:
    """Check the multisplitting hypotheses against A.

    Per splitting: (a) M_i - N_i reconstructs A within ``VALIDATION_TOL``
    (1e-12) relative to A's largest entry, (b) <A> <= <M_i> - |N_i|
    entrywise with the same slack,
    (c) the splitting's cached ``contraction_estimate`` is converged, so a
    Ritz value has passed the Collatz-Wielandt check of
    ``spectral_radius_nonneg``, and is below one; an undefined operator is
    reported with its reason and estimate inf.  Each distinct splitting
    object is checked once; processors that share it get the same entries.
    Violations are reported, never raised; a set of another size is refused.
    """
    if ms.n != a.n_rows:
        raise ValueError(f"multisplitting size {ms.n} does not match the "
                         f"matrix size {a.n_rows}")
    comp_a = comparison_matrix(a).to_scipy()
    a_sp = a.to_scipy()
    scale = float(np.max(np.abs(a.values))) if a.nnz else 1.0

    def check(s: Splitting):
        diff = (s.M.to_scipy() - s.N.to_scipy()) - a_sp
        dom = (comparison_matrix(s.M).to_scipy()
               - abs_matrix(s.N).to_scipy()) - comp_a
        err = float(np.max(np.abs(diff.data))) if diff.nnz else 0.0
        margin = float(np.min(dom.data)) if dom.nnz else 0.0
        try:
            est = s.contraction_estimate
        except ValueError as exc:  # the operator is undefined
            return err, margin, np.inf, str(exc)
        if est.converged and est.value < 1.0:
            return err, margin, est.value, None
        return err, margin, est.value, (
            f"estimated radius {est.value:.6g}"
            + ("" if est.converged else " (unconverged)"))

    # processors that share a splitting object share its checks
    distinct = {id(s): s for s in ms.splittings}
    checked = {key: check(s) for key, s in distinct.items()}
    errors, margins, ests, reasons = zip(*(checked[id(s)]
                                           for s in ms.splittings))
    violations = []
    for i, (err, margin, reason) in enumerate(zip(errors, margins, reasons)):
        if err > VALIDATION_TOL * scale:
            violations.append((i, "sum", f"max |M - N - A| = {err:.3g}"))
        if margin < -VALIDATION_TOL * scale:
            violations.append(
                (i, "domination",
                 f"<M> - |N| falls below <A> by {-margin:.3g}"))
        if reason is not None:
            violations.append((i, "contraction", reason))
    return MultisplittingValidation(ests, errors, margins, tuple(violations))


def min_inner_count(splitting: Splitting, eta: float) -> int:
    """Smallest s with ||T^s||_inf <= eta for T = <M>^-1 |N|.

    T is nonnegative, so ||T^s||_inf = ||T^s e||_inf; the powers come from
    the splitting's cached contraction operator without forming T.
    ``ConvergenceError`` when no s up to ``MAX_INNER_COUNT`` reaches eta.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie strictly between 0 and 1")
    op = splitting.contraction_operator
    v = np.ones(splitting.n)
    for s in range(1, MAX_INNER_COUNT + 1):
        v = op(v)
        if float(np.max(v)) <= eta:
            return s
    raise ConvergenceError(
        f"||T^s||_inf stayed above {eta:.3g} for all s <= "
        f"{MAX_INNER_COUNT}; contraction too weak for the requested eta")


def compute_eta(gamma: float, weighting: WeightingScheme) -> float:
    """Inner-contraction target gamma / sum_i ||E_i||_inf."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly between 0 and 1")
    denom = sum(float(np.max(w)) for w in weighting.weights)
    return gamma / denom
