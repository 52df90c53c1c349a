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
import scipy.sparse

from .errors import ConvergenceError
from .hmatrix import MatrixClass, classify, solve_m_matrix, spectral_radius_nonneg
from .sparse import SparseMatrix, abs_matrix, as_vector, comparison_matrix, \
    solve_lower_triangular, spmv
from .sublcp import factor_structure

VARIANTS = ("jacobi", "block_lower_triangular")


@dataclass(frozen=True)
class Partition:
    """Disjoint ownership of the index set {0..n-1} by m blocks."""

    n: int
    m: int
    owner_sets: tuple

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("partition needs at least one block")
        if len(self.owner_sets) != self.m:
            raise ValueError("owner_sets length must equal m")
        sets = []
        seen = np.zeros(self.n, dtype=bool)
        for s in self.owner_sets:
            idx = np.unique(np.asarray(s, dtype=np.int64))
            if len(idx) == 0:
                raise ValueError("partition blocks must be nonempty")
            if len(idx) != len(np.asarray(s)):
                raise ValueError("partition block contains repeated indices")
            if idx[0] < 0 or idx[-1] >= self.n:
                raise ValueError("partition index out of range")
            if np.any(seen[idx]):
                raise ValueError("partition blocks must be disjoint")
            seen[idx] = True
            idx.setflags(write=False)
            sets.append(idx)
        if not np.all(seen):
            raise ValueError("partition blocks must cover every index")
        object.__setattr__(self, "owner_sets", tuple(sets))

    @staticmethod
    def contiguous(n: int, m: int) -> "Partition":
        """Contiguous blocks of near-equal size; the remainder goes to the
        first blocks."""
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
    and ``general``.  ``contraction_operator`` is built on first use and
    kept, so processors that share a splitting object share it.
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


class ContractionOperator:
    """Application v -> <M>^-1 (|N| v) without forming the product matrix."""

    def __init__(self, splitting: Splitting):
        self.comp_m = comparison_matrix(splitting.M)
        self.abs_n = abs_matrix(splitting.N)
        # <M>'s off-diagonal entries are nonpositive, so any lower-triangular
        # M gives a <M> that one forward substitution solves
        self.structure = factor_structure(self.comp_m)
        self.n = splitting.n
        self._diag = None
        self._cls = None
        if self.structure == "diagonal":
            self._diag = self.comp_m.diagonal()
            if np.any(self._diag == 0.0):
                raise ValueError("diagonal splitting factor has a zero entry")
        elif self.structure == "general":
            self._cls = classify(self.comp_m)
            if not self._cls.is_m_matrix:
                raise ValueError("comparison matrix of M is not an M-matrix; "
                                 "contraction operator undefined")

    def __call__(self, v: np.ndarray) -> np.ndarray:
        w = spmv(self.abs_n, v)
        if self.structure == "diagonal":
            return w / self._diag
        if self.structure == "lower_triangular":
            return solve_lower_triangular(self.comp_m, w)
        return solve_m_matrix(self.comp_m, w, matrix_class=self._cls)


@dataclass(frozen=True)
class MultisplittingSet:
    """A validated family of splittings plus its weighting.

    ``contraction_estimates[i]`` estimates rho(<M_i>^-1 |N_i|) at build time
    with ``spectral_radius_nonneg`` at its default cap (Jacobi sets reuse the
    classification's); no solver reads it, and ``validate_multisplitting``
    recomputes it.  ``matrix_class`` carries the classification of the
    matrix the set was built from, when known.  The blocks a processor owns
    are ``weighting.indicator_owners`` for an indicator weighting.  ``n`` is
    at least 1, because every weighting diagonal carries a positive entry.
    The set keeps no solve state: inner counts and stacks belong to each
    solve.
    """

    splittings: tuple
    weighting: WeightingScheme
    contraction_estimates: tuple
    matrix_class: MatrixClass | None = None

    def __post_init__(self):
        m = len(self.splittings)
        if m == 0:
            raise ValueError("multisplitting needs at least one splitting")
        if self.weighting.m != m or len(self.contraction_estimates) != m:
            raise ValueError("splittings, weighting and estimates must agree on m")
        if self.weighting.n != self.splittings[0].n:
            raise ValueError("weighting size does not match the splittings")

    @property
    def m(self) -> int:
        return len(self.splittings)

    @property
    def n(self) -> int:
        return self.splittings[0].n

    def stacked(self, members: tuple) -> Splitting:
        """The splitting (blockdiag(M_i), blockdiag(N_i)) over ``members``,
        which share one structure, so the stack has it too.  One member is
        its own splitting; more are stacked anew on each call, storing their
        factors once more (at n = 1600 and four members, about 0.6 MB)."""
        if len(members) == 1:
            return self.splittings[members[0]]
        parts = [self.splittings[i] for i in members]

        def block(mats):
            return SparseMatrix.from_scipy(scipy.sparse.block_diag(
                [a.to_scipy() for a in mats], format="csr"))

        return Splitting(block(s.M for s in parts), block(s.N for s in parts))


def build_block_splitting(a: SparseMatrix, partition: Partition,
                          variant: str = "jacobi",
                          matrix_class: MatrixClass | None = None
                          ) -> MultisplittingSet:
    """Build a Jacobi or block-lower-triangular multisplitting of an H+ matrix.

    Factors are produced by masking A's entry array, so M_i - N_i = A holds
    bit-exactly.  The weighting is the indicator scheme of the partition.
    Contraction radii are estimated once and cached on the result: Jacobi's
    <D>^-1 |N| is the Jacobi matrix of <A>, so it takes the classification's
    ``jacobi_radius_estimate``; block-lower estimates each splitting's with
    ``spectral_radius_nonneg`` at its default cap.  ``matrix_class`` is
    computed with ``classify``'s defaults when omitted; a caller that needs
    another budget classifies first and passes the result.

    Raises
    ------
    ValueError
        If A fails the H+ classification or the partition does not match.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown splitting variant {variant!r}")
    if partition.n != a.n_rows:
        raise ValueError("partition size does not match the matrix")
    cls = matrix_class or classify(a)
    if not cls.is_h_plus:
        raise ValueError("matrix is not classified H+ (positive diagonal H-matrix); "
                         "refusing to build a multisplitting")

    rows = a.entry_rows()
    cols = a.col_indices
    on_diag = rows == cols

    splittings = []
    if variant == "jacobi":
        m_mat = a.same_pattern(np.where(on_diag, a.values, 0.0))
        n_mat = a.same_pattern(np.where(on_diag, 0.0, -a.values))
        splittings = [Splitting(m_mat, n_mat)] * partition.m
        estimates = [cls.jacobi_radius_estimate] * partition.m
    else:
        for idx in partition.owner_sets:
            member = np.zeros(a.n_rows, dtype=bool)
            member[idx] = True
            keep = on_diag | (member[rows] & member[cols] & (cols < rows))
            m_mat = a.same_pattern(np.where(keep, a.values, 0.0))
            n_mat = a.same_pattern(np.where(keep, 0.0, -a.values))
            splittings.append(Splitting(m_mat, n_mat))
        estimates = [spectral_radius_nonneg(s.contraction_operator, s.n,
                                            tol=1e-8).value
                     for s in splittings]

    return MultisplittingSet(tuple(splittings),
                             WeightingScheme.indicator(partition),
                             tuple(estimates), matrix_class=cls)


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


def validate_multisplitting(a: SparseMatrix, ms: MultisplittingSet,
                            tol: float = 1e-12) -> MultisplittingValidation:
    """Check the multisplitting hypotheses against A.

    Per splitting: (a) M_i - N_i reconstructs A within ``tol`` relative to
    A's largest entry, (b) <A> <= <M_i> - |N_i| entrywise with slack ``tol``,
    (c) the estimated contraction radius is converged, so a Ritz value has
    passed the Collatz-Wielandt check of ``spectral_radius_nonneg``, and is
    below one.  Each distinct splitting object is checked once; processors
    that share it get the same entries.  Violations are reported, never
    raised.
    """
    comp_a = comparison_matrix(a).to_scipy()
    a_sp = a.to_scipy()
    scale = float(np.max(np.abs(a.values))) if a.nnz else 1.0

    def check(s: Splitting):
        diff = (s.M.to_scipy() - s.N.to_scipy()) - a_sp
        dom = (comparison_matrix(s.M).to_scipy()
               - abs_matrix(s.N).to_scipy()) - comp_a
        return (float(np.max(np.abs(diff.data))) if diff.nnz else 0.0,
                float(np.min(dom.data)) if dom.nnz else 0.0,
                spectral_radius_nonneg(s.contraction_operator, s.n, tol=1e-8))

    # processors that share a splitting object share its checks
    distinct = {id(s): s for s in ms.splittings}
    checked = {key: check(s) for key, s in distinct.items()}
    errors, margins, ests = zip(*(checked[id(s)] for s in ms.splittings))
    violations = []
    for i, (err, margin, est) in enumerate(zip(errors, margins, ests)):
        if err > tol * scale:
            violations.append((i, "sum", f"max |M - N - A| = {err:.3g}"))
        if margin < -tol * scale:
            violations.append(
                (i, "domination",
                 f"<M> - |N| falls below <A> by {-margin:.3g}"))
        if not est.converged or est.value >= 1.0:
            violations.append(
                (i, "contraction",
                 f"estimated radius {est.value:.6g}"
                 + ("" if est.converged else " (unconverged)")))
    return MultisplittingValidation(tuple(e.value for e in ests), errors,
                                    margins, tuple(violations))


def min_inner_count(splitting: Splitting, eta: float, max_s: int = 10000) -> int:
    """Smallest s with ||T^s||_inf <= eta for T = <M>^-1 |N|.

    T is nonnegative, so ||T^s||_inf = ||T^s e||_inf; the powers are obtained
    by repeated application of the splitting's cached contraction operator
    without forming T.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie strictly between 0 and 1")
    op = splitting.contraction_operator
    v = np.ones(splitting.n)
    for s in range(1, max_s + 1):
        v = op(v)
        if float(np.max(v)) <= eta:
            return s
    raise ConvergenceError(
        f"||T^s||_inf stayed above {eta:.3g} for all s <= {max_s}; "
        "contraction too weak for the requested eta")


def compute_eta(gamma: float, weighting: WeightingScheme) -> float:
    """Inner-contraction target gamma / sum_i ||E_i||_inf."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly between 0 and 1")
    denom = sum(float(np.max(w)) for w in weighting.weights)
    return gamma / denom
