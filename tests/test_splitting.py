"""Multisplitting builders, hypothesis validation, inner-count thresholds."""

import re

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from mslcp import (ConvergenceError, MultisplittingSet, Partition, SparseMatrix,
                   Splitting, WeightingScheme, build_block_splitting, classify,
                   factor_structure, min_inner_count, spectral_radius_nonneg,
                   validate_multisplitting)
from mslcp.hmatrix import MAX_POWER_ITERS
from mslcp.sparse import _block_diagonal
from mslcp.splitting import ContractionOperator

from conftest import (dense_contraction_matrix, random_m_matrix,
                      random_sparse_hplus, reducible_m_matrices)


def general_grid_set(prob, m):
    """Splittings of the grid matrix whose M_i keeps A's diagonal plus A's
    whole diagonal block i (entries above the diagonal included, so every
    factor is ``general``), with the Jacobi set's weighting."""
    a = prob.A
    part = Partition.contiguous(prob.n, m)
    base = build_block_splitting(a, part, "jacobi")
    rows, cols = a.entry_rows(), a.col_indices
    splittings = []
    for idx in part.owner_sets:
        member = np.zeros(a.n_rows, dtype=bool)
        member[idx] = True
        keep = (rows == cols) | (member[rows] & member[cols])
        splittings.append(Splitting(
            a.same_pattern(np.where(keep, a.values, 0.0)),
            a.same_pattern(np.where(keep, 0.0, -a.values))))
    return MultisplittingSet(tuple(splittings), base.weighting,
                             base.matrix_class)


class TestPartition:
    def test_contiguous_remainder_to_first_blocks(self):
        part = Partition.contiguous(10, 3)
        sizes = [len(s) for s in part.owner_sets]
        assert sizes == [4, 3, 3]
        assert np.array_equal(np.concatenate(part.owner_sets), np.arange(10))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="disjoint"):
            Partition(4, 2, (np.array([0, 1, 2]), np.array([2, 3])))

    @pytest.mark.parametrize("sets, message", [
        (([0, 1, 2], [2, 3]), "partition block 1 holds index 2, which block 0 "
                              "holds too; blocks must be disjoint"),
        (([0, 1], [2, 7, 3]), "partition block 1 holds index 7, outside "
                              "[0, 4)"),
        (([0, -1, 1], [2, 3]), "partition block 0 holds index -1, outside "
                               "[0, 4)"),
        (([0, 1], [3, 2, 3]), "partition block 1 repeats index 3"),
    ], ids=["overlap", "too-large", "negative", "repeated"])
    def test_invalid_block_names_block_and_index(self, sets, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as got:
            Partition(4, 2, tuple(np.array(s) for s in sets))
        assert got.value.block == int(message.split()[2])

    def test_gap_names_the_first_missing_index(self):
        with pytest.raises(ValueError, match="cover every index; none holds "
                                             "1$"):
            Partition(4, 2, (np.array([0]), np.array([3, 2])))

    def test_rejects_gap(self):
        with pytest.raises(ValueError, match="cover"):
            Partition(4, 2, (np.array([0]), np.array([3])))

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError, match="nonempty"):
            Partition(4, 2, (np.arange(4), np.array([], dtype=np.int64)))

    def test_empty_list_block_is_reported_empty(self):
        # np.asarray([]) is a float array; emptiness is reported first
        with pytest.raises(ValueError, match="nonempty"):
            Partition(4, 2, (np.arange(4), []))

    def test_rejects_float_block(self):
        # 1.9 was truncated to 1, so the first block read {0, 1}
        with pytest.raises(ValueError,
                           match="block 0 must hold integers, got dtype float64"):
            Partition(4, 2, ([0, 1.9], [2, 3]))

    def test_rejects_boolean_block(self):
        # booleans were read as the indices 0 and 1
        with pytest.raises(ValueError,
                           match="block 1 must hold integers, got dtype bool"):
            Partition(4, 2, ([2, 3], [False, True]))

    def test_rejects_two_dimensional_block(self):
        # reported as "repeated indices" before
        with pytest.raises(ValueError, match="block 0 must be 1-D, got 2"):
            Partition(4, 1, (np.arange(4).reshape(2, 2),))


class TestWeightingScheme:
    def test_indicator_sums_to_identity(self):
        w = WeightingScheme.indicator(Partition.contiguous(5, 2))
        assert w.is_indicator
        total = sum(wi for wi in w.weights)
        assert np.array_equal(total, np.ones(5))

    def test_general_weights_accepted(self):
        w = WeightingScheme((np.full(3, 0.25), np.full(3, 0.75)))
        assert not w.is_indicator

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            WeightingScheme((np.array([-0.5, 1.0]), np.array([1.5, 0.0])))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="identity"):
            WeightingScheme((np.array([0.5, 0.5]), np.array([0.6, 0.5])))

    def test_rejects_all_zero_factor(self):
        with pytest.raises(ValueError, match="positive entry"):
            WeightingScheme((np.array([1.0, 1.0]), np.array([0.0, 0.0])))


class TestSplittingType:
    @pytest.mark.parametrize("dense, structure", [
        ([[2.0, 0.0], [0.0, 3.0]], "diagonal"),
        ([[2.0, 0.0], [-1.0, 3.0]], "lower_triangular"),
        ([[2.0, 0.0], [1.0, 3.0]], "lower_triangular"),
        ([[2.0, -1.0], [0.0, 3.0]], "general"),
    ], ids=["diagonal", "lower-nonpositive", "lower-positive", "upper"])
    def test_structure_read_from_the_factor(self, dense, structure):
        m = SparseMatrix.from_dense(dense)
        split = Splitting(m, SparseMatrix.from_dense([[0.0, 1.0], [0.0, 0.0]]))
        assert factor_structure(m) == split.structure == structure


class TestBuilder:
    def test_jacobi_two_by_two(self):
        a = SparseMatrix.from_dense([[4.0, -1.0], [-1.0, 4.0]])
        ms = build_block_splitting(a, Partition.contiguous(2, 1), "jacobi")
        assert np.array_equal(ms.splittings[0].M.to_dense(),
                              [[4.0, 0.0], [0.0, 4.0]])
        assert np.array_equal(ms.splittings[0].N.to_dense(),
                              [[0.0, 1.0], [1.0, 0.0]])
        assert ms.splittings[0].structure == "diagonal"

    def test_singleton_blocks_degenerate_to_diagonal(self):
        a = SparseMatrix.from_dense([[4.0, -1.0], [-1.0, 4.0]])
        ms = build_block_splitting(a, Partition.contiguous(2, 2),
                                   "block_lower_triangular")
        for s in ms.splittings:
            assert s.structure == "diagonal"
            assert np.array_equal(s.M.to_dense(), [[4.0, 0.0], [0.0, 4.0]])

    def test_block_lower_keeps_in_block_entries(self, grid_problem):
        a = grid_problem(4).A
        part = Partition.contiguous(16, 2)
        ms = build_block_splitting(a, part, "block_lower_triangular")
        m0 = ms.splittings[0].M
        rows = m0.entry_rows()
        strict = m0.col_indices < rows
        assert np.all(rows[strict] <= 7) and np.all(m0.col_indices[strict] <= 7)
        report = validate_multisplitting(a, ms)
        assert report.ok

    def test_exact_reconstruction(self):
        rng = np.random.default_rng(23)
        a = random_sparse_hplus(rng, 12)
        for variant in ("jacobi", "block_lower_triangular"):
            ms = build_block_splitting(a, Partition.contiguous(12, 3), variant)
            for s in ms.splittings:
                diff = s.M.to_scipy() - s.N.to_scipy() - a.to_scipy()
                assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0

    def test_rejects_non_hplus(self):
        a = SparseMatrix.from_dense([[1.0, -2.0], [-2.0, 1.0]])
        with pytest.raises(ValueError, match="H\\+"):
            build_block_splitting(a, Partition.contiguous(2, 1), "jacobi")

    def test_rejects_classification_of_another_size(self, grid_problem):
        # the p = 3 class would give the p = 4 grid omega_bound 1.1716, not
        # its own 1.1056
        a = grid_problem(4).A
        with pytest.raises(ValueError, match=r"size 9, not of this one "
                                             r"\(16\)"):
            build_block_splitting(a, Partition.contiguous(16, 2), "jacobi",
                                  matrix_class=classify(grid_problem(3).A))

    def test_random_hplus_families_validate(self):
        # builder output must satisfy every hypothesis the validator checks
        rng = np.random.default_rng(101)
        variants = ("jacobi", "block_lower_triangular")
        for trial in range(100):
            n = int(rng.integers(2, 65))
            m = int(rng.choice([1, 2, 4]))
            m = min(m, n)
            a = random_sparse_hplus(rng, n, density=0.3)
            ms = build_block_splitting(a, Partition.contiguous(n, m),
                                       variants[trial % 2])
            assert validate_multisplitting(a, ms).ok



class TestStacked:
    """``sparse._block_diagonal``, the stack the simulator solves a group's
    pairs on, against ``scipy.sparse.block_diag``."""

    @staticmethod
    def scipy_stack(mats):
        return SparseMatrix.from_scipy(scipy.sparse.block_diag(
            [a.to_scipy() for a in mats], format="csr"))

    @pytest.mark.parametrize("members", [(0, 1, 2), (2, 0), (1, 1, 0, 1)],
                             ids=["all", "reordered", "repeated"])
    def test_concatenation_equals_block_diag(self, members):
        # uneven blocks give the members different nnz in M and in N
        rng = np.random.default_rng(61)
        a = random_sparse_hplus(rng, 30, density=0.3)
        part = Partition(30, 3, (np.arange(0, 3), np.arange(3, 15),
                                 np.arange(15, 30)))
        ms = build_block_splitting(a, part, "block_lower_triangular")
        assert len({s.M.nnz for s in ms.splittings}) == 3
        assert len({s.N.nnz for s in ms.splittings}) == 3
        stack = []
        for name in ("M", "N"):
            mats = [getattr(ms.splittings[i], name) for i in members]
            stack.append(_block_diagonal(mats))
            assert stack[-1] == self.scipy_stack(mats)
        assert Splitting(*stack).structure == "lower_triangular"

    def test_one_member_is_the_splitting(self, grid_problem):
        prob = grid_problem(4)
        ms = build_block_splitting(prob.A, Partition.contiguous(prob.n, 2),
                                   "block_lower_triangular")
        split = ms.splittings[1]
        for a in (split.M, split.N):
            assert _block_diagonal([a]) == a


def _random_hplus_cases():
    rng = np.random.default_rng(501)
    cases = []
    for _ in range(60):
        n = int(rng.integers(1, 41))
        m = min(int(rng.choice([1, 2, 3, 4])), n)
        cases.append((random_sparse_hplus(rng, n, density=0.3,
                                          dominance=float(rng.uniform(1.05, 2.0))),
                      m))
    return cases


class TestJacobiEstimateFromClassification:
    """A Jacobi splitting's contraction operator <D>^-1 |N| is the Jacobi
    matrix of <A>, so the build takes the classification's radius estimate
    instead of power-iterating the operator again."""

    @staticmethod
    def _check(a, m):
        part = Partition.contiguous(a.n_rows, m)
        for ms in (build_block_splitting(a, part, "jacobi",
                                         matrix_class=classify(a)),
                   build_block_splitting(a, part, "jacobi")):
            # the estimate the build used to compute by power iteration
            ref = spectral_radius_nonneg(ContractionOperator(ms.splittings[0]),
                                         a.n_rows, tol=1e-8,
                                         max_iters=MAX_POWER_ITERS)
            assert validate_multisplitting(a, ms).contraction_estimates \
                == (ref.value,) * m

    @pytest.mark.parametrize("shift", [0.0, 0.5])
    @pytest.mark.parametrize("p", [2, 3, 8, 16, 40, 64])
    def test_grid_estimates_bit_identical(self, grid_problem, p, shift):
        self._check(grid_problem(p, shift).A, 4 if p > 2 else 2)

    def test_random_hplus_estimates_bit_identical(self):
        for a, m in _random_hplus_cases():
            self._check(a, m)

    @pytest.mark.parametrize("variant, calls", [
        ("jacobi", 0), ("block_lower_triangular", 4)])
    def test_power_iterations_in_a_classified_build(self, monkeypatch,
                                                    grid_problem, variant,
                                                    calls):
        import mslcp.splitting
        a = grid_problem(8).A
        cls = classify(a)
        seen = []
        real = mslcp.splitting.spectral_radius_nonneg

        def counting(*args, **kwargs):
            seen.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(mslcp.splitting, "spectral_radius_nonneg", counting)
        ms = build_block_splitting(a, Partition.contiguous(64, 4), variant,
                                   matrix_class=cls)
        assert len(seen) == calls
        if variant == "jacobi":
            assert validate_multisplitting(a, ms).contraction_estimates \
                == (cls.jacobi_radius_estimate,) * 4


class TestValidator:
    def test_set_of_another_size_rejected(self, grid_problem):
        ms = build_block_splitting(grid_problem(3).A,
                                   Partition.contiguous(9, 2), "jacobi")
        with pytest.raises(ValueError, match="multisplitting size 9 does "
                                             "not match the matrix size 16"):
            validate_multisplitting(grid_problem(4).A, ms)

    def test_jacobi_all_checks_pass(self):
        a = SparseMatrix.from_dense([[4.0, -1.0], [-1.0, 4.0]])
        ms = build_block_splitting(a, Partition.contiguous(2, 1), "jacobi")
        report = validate_multisplitting(a, ms)
        assert report.ok
        assert abs(report.contraction_estimates[0] - 0.25) < 1e-8

    def test_contraction_violation_flagged(self):
        a = SparseMatrix.from_dense([[1.0, -2.0], [-2.0, 1.0]])
        m = SparseMatrix.from_dense(np.eye(2))
        n = SparseMatrix.from_dense([[0.0, 2.0], [2.0, 0.0]])
        ms = MultisplittingSet(
            (Splitting(m, n),),
            WeightingScheme((np.ones(2),)))
        report = validate_multisplitting(a, ms)
        codes = {v[1] for v in report.violations}
        assert "contraction" in codes
        assert abs(report.contraction_estimates[0] - 2.0) < 1e-6

    def test_tampered_sum_flagged(self):
        a = SparseMatrix.from_dense([[4.0, -1.0], [-1.0, 4.0]])
        m = SparseMatrix.from_dense([[5.0, 0.0], [0.0, 4.0]])  # wrong diagonal
        n = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        ms = MultisplittingSet(
            (Splitting(m, n),),
            WeightingScheme((np.ones(2),)))
        report = validate_multisplitting(a, ms)
        assert any(v[1] == "sum" for v in report.violations)

    @pytest.mark.parametrize("offset, flagged", [(1e-12, False),
                                                 (1e-11, True)])
    def test_sum_slack_is_validation_tol(self, offset, flagged):
        # the slack is 1e-12 times A's largest entry, 4
        a = SparseMatrix.from_dense([[4.0, -1.0], [-1.0, 4.0]])
        m = SparseMatrix.from_dense([[4.0 + offset, 0.0], [0.0, 4.0]])
        n = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        ms = MultisplittingSet((Splitting(m, n),),
                               WeightingScheme((np.ones(2),)))
        report = validate_multisplitting(a, ms)
        assert any(v[1] == "sum" for v in report.violations) == flagged

    @pytest.mark.parametrize("variant, calls", [
        ("jacobi", 1), ("block_lower_triangular", 0)])
    def test_one_estimate_per_splitting_object(self, monkeypatch, grid_problem,
                                               variant, calls):
        # the Jacobi processors share one splitting object, so one power
        # iteration serves all four; the build already cached the estimates
        # of the four block-lower splittings
        import mslcp.splitting
        a = grid_problem(6).A
        ms = build_block_splitting(a, Partition.contiguous(36, 4), variant)
        seen = []
        real = mslcp.splitting.spectral_radius_nonneg

        def counting(*args, **kwargs):
            seen.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(mslcp.splitting, "spectral_radius_nonneg", counting)
        report = validate_multisplitting(a, ms)
        assert len(seen) == calls
        assert report.ok
        assert report.contraction_estimates == tuple(
            real(ContractionOperator(s), s.n, tol=1e-8).value
            for s in ms.splittings)
        assert len(report.reconstruction_errors) == len(
            report.domination_margins) == 4

    def test_shared_splitting_reports_every_processor(self):
        a = SparseMatrix.from_dense([[1.0, -2.0], [-2.0, 1.0]])
        n = SparseMatrix.from_dense([[0.0, 2.0], [2.0, 0.0]])
        shared = Splitting(SparseMatrix.from_dense(np.eye(2)), n)
        ms = MultisplittingSet(
            (shared, shared),
            WeightingScheme((np.array([1.0, 0.0]), np.array([0.0, 1.0]))))
        report = validate_multisplitting(a, ms)
        assert [v[:2] for v in report.violations] == [
            (0, "contraction"), (1, "contraction")]
        assert report.contraction_estimates[0] == \
            report.contraction_estimates[1]


    def test_general_grid_splitting_validates(self, grid_problem):
        # ARPACK applies the LU-backed operator to signed vectors
        prob = grid_problem(16)
        ms = general_grid_set(prob, 4)
        assert {s.structure for s in ms.splittings} == {"general"}
        report = validate_multisplitting(prob.A, ms)
        assert report.ok
        for s, est in zip(ms.splittings, report.contraction_estimates):
            dense = float(np.max(np.abs(np.linalg.eigvals(
                dense_contraction_matrix(s.M, s.N)))))
            assert abs(est - dense) < 1e-9

    @pytest.mark.parametrize("dense_m, reason", [
        ([[1.0, -2.0], [-2.0, 1.0]],
         "comparison matrix of M is not an M-matrix; contraction operator "
         "undefined"),
        ([[0.0, 0.0], [0.0, 4.0]],
         "diagonal splitting factor has a zero diagonal entry"),
        # checked when the operator is built, not at its first application
        ([[4.0, 0.0], [-1.0, 0.0]],
         "lower_triangular splitting factor has a zero diagonal entry"),
    ], ids=["non-m-matrix", "zero-diagonal", "lower-zero-diagonal"])
    def test_undefined_operator_reported_not_raised(self, dense_m, reason):
        a = SparseMatrix.from_dense([[4.0, -1.0], [-1.0, 4.0]])
        m = SparseMatrix.from_dense(dense_m)
        n = SparseMatrix.from_scipy(m.to_scipy() - a.to_scipy())
        ms = MultisplittingSet((Splitting(m, n),),
                               WeightingScheme((np.ones(2),)))
        report = validate_multisplitting(a, ms)
        assert report.contraction_estimates == (np.inf,)
        assert (0, "contraction", reason) in report.violations


class TestMinInnerCount:
    def test_powers_of_half(self):
        m = SparseMatrix.from_dense([[2.0, 0.0], [0.0, 2.0]])
        n = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        s = Splitting(m, n)
        # ||T^s||_inf = 0.5^s: first s with 0.5^s <= 0.1 is 4
        assert min_inner_count(s, 0.1) == 4

    def test_zero_n_gives_one(self):
        m = SparseMatrix.from_dense([[2.0, 0.0], [0.0, 2.0]])
        n = SparseMatrix.from_dense(np.zeros((2, 2)))
        s = Splitting(m, n)
        assert min_inner_count(s, 0.01) == 1

    def test_eta_above_norm_gives_one(self):
        m = SparseMatrix.from_dense([[2.0, 0.0], [0.0, 2.0]])
        n = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        s = Splitting(m, n)
        assert min_inner_count(s, 0.6) == 1

    def test_budget_error(self, monkeypatch):
        import mslcp.splitting
        monkeypatch.setattr(mslcp.splitting, "MAX_INNER_COUNT", 3)
        m = SparseMatrix.from_dense([[2.0, 0.0], [0.0, 2.0]])
        n = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        s = Splitting(m, n)
        with pytest.raises(ConvergenceError, match="s <= 3;"):
            min_inner_count(s, 0.01)

    def test_eta_range_validated(self):
        m = SparseMatrix.from_dense(np.eye(2))
        s = Splitting(m, SparseMatrix.from_dense(np.zeros((2, 2))))
        with pytest.raises(ValueError):
            min_inner_count(s, 1.5)

    def test_against_dense_powers(self, grid_problem):
        # cross-check the operator-based count with explicit matrix powers
        rng = np.random.default_rng(31)
        for _ in range(12):
            n = int(rng.integers(2, 50))
            a = random_sparse_hplus(rng, n, density=0.3)
            ms = build_block_splitting(a, Partition.contiguous(n, 1),
                                       "block_lower_triangular" if n % 2 else "jacobi")
            s = ms.splittings[0]
            t = dense_contraction_matrix(s.M, s.N)
            for eta in (0.5, 0.1, 0.01):
                power = np.eye(n)
                expected = None
                for k in range(1, 200):
                    power = power @ t
                    if np.max(np.abs(power).sum(axis=1)) <= eta:
                        expected = k
                        break
                assert expected is not None
                assert min_inner_count(s, eta) == expected


    def test_general_grid_splitting_against_dense_powers(self, grid_problem):
        # ||T^s||_inf = max(T^s e) for T >= 0
        prob = grid_problem(16)
        s = general_grid_set(prob, 4).splittings[0]
        t = dense_contraction_matrix(s.M, s.N)
        v = np.ones(prob.n)
        expected = None
        for k in range(1, 1000):
            v = t @ v
            if np.max(v) <= 0.1:
                expected = k
                break
        assert expected == 148
        assert min_inner_count(s, 0.1) == expected


class TestSplittingComparison:
    def test_gauss_seidel_like_never_slower_than_jacobi(self):
        # M-splittings with M <= D entrywise contract at least as fast as the
        # diagonal splitting
        rng = np.random.default_rng(47)
        for _ in range(15):
            n = int(rng.integers(3, 21))
            a = random_m_matrix(rng, n)
            ad = a.to_dense()
            lower = np.tril(ad, -1) * (rng.random((n, n)) < 0.7)
            md = np.diag(np.diag(ad)) + lower
            m_mat = SparseMatrix.from_dense(md)
            n_mat = SparseMatrix.from_dense(md - ad)
            split = Splitting(m_mat, n_mat)
            op = ContractionOperator(split)
            rho_m = spectral_radius_nonneg(op, n, tol=1e-10).value

            diag = SparseMatrix.from_dense(np.diag(np.diag(ad)))
            b = SparseMatrix.from_dense(np.diag(np.diag(ad)) - ad)
            op_d = ContractionOperator(Splitting(diag, b))
            rho_d = spectral_radius_nonneg(op_d, n, tol=1e-10).value
            assert rho_m <= rho_d + 1e-8
            assert rho_d < 1.0


class TestContractionOperator:
    """The operator v -> <M>^-1 |N| v for each factor structure."""

    @staticmethod
    def _inverse(m):
        """Splitting (m, I), whose operator is v -> <m>^-1 v."""
        return ContractionOperator(
            Splitting(m, SparseMatrix.from_dense(np.eye(m.n_rows))))

    def test_two_by_two(self):
        op = self._inverse(SparseMatrix.from_dense([[4.0, -1.0], [-1.0, 4.0]]))
        assert op.structure == "general"
        assert np.allclose(op(np.ones(2)), [1.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_random_against_dense_inverse(self):
        rng = np.random.default_rng(19)
        general = 0
        for _ in range(20):
            n = int(rng.integers(2, 50))
            m = random_m_matrix(rng, n)
            b = rng.uniform(-2.0, 2.0, n)
            op = self._inverse(m)
            general += op.structure == "general"
            assert np.allclose(op(b), np.linalg.solve(m.to_dense(), b),
                               atol=1e-8)
        assert general > 0

    def test_exact_on_reducible_matrices(self):
        # reducible M-matrices with zeros in b: no clamp, so the LU's
        # rounding is all that separates the result from the dense solve
        reducible = general = 0
        for m, b in reducible_m_matrices():
            reducible += connected_components(m.to_scipy(),
                                              connection="strong")[0] > 1
            op = self._inverse(m)
            general += op.structure == "general"
            assert np.allclose(op(b), np.linalg.solve(m.to_dense(), b),
                               rtol=0.0, atol=1e-10)
        assert reducible > 0 and general > 0

    @pytest.mark.parametrize("variant", [
        "jacobi", "block_lower_triangular", "general"])
    def test_linear_on_signed_vectors(self, grid_problem, variant):
        prob = grid_problem(8)
        ms = general_grid_set(prob, 2) if variant == "general" \
            else build_block_splitting(prob.A, Partition.contiguous(64, 2),
                                       variant)
        op = ContractionOperator(ms.splittings[1])
        rng = np.random.default_rng(5)
        v, w = rng.standard_normal((2, prob.n))
        a, b = -1.5, 0.75
        assert np.allclose(op(a * v + b * w), a * op(v) + b * op(w),
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(op(v), dense_contraction_matrix(
            ms.splittings[1].M, ms.splittings[1].N) @ v, rtol=1e-10,
            atol=1e-12)

    def test_exact_diagonal_checked_at_construction(self):
        low = SparseMatrix.from_dense([[2.0, 0.0], [-1.0, 0.0]])
        assert factor_structure(low) == "lower_triangular"
        with pytest.raises(ValueError, match="^lower_triangular splitting "
                                             "factor has a zero diagonal"):
            self._inverse(low)

    def test_factorized_once_without_classify(self, monkeypatch,
                                              grid_problem):
        import mslcp.hmatrix
        import mslcp.splitting
        split = general_grid_set(grid_problem(8), 2).splittings[0]
        calls = {"classify": 0, "splu": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for module in (mslcp.hmatrix, mslcp.splitting):
            monkeypatch.setattr(module, "classify",
                                counting("classify", module.classify))
        monkeypatch.setattr(mslcp.splitting, "splu",
                            counting("splu", mslcp.splitting.splu))
        op = ContractionOperator(split)
        assert calls == {"classify": 0, "splu": 1}
        v = np.ones(split.n)
        for _ in range(5):
            v = op(v)
        min_inner_count(Splitting(split.M, split.N), 0.5)
        assert calls == {"classify": 0, "splu": 2}

    def test_rejects_non_m_matrix(self):
        with pytest.raises(ValueError, match="comparison matrix of M is not "
                                             "an M-matrix; contraction "
                                             "operator undefined"):
            self._inverse(SparseMatrix.from_dense([[1.0, -2.0], [-2.0, 1.0]]))

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="comparison matrix of M is not "
                                             "an M-matrix; contraction "
                                             "operator undefined"):
            self._inverse(SparseMatrix.from_dense([[1.0, -1.0], [-1.0, 1.0]]))
