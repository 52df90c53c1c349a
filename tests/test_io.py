"""File round trips: MatrixMarket, vectors, partitions."""

import re

import numpy as np
import pytest

from mslcp import GridLcpSpec, Partition, make_grid_lcp
from mslcp.io import (read_matrix_market, read_partition, read_vector,
                      write_matrix_market, write_partition, write_vector)

from conftest import random_sparse_hplus


class TestMatrixMarket:
    def test_grid_roundtrip(self, tmp_path):
        a = make_grid_lcp(GridLcpSpec(p=3)).A
        path = tmp_path / "grid.mtx"
        write_matrix_market(path, a)
        back = read_matrix_market(path)
        assert back.equal_entries(a)

    def test_nonsymmetric_roundtrip(self, tmp_path):
        rng = np.random.default_rng(83)
        a = random_sparse_hplus(rng, 15)
        path = tmp_path / "a.mtx"
        write_matrix_market(path, a)
        assert read_matrix_market(path).equal_entries(a)


class TestVectors:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(89)
        v = rng.standard_normal(37)
        path = tmp_path / "v.txt"
        write_vector(path, v)
        assert np.array_equal(read_vector(path), v)

    def test_rejects_nan_on_read(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\nnan\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, "
                                             f"line 2: 'nan' is not finite$"):
            read_vector(path)

    @pytest.mark.parametrize("token", ["inf", "-Infinity", "1e999"])
    def test_nonfinite_entry_names_file_and_line(self, tmp_path, token):
        path = tmp_path / "rhs.txt"
        path.write_text(f"1.0\n\n2.5\n {token} \n3.0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, "
                                             f"line 4: '{token}' is not "
                                             f"finite$"):
            read_vector(path)

    def test_bad_token_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n\nabc\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, "
                                             f"line 3: 'abc' is not "
                                             f"a number$"):
            read_vector(path)


class TestPartitions:
    def test_roundtrip(self, tmp_path):
        part = Partition(6, 2, (np.array([0, 2, 4]), np.array([1, 3, 5])))
        path = tmp_path / "part.txt"
        write_partition(path, part)
        back = read_partition(path, 6)
        assert back.m == 2
        assert all(np.array_equal(a, b)
                   for a, b in zip(back.owner_sets, part.owner_sets))

    def test_invalid_file_rejected(self, tmp_path):
        path = tmp_path / "part.txt"
        path.write_text("0 1\n1 2\n")  # overlap
        with pytest.raises(ValueError, match="disjoint"):
            read_partition(path, 3)

    def test_bad_token_names_file_and_line(self, tmp_path):
        path = tmp_path / "part.txt"
        path.write_text("# blocks\n0 1 2\n3 14.5\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, "
                                             f"line 3: '14.5' is not "
                                             f"an integer$"):
            read_partition(path, 16)

    @pytest.mark.parametrize("text, message", [
        ("0 1\n# comment\n\n2 9 3\n", "line 4: partition block 1 holds "
                                         "index 9, outside [0, 4)"),
        ("0 1 1\n2 3\n", "line 1: partition block 0 repeats index 1"),
        ("0 1\n1 2 3\n", "line 2: partition block 1 holds index 1, which "
                         "block 0 holds too; blocks must be disjoint"),
    ], ids=["out-of-range", "repeated", "overlap"])
    def test_invalid_block_names_file_line_and_index(self, tmp_path, text,
                                                     message):
        path = tmp_path / "part.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, "
                                             f"{re.escape(message)}$"):
            read_partition(path, 4)

    def test_gap_names_no_line(self, tmp_path):
        path = tmp_path / "part.txt"
        path.write_text("0 1\n3\n")
        with pytest.raises(ValueError, match="^partition blocks must cover "
                                             "every index; none holds 2$"):
            read_partition(path, 4)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no blocks"):
            read_partition(path, 3)
