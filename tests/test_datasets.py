import re

import numpy as np
import pytest

from duelsim import (
    arithmetic_matrix,
    builtin,
    hard_instance_pair,
    list_builtin,
    load_matrix_csv,
    save_matrix_csv,
)
from duelsim.datasets import BUILTIN_SPECS, resolve


class TestArithmetic:
    def test_corner_entries(self):
        m = arithmetic_matrix(10)
        assert m.mu[0, 9] == pytest.approx(0.725)
        assert m.mu[9, 0] == pytest.approx(0.275)

    def test_diagonal_half(self):
        for k in (2, 7, 21):
            assert np.all(np.diag(arithmetic_matrix(k).mu) == 0.5)

    def test_gap_progression(self):
        gaps = arithmetic_matrix(10).gaps()
        assert gaps[1] == pytest.approx(0.025)
        assert gaps[9] == pytest.approx(0.225)

    def test_k_range_enforced(self):
        with pytest.raises(ValueError):
            arithmetic_matrix(1)
        with pytest.raises(ValueError):
            arithmetic_matrix(22)  # 0.025 * 21 would push entries past [0, 1]
        arithmetic_matrix(21)  # boundary is fine


class TestHardInstance:
    def test_first_instance_structure(self):
        mu1, k_star, mu2 = hard_instance_pair(3, 0.1, k_star=1)
        assert mu1.winner == 0
        assert mu1.mu[0, 1] == pytest.approx(0.6)
        assert mu1.mu[1, 2] == pytest.approx(0.5)

    def test_second_instance_promotes_designated_arm(self):
        _, k_star, mu2 = hard_instance_pair(3, 0.1, k_star=1)
        assert k_star == 1
        assert mu2.winner == 1
        assert mu2.mu[1, 0] == pytest.approx(0.6)
        assert mu2.mu[1, 2] == pytest.approx(0.7)
        assert mu2.mu[2, 1] == pytest.approx(0.3)

    def test_other_entries_untouched(self):
        mu1, k_star, mu2 = hard_instance_pair(5, 0.05, k_star=3)
        for i in range(5):
            for j in range(5):
                if i != k_star and j != k_star:
                    assert mu2.mu[i, j] == mu1.mu[i, j]

    def test_degenerate_delta_rejected(self):
        with pytest.raises(ValueError):
            hard_instance_pair(3, 0.0)
        with pytest.raises(ValueError):
            hard_instance_pair(3, 0.2)  # above 1/8
        with pytest.raises(ValueError):
            hard_instance_pair(2, 0.1)
        with pytest.raises(ValueError):
            hard_instance_pair(4, 0.1, k_star=0)  # winner cannot be promoted


class TestCsvRoundTrip:
    def test_arithmetic_bit_exact(self, tmp_path):
        m = arithmetic_matrix(10)
        path = tmp_path / "arith.csv"
        save_matrix_csv(m, path)
        loaded = load_matrix_csv(path)
        assert np.array_equal(loaded.mu, m.mu)
        assert loaded.winner == m.winner

    def test_shipped_arithmetic_matches_generator(self):
        assert np.array_equal(builtin("arithmetic").mu, arithmetic_matrix(10).mu)

    def test_malformed_row_length(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.6\n0.4\n")
        with pytest.raises(ValueError, match="row 1"):
            load_matrix_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.6\n0.4,oops\n")
        with pytest.raises(ValueError, match="row 1, column 1"):
            load_matrix_csv(path)

    def test_non_square(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.6,0.7\n0.4,0.5,0.6\n")
        with pytest.raises(ValueError, match="not square"):
            load_matrix_csv(path)

    def test_complement_violation_surfaces(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.6\n0.6,0.5\n")
        with pytest.raises(ValueError, match=r"^mu\[0,1\] \+ mu\[1,0\] = 1\.200000000 != 1$"):
            load_matrix_csv(path)

    def test_no_winner_surfaces(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5\n0.5,0.5\n")
        with pytest.raises(ValueError, match="^0 rows dominate all others; expected exactly 1$"):
            load_matrix_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: empty matrix file$"):
            load_matrix_csv(path)


# name -> arm count, pinned here: the registry itself holds only file names
BUILTIN_SIZES = {
    "six-rankers": 6, "mslr": 5, "tennis": 8, "arithmetic": 10, "car": 10, "sushi": 16,
}


class TestBuiltinRegistry:
    def test_expected_names_and_sizes(self):
        assert dict(list_builtin()) == BUILTIN_SIZES

    @pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
    def test_every_builtin_validates(self, name):
        m = builtin(name)
        assert m.k == BUILTIN_SIZES[name]
        assert np.all(m.mu + m.mu.T == 1.0)
        off = ~np.eye(m.k, dtype=bool)
        assert np.all(m.mu[m.winner][off[m.winner]] > 0.5)

    def test_unknown_name(self):
        with pytest.raises(ValueError) as info:
            builtin("mnist")
        assert str(info.value) == (
            "unknown dataset 'mnist'; "
            "built-ins are: arithmetic, car, mslr, six-rankers, sushi, tennis"
        )

    def test_resolve_unknown_name_lists_the_builtins(self):
        with pytest.raises(ValueError) as info:
            resolve("six_rankers")
        assert str(info.value) == (
            "unknown dataset 'six_rankers' is neither a built-in nor a file; "
            "built-ins are: arithmetic, car, mslr, six-rankers, sushi, tennis"
        )

    def test_resolve_keeps_parse_errors_of_an_existing_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,x\n0.5,0.5\n")
        with pytest.raises(ValueError, match="row 0, column 1"):
            resolve(str(path))

    def test_resolve_name_or_path(self, tmp_path):
        assert resolve("arithmetic").k == 10
        path = tmp_path / "m.csv"
        save_matrix_csv(arithmetic_matrix(4), path)
        assert resolve(str(path)).k == 4
