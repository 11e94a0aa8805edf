import numpy as np
import pytest

from maskcov import InputError
from maskcov.serialize import matrix_from_csv, matrix_to_csv


class TestMatrixCsv:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(20)
        mat = rng.standard_normal((5, 3))
        path = tmp_path / "m.csv"
        matrix_to_csv(mat, path)
        assert np.array_equal(matrix_from_csv(path), mat)

    def test_format_is_headerless_dot_decimal(self, tmp_path):
        path = tmp_path / "m.csv"
        matrix_to_csv([[1.5, 2.0]], path)
        assert path.read_text() == "1.5,2.0\n"

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            matrix_from_csv(tmp_path / "nope.csv")
