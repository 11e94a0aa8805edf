import math

import pytest

from maskcov import bound_minor, bound_refined, bound_theorem_main


class TestMinor:
    # m = p: the Bai-Yin envelope of the full matrix, the bai_yin column
    def test_bai_yin_square_case(self):
        assert bound_minor(64, 64, 1.0) == pytest.approx(3.0)

    def test_bai_yin_quarter_aspect(self):
        assert bound_minor(100, 400, 1.0) == pytest.approx(1.25)

    def test_bai_yin_zero_sigma(self):
        assert bound_minor(10, 5, 0.0) == 0.0

    def test_square_case(self):
        assert bound_minor(32, 32, 1.0) == pytest.approx(3.0)

    def test_worked_example(self):
        assert bound_minor(4, 64, 2.0) == pytest.approx(1.125)

    def test_zero_m(self):
        assert bound_minor(0, 10, 1.0) == 0.0


class TestTheoremMain:
    def test_zero_mask(self):
        assert bound_theorem_main(0.0, 0.0, 10, 4, 1.0) == 0.0

    def test_natural_log_value(self):
        # frozen regression: ln, not log2 or log10
        value = bound_theorem_main(1.0, 1.0, 100, 1, 1.0)
        assert value == pytest.approx(math.log(2.0) ** 3 * 0.11, rel=1e-12)
        assert value == pytest.approx(0.03663271171878224)


class TestRefined:
    def test_zero_mask(self):
        assert bound_refined(0.0, 0.0, 10, 4, 1.0) == 0.0

    def test_worked_example(self):
        # ceil(ln 2e) = 2: 84 * 0.1 * 2^2.5 + 263 * 0.01 * 8, then doubled
        assert bound_refined(1.0, 1.0, 100, 1, 1.0) == pytest.approx(
            137.115151391472)

    def test_nonincreasing_in_n(self):
        values = [bound_refined(2.0, 3.0, n, 16, 1.0)
                  for n in (10, 100, 1000, 10000)]
        assert values == sorted(values, reverse=True)

    def test_dominates_theorem_main_at_unit_c(self):
        for m in (1, 4, 16, 64):
            for n in (16, 256, 4096):
                for p in (8, 128, 2048):
                    refined = bound_refined(math.sqrt(m), m, n, p, 1.0)
                    main = bound_theorem_main(math.sqrt(m), m, n, p, 1.0)
                    assert refined >= main


def test_monotone_in_inputs():
    grid = [(1.0, 1.0), (2.0, 1.0), (2.0, 3.0)]
    values = [bound_theorem_main(n12, nop, 100, 32, 1.0)
              for n12, nop in grid]
    assert values == sorted(values)
    sig = [bound_refined(1.0, 1.0, 100, 32, s) for s in (0.5, 1.0, 2.0)]
    assert sig == sorted(sig)
