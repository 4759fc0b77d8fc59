"""Contrast statistic and partial-observation tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from irtlab import diff_in_means, focal_sets, observed_theta
from irtlab.errors import LengthMismatchError, SameLabelsError
from irtlab.teststat import PartialTheta, batch_diff_in_means

finite_floats = hst.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestFocalSets:
    def test_basic(self):
        fs = focal_sets(np.array([0, 1, 2]), 0, 1)
        assert fs.units_a.tolist() == [0]
        assert fs.units_b.tolist() == [1]
        assert fs.n_a == 1 and fs.n_b == 1

    def test_both_empty(self):
        fs = focal_sets(np.array([2, 2, 2]), 0, 1)
        assert fs.n_a == 0 and fs.n_b == 0

    def test_swap_symmetry(self):
        exposures = np.array([0, 1, 0, 2, 1])
        fwd = focal_sets(exposures, 0, 1)
        rev = focal_sets(exposures, 1, 0)
        assert fwd.units_a.tolist() == rev.units_b.tolist()
        assert fwd.units_b.tolist() == rev.units_a.tolist()

    def test_same_labels(self):
        with pytest.raises(SameLabelsError):
            focal_sets(np.array([0, 1]), 1, 1)


class TestDiffInMeans:
    def test_constant_theta_zero(self):
        exposures = np.array([0, 0, 1, 1])
        assert diff_in_means(exposures, [5.0, 5.0, 5.0, 5.0], 0, 1) == 0.0

    def test_hand_case(self):
        t = diff_in_means(np.array([0, 0, 1, 1]), [1.0, 3.0, 2.0, 6.0], 0, 1)
        assert t == pytest.approx(2.0)

    def test_empty_group_undefined(self):
        assert diff_in_means(np.array([0, 0, 2]), [1.0, 2.0, 3.0], 0, 1) is None

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            diff_in_means(np.array([0, 1]), [1.0], 0, 1)

    @settings(max_examples=100, deadline=None)
    @given(
        hst.lists(
            hst.tuples(hst.sampled_from([0, 1, 2]), finite_floats),
            min_size=2,
            max_size=12,
        ),
        hst.floats(min_value=-100, max_value=100, allow_nan=False),
        hst.floats(min_value=0.01, max_value=100, allow_nan=False),
    )
    def test_symmetry_shift_scale(self, rows, shift, scale):
        exposures = np.array([e for e, _ in rows])
        theta = np.array([v for _, v in rows])
        t = diff_in_means(exposures, theta, 0, 1)
        t_swapped = diff_in_means(exposures, theta, 1, 0)
        if t is None:
            assert t_swapped is None
            return
        assert t >= 0.0
        assert t_swapped == pytest.approx(t)
        assert diff_in_means(exposures, theta + shift, 0, 1) == pytest.approx(
            t, abs=1e-6 * (1 + abs(shift))
        )
        assert diff_in_means(exposures, theta * scale, 0, 1) == pytest.approx(
            scale * t, rel=1e-9
        )

    def test_reduces_to_classic_two_group_contrast(self):
        # with no interference the treated/fully-untreated contrast is the
        # textbook difference in means between arms
        from irtlab import build_network, exposure_three_level

        rng = np.random.default_rng(3)
        net = build_network(10, [])
        for _ in range(20):
            z = rng.integers(0, 2, 10)
            if z.sum() in (0, 10):
                continue
            y = rng.standard_normal(10)
            classic = abs(y[z == 1].mean() - y[z == 0].mean())
            t = diff_in_means(exposure_three_level(net, z), y, 0, 2)
            assert t == pytest.approx(classic)


class TestBatchDiffInMeans:
    def test_matches_scalar(self):
        rng = np.random.default_rng(0)
        E = rng.integers(0, 3, size=(30, 8))
        Theta = rng.standard_normal((30, 8))
        t = batch_diff_in_means(E, Theta, 0, 1)
        for i in range(30):
            scalar = diff_in_means(E[i], Theta[i], 0, 1)
            if scalar is None:
                assert np.isnan(t[i])
            else:
                assert t[i] == pytest.approx(scalar)

    def test_broadcast_single_theta(self):
        E = np.array([[0, 1, 2], [0, 0, 1]])
        theta = np.array([1.0, 4.0, 9.0])
        t = batch_diff_in_means(E, theta, 0, 1)
        assert t[0] == pytest.approx(3.0)
        assert t[1] == pytest.approx(9.0 - 2.5)

    def test_undefined_rows_are_nan(self):
        E = np.array([[2, 2, 2], [0, 1, 2]])
        t = batch_diff_in_means(E, np.ones(3), 0, 1)
        assert np.isnan(t[0]) and t[1] == 0.0

    @settings(max_examples=80, deadline=None)
    @given(
        hst.integers(min_value=1, max_value=6),
        hst.integers(min_value=1, max_value=300),
        hst.booleans(),
        hst.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_rows_are_bit_identical_to_one_row_calls(self, k, n, per_row, seed):
        # criterion 1's exact ties need a row's statistic not to depend on
        # the rows batched with it
        rng = np.random.default_rng(seed)
        E = rng.integers(0, 3, size=(k, n)).astype(np.int8)
        Theta = rng.standard_normal((k, n) if per_row else n) * 10.0 ** rng.integers(-3, 4)
        t = batch_diff_in_means(E, Theta, 0, 1)
        for i in range(k):
            row = Theta[i] if per_row else Theta
            one = batch_diff_in_means(E[i : i + 1], row, 0, 1)
            assert np.array_equal(t[i : i + 1], one, equal_nan=True)
            scalar = diff_in_means(E[i], row, 0, 1)
            assert (scalar is None) if np.isnan(t[i]) else scalar == t[i]

    def test_matches_masked_sum_formula_with_non_finite_theta(self):
        # units outside both groups never reach the statistic, even when
        # their nuisance value is NaN or infinite
        rng = np.random.default_rng(7)
        E = rng.integers(0, 3, size=(40, 12))
        Theta = rng.standard_normal((40, 12))
        Theta[rng.random((40, 12)) < 0.1] = np.nan
        Theta[rng.random((40, 12)) < 0.05] = -np.inf
        mask_a, mask_b = E == 0, E == 1
        n_a, n_b = mask_a.sum(axis=1), mask_b.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            expected = np.abs(
                np.where(mask_b, Theta, 0.0).sum(axis=1) / n_b
                - np.where(mask_a, Theta, 0.0).sum(axis=1) / n_a
            )
        expected[(n_a == 0) | (n_b == 0)] = np.nan
        got = batch_diff_in_means(E, Theta, 0, 1)
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.isfinite(got).any() and np.isnan(got).any()


class TestObservedTheta:
    def test_mask(self):
        partial = observed_theta(np.array([0, 1, 2]), np.array([1.0, 2.0, 3.0]), 0, 1)
        assert partial.observed.tolist() == [True, True, False]
        assert partial.values[0] == 1.0 and partial.values[1] == 2.0
        assert np.isnan(partial.values[2])
        assert partial.missing_rate == pytest.approx(1 / 3)

    def test_fully_observed(self):
        partial = observed_theta(np.array([0, 1, 1]), np.array([1.0, 2.0, 3.0]), 0, 1)
        assert partial.missing_rate == 0.0
        assert partial.observed_values().tolist() == [1.0, 2.0, 3.0]

    def test_fully_missing(self):
        partial = observed_theta(np.array([2, 2]), np.array([1.0, 2.0]), 0, 1)
        assert partial.n_observed == 0
        assert partial.missing_rate == 1.0

    def test_partial_theta_length_check(self):
        with pytest.raises(LengthMismatchError):
            PartialTheta(values=np.zeros(3), observed=np.zeros(2, dtype=bool))
