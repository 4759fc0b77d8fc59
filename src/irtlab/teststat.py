"""Contrast test statistics over exposure groups.

The statistic is the absolute difference in means between the units exposed
to ``b`` and those exposed to ``a``. It is undefined when either group is
empty; that case is signalled with the value-level sentinel ``None`` (never
an exception) so Monte Carlo loops can apply their own resampling policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError, SameLabelsError


@dataclass(frozen=True, eq=False)
class FocalSets:
    """Index sets of the units receiving the two contrasted exposures."""

    units_a: np.ndarray
    units_b: np.ndarray

    @property
    def n_a(self) -> int:
        return len(self.units_a)

    @property
    def n_b(self) -> int:
        return len(self.units_b)


@dataclass(eq=False)
class PartialTheta:
    """Null-implied outcome vector with an observed/missing mask.

    ``values`` holds the observed entries; entries where ``observed`` is
    False are unidentified under the null (stored as NaN) and must be
    imputed before the statistic can be evaluated at other assignments.
    """

    values: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.observed = np.asarray(self.observed, dtype=bool)
        if len(self.values) != len(self.observed):
            raise LengthMismatchError("values and mask lengths differ")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def n_observed(self) -> int:
        return int(self.observed.sum())

    @property
    def n_missing(self) -> int:
        return self.n - self.n_observed

    @property
    def missing_rate(self) -> float:
        return self.n_missing / self.n

    def observed_values(self) -> np.ndarray:
        return self.values[self.observed]


def _check_labels(exposures, a, b):
    if a == b:
        raise SameLabelsError(f"contrast labels must differ, got {a!r} twice")
    return np.asarray(exposures)


def focal_sets(exposures, a, b) -> FocalSets:
    """Units exposed to ``a`` and to ``b`` under one assignment."""
    exposures = _check_labels(exposures, a, b)
    return FocalSets(
        units_a=np.flatnonzero(exposures == a),
        units_b=np.flatnonzero(exposures == b),
    )


def diff_in_means(exposures, theta, a, b):
    """|mean(theta over b-group) - mean(theta over a-group)|.

    Returns None when either group is empty. This is row 0 of
    :func:`batch_diff_in_means` on a one-row batch, so it equals that
    function's value on any batch holding the same row, bit for bit.
    """
    exposures = _check_labels(exposures, a, b)
    theta = np.asarray(theta, dtype=float)
    if len(theta) != len(exposures):
        raise LengthMismatchError("theta length != exposure length")
    t = batch_diff_in_means(exposures[None, :], theta, a, b)[0]
    return None if np.isnan(t) else float(t)


def batch_diff_in_means(E, Theta, a, b) -> np.ndarray:
    """Vectorized statistic over stacked assignments.

    ``E`` is a (k, n) exposure matrix and ``Theta`` either a (k, n) matrix
    (one nuisance vector per row) or a single length-n vector broadcast to
    all rows. Undefined entries come back as NaN. Row i of the result
    depends only on row i of the inputs, bit for bit.
    """
    # C order keeps each row's sum NumPy's pairwise sum along that row, so
    # no BLAS product (whose blocking depends on the shape) is involved
    E = np.ascontiguousarray(E)
    Theta = np.ascontiguousarray(np.atleast_2d(Theta), dtype=float)
    mask_a = E == a
    mask_b = E == b
    n_a = np.count_nonzero(mask_a, axis=1)
    n_b = np.count_nonzero(mask_b, axis=1)
    sum_a = np.where(mask_a, Theta, 0.0).sum(axis=1)
    sum_b = np.where(mask_b, Theta, 0.0).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.abs(sum_b / n_b - sum_a / n_a)
    t[(n_a == 0) | (n_b == 0)] = np.nan
    return t


def observed_theta(exposures_at_zobs, y_obs, a, b) -> PartialTheta:
    """Partially observed nuisance vector at the realized assignment.

    Outcomes are copied for units whose exposure is in {a, b}; everything
    else is masked out as missing.
    """
    exposures = _check_labels(exposures_at_zobs, a, b)
    y_obs = np.asarray(y_obs, dtype=float)
    if len(y_obs) != len(exposures):
        raise LengthMismatchError("outcome length != exposure length")
    observed = (exposures == a) | (exposures == b)
    values = np.where(observed, y_obs, np.nan)
    return PartialTheta(values=values, observed=observed)
