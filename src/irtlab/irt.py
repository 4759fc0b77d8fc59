"""Randomization-test p-values: Monte Carlo estimators and an exact
enumeration oracle.

``frt_pvalue_mc`` handles the sharp-null case where the full nuisance
vector is known. ``irt_pvalue`` interleaves one fresh imputation with one
fresh assignment per iteration and averages the extreme-statistic
indicators; ``irt_pvalue_nested`` averages inner Monte Carlo estimates over
outer imputations instead. ``exact_frt_pvalue`` sums exact design
probabilities over the enumerated support.

Every path evaluates the statistic with ``batch_diff_in_means``, whose row
values do not depend on the batch, so the observed statistic ties exactly
with any support row or draw that has the same focal groups.

Cost model of the exact path: it streams the support in blocks of stacked
assignments (``Design.support_blocks``). Per block it runs the exposure
map and the statistic once, vectorized, and tallies extreme and defined
rows per probability class with ``np.bincount``. Fraction work is one
multiply per probability class, never per assignment, and memory is
O(chunk * n), with chunk = ``designs.BLOCK_CELLS // n`` rows per block,
plus one probability reference per class, whatever the support size up
to the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .designs import Design, as_rng
from .errors import (
    ResampleBudgetExceededError,
    UndefinedObservedStatisticError,
    UnknownLabelError,
)
from .teststat import (
    PartialTheta,
    batch_diff_in_means,
    diff_in_means,
    observed_theta,
)

RESAMPLE_BUDGET_FACTOR = 100


@dataclass(frozen=True)
class IrtResult:
    """Monte Carlo p-value estimate with its bookkeeping."""

    p_hat: float
    k: int
    extreme_count: int
    undefined_resamples: int
    seed: object = None

    def reject(self, alpha: float) -> bool:
        return self.p_hat <= alpha


def _check_contrast(exposure_map, a, b):
    labels = getattr(exposure_map, "labels", None)
    if labels is not None:
        for label in (a, b):
            if label not in labels:
                raise UnknownLabelError(
                    f"contrast label {label!r} not in exposure set {labels}"
                )


def _mc_extreme_count(design, exposure_map, a, b, Theta, t_obs, k, rng):
    """Count iterations with T(z_k, theta_k) >= t_obs.

    ``Theta`` is (k, n) with one nuisance vector per iteration, or (1, n)
    shared by all iterations. Assignments whose statistic is undefined are
    redrawn (the paired theta row is kept) under a total budget of
    RESAMPLE_BUDGET_FACTOR * k extra draws.
    """
    Z = design.sample_batch(k, rng)
    E = exposure_map.batch(Z)
    t = batch_diff_in_means(E, Theta, a, b)
    undefined = np.isnan(t)
    resamples = 0
    while undefined.any():
        idx = np.flatnonzero(undefined)
        resamples += len(idx)
        if resamples > RESAMPLE_BUDGET_FACTOR * k:
            raise ResampleBudgetExceededError(
                f"exceeded {RESAMPLE_BUDGET_FACTOR * k} redraws of "
                "assignments with undefined statistic"
            )
        Z_new = design.sample_batch(len(idx), rng)
        E_new = exposure_map.batch(Z_new)
        theta_rows = Theta if Theta.shape[0] == 1 else Theta[idx]
        t[idx] = batch_diff_in_means(E_new, theta_rows, a, b)
        undefined = np.isnan(t)
    return int((t >= t_obs).sum()), resamples


def frt_pvalue_mc(
    design: Design,
    exposure_map,
    a,
    b,
    theta,
    z_obs,
    k: int = 2000,
    rng=None,
) -> IrtResult:
    """Monte Carlo FRT p-value for a fully known nuisance vector."""
    _check_contrast(exposure_map, a, b)
    seed = rng if not isinstance(rng, np.random.Generator) else None
    rng = as_rng(rng)
    theta = np.asarray(theta, dtype=float)
    t_obs = diff_in_means(exposure_map(z_obs), theta, a, b)
    if t_obs is None:
        raise UndefinedObservedStatisticError(
            "statistic undefined at the observed assignment"
        )
    extreme, resamples = _mc_extreme_count(
        design, exposure_map, a, b, theta[None, :], t_obs, k, rng
    )
    return IrtResult(
        p_hat=extreme / k,
        k=k,
        extreme_count=extreme,
        undefined_resamples=resamples,
        seed=seed,
    )


def irt_pvalue(
    design: Design,
    exposure_map,
    a,
    b,
    partial: PartialTheta,
    imputer,
    z_obs,
    k: int = 2000,
    rng=None,
) -> IrtResult:
    """Imputation-based randomization test p-value (paired mode).

    Each iteration draws one completed nuisance vector and one fresh
    assignment; the p-value is the average of the extreme indicators. The
    imputer is (re)fitted on the observed entries of ``partial``.
    """
    _check_contrast(exposure_map, a, b)
    seed = rng if not isinstance(rng, np.random.Generator) else None
    rng = as_rng(rng)
    imputer.fit(partial.observed_values())
    e_obs = exposure_map(z_obs)
    t_obs = diff_in_means(e_obs, partial.values, a, b)
    if t_obs is None:
        raise UndefinedObservedStatisticError(
            "observed focal groups must both be non-empty"
        )
    # Observed entries are copied verbatim by every imputer and the focal
    # sets at z_obs are exactly the observed units, so T(z_obs, theta_imp)
    # equals t_obs for every imputation.
    Theta = imputer.draw_batch(partial, k, rng)
    extreme, resamples = _mc_extreme_count(
        design, exposure_map, a, b, Theta, t_obs, k, rng
    )
    return IrtResult(
        p_hat=extreme / k,
        k=k,
        extreme_count=extreme,
        undefined_resamples=resamples,
        seed=seed,
    )


def irt_pvalue_nested(
    design: Design,
    exposure_map,
    a,
    b,
    partial: PartialTheta,
    imputer,
    z_obs,
    k_outer: int = 100,
    k_inner: int = 100,
    rng=None,
) -> IrtResult:
    """Nested-mode estimate: average of inner FRT estimates over outer
    imputations. With k_inner=1 this is exactly paired mode with
    k=k_outer (same code path, same draws).
    """
    if k_inner == 1:
        return irt_pvalue(
            design, exposure_map, a, b, partial, imputer, z_obs, k_outer, rng
        )
    _check_contrast(exposure_map, a, b)
    seed = rng if not isinstance(rng, np.random.Generator) else None
    rng = as_rng(rng)
    imputer.fit(partial.observed_values())
    e_obs = exposure_map(z_obs)
    t_obs = diff_in_means(e_obs, partial.values, a, b)
    if t_obs is None:
        raise UndefinedObservedStatisticError(
            "observed focal groups must both be non-empty"
        )
    total_extreme = 0
    total_resamples = 0
    for _ in range(k_outer):
        theta = imputer.draw(partial, rng)
        extreme, resamples = _mc_extreme_count(
            design, exposure_map, a, b, theta[None, :], t_obs, k_inner, rng
        )
        total_extreme += extreme
        total_resamples += resamples
    k = k_outer * k_inner
    return IrtResult(
        p_hat=total_extreme / k,
        k=k,
        extreme_count=total_extreme,
        undefined_resamples=total_resamples,
        seed=seed,
    )


def exact_frt_pvalue_fraction(
    design: Design,
    exposure_map,
    a,
    b,
    theta,
    z_obs,
    undefined: str = "renormalize",
    cap: int = None,
) -> Fraction:
    """Exact FRT p-value over the enumerated support, as a Fraction.

    Assignments with an undefined statistic are excluded and the remaining
    probability mass renormalized (policy "renormalize"), or counted as
    extreme (policy "extreme", the conservative direction). The support is
    evaluated one block of ``Design.support_blocks`` at a time; the result
    does not depend on the block size.
    """
    _check_contrast(exposure_map, a, b)
    theta = np.asarray(theta, dtype=float)
    t_obs = diff_in_means(exposure_map(z_obs), theta, a, b)
    if t_obs is None:
        raise UndefinedObservedStatisticError(
            "statistic undefined at the observed assignment"
        )
    kwargs = {} if cap is None else {"cap": cap}
    probs, blocks = design.support_blocks(**kwargs)
    n_classes = len(probs)
    rows = np.zeros(n_classes, dtype=np.int64)
    defined = np.zeros(n_classes, dtype=np.int64)
    extreme = np.zeros(n_classes, dtype=np.int64)
    for Z, cls in blocks:
        t = batch_diff_in_means(exposure_map.batch(Z), theta, a, b)
        rows += np.bincount(cls, minlength=n_classes)
        defined += np.bincount(cls[~np.isnan(t)], minlength=n_classes)
        extreme += np.bincount(cls[t >= t_obs], minlength=n_classes)

    def mass(counts):
        return sum(
            (p * c for p, c in zip(probs, counts.tolist()) if c), Fraction(0)
        )

    if undefined == "extreme":
        return mass(extreme) + mass(rows - defined)
    mass_defined = mass(defined)
    if mass_defined == 0:
        raise UndefinedObservedStatisticError(
            "statistic undefined on the whole support"
        )
    return mass(extreme) / mass_defined


def exact_frt_pvalue(
    design, exposure_map, a, b, theta, z_obs, undefined="renormalize", cap=None
) -> float:
    """Float version of :func:`exact_frt_pvalue_fraction`."""
    return float(
        exact_frt_pvalue_fraction(
            design, exposure_map, a, b, theta, z_obs, undefined, cap
        )
    )


class ImputationRandomizationTest:
    """Estimator-style facade over :func:`irt_pvalue`.

    Configure with the experiment pieces, then ``fit(z_obs, y_obs)``; the
    estimate lands in ``result_`` / ``p_value_``.
    """

    def __init__(self, design, exposure_map, a, b, imputer, k=2000, seed=0):
        self.design = design
        self.exposure_map = exposure_map
        self.a = a
        self.b = b
        self.imputer = imputer
        self.k = k
        self.seed = seed

    def get_params(self, deep=True):
        return {
            "design": self.design,
            "exposure_map": self.exposure_map,
            "a": self.a,
            "b": self.b,
            "imputer": self.imputer,
            "k": self.k,
            "seed": self.seed,
        }

    def set_params(self, **params):
        for key, value in params.items():
            if key not in self.get_params():
                raise ValueError(f"invalid parameter {key!r}")
            setattr(self, key, value)
        return self

    def fit(self, z_obs, y_obs):
        partial = observed_theta(
            self.exposure_map(z_obs), y_obs, self.a, self.b
        )
        self.partial_ = partial
        self.result_ = irt_pvalue(
            self.design,
            self.exposure_map,
            self.a,
            self.b,
            partial,
            self.imputer,
            z_obs,
            k=self.k,
            rng=self.seed,
        )
        self.p_value_ = self.result_.p_hat
        return self
