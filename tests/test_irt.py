"""Monte Carlo and exact p-value tests."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from irtlab import (
    BernoulliDesign,
    CompleteDesign,
    EmpiricalImputer,
    ImputationRandomizationTest,
    OracleImputer,
    ThreeLevelExposure,
    TwoStageDesign,
    build_network,
    cluster_network,
    exact_frt_pvalue,
    frt_pvalue_mc,
    irt_pvalue,
    irt_pvalue_nested,
    observed_theta,
)
from irtlab.errors import (
    ResampleBudgetExceededError,
    UndefinedObservedStatisticError,
    UnknownLabelError,
)
from irtlab import designs
from irtlab.imputation import PointMass
from irtlab.irt import exact_frt_pvalue_fraction
from irtlab.teststat import diff_in_means


def reference_exact_pvalue(design, emap, a, b, theta, z_obs, undefined="renormalize"):
    """Exact p-value by the per-assignment loop: one exposure call, one
    scalar statistic and Fraction additions per support point."""
    t_obs = diff_in_means(emap(z_obs), theta, a, b)
    if t_obs is None:
        raise UndefinedObservedStatisticError("undefined at z_obs")
    extreme = defined = undefined_mass = Fraction(0)
    for z, prob in design.enumerate_support():
        t = diff_in_means(emap(z), theta, a, b)
        if t is None:
            undefined_mass += prob
            continue
        defined += prob
        if t >= t_obs:
            extreme += prob
    if undefined == "extreme":
        return extreme + undefined_mass
    if defined == 0:
        raise UndefinedObservedStatisticError("undefined on the whole support")
    return extreme / defined


@hst.composite
def exact_instances(draw):
    """A random small graph, a design on it, a contrast, a nuisance vector
    with ties and an observed assignment from the design's support."""
    kind = draw(hst.sampled_from(["bernoulli", "complete", "two_stage"]))
    if kind == "two_stage":
        sizes = draw(hst.lists(hst.integers(1, 3), min_size=2, max_size=4))
        n = sum(sizes)
        design = TwoStageDesign(np.repeat(np.arange(len(sizes)), sizes))
    else:
        n = draw(hst.integers(2, 7))
        if kind == "bernoulli":
            design = BernoulliDesign(n, draw(hst.sampled_from([0.0, 1.0, 0.5, 0.3])))
        else:
            design = CompleteDesign(n, draw(hst.integers(0, n)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(hst.lists(hst.sampled_from(pairs), max_size=2 * n)) if pairs else []
    emap = ThreeLevelExposure(build_network(n, edges))
    a, b = draw(hst.permutations([0, 1, 2]))[:2]
    theta = draw(hst.lists(hst.sampled_from([-1.5, 0.0, 0.25, 2.0]), min_size=n, max_size=n))
    support = design.enumerate_support()
    z_obs = support[draw(hst.integers(0, len(support) - 1))][0]
    return design, emap, a, b, np.array(theta), z_obs


def small_instance():
    # one treated unit: its cluster mates get exposure 1, the other cluster 0
    net = cluster_network([0, 0, 0, 1, 1, 1])
    return CompleteDesign(6, 1), ThreeLevelExposure(net)


class TestFrtMc:
    def test_constant_theta_gives_one(self):
        design, emap = small_instance()
        res = frt_pvalue_mc(design, emap, 0, 1, np.full(6, 3.0), [1, 0, 0, 0, 0, 0], k=200, rng=0)
        assert res.p_hat == 1.0

    def test_k_one_is_zero_or_one(self):
        design, emap = small_instance()
        res = frt_pvalue_mc(
            design, emap, 0, 1, [1.0, 4.0, 2.0, 8.0, -1.0, 3.0], [1, 0, 0, 0, 0, 0], k=1, rng=5
        )
        assert res.p_hat in (0.0, 1.0)

    def test_matches_exact_within_mc_error(self):
        design, emap = small_instance()
        theta = [1.0, 4.0, 2.0, 8.0, -1.0, 3.0]
        z_obs = [1, 0, 0, 0, 0, 0]
        k = 10_000
        exact = exact_frt_pvalue(design, emap, 0, 1, theta, z_obs)
        res = frt_pvalue_mc(design, emap, 0, 1, theta, z_obs, k=k, rng=3)
        assert abs(res.p_hat - exact) <= 3 / np.sqrt(k)

    def test_result_bookkeeping(self):
        design, emap = small_instance()
        res = frt_pvalue_mc(
            design, emap, 0, 1, [1.0, 4.0, 2.0, 8.0, -1.0, 3.0], [1, 0, 0, 0, 0, 0], k=500, rng=7
        )
        assert res.p_hat == res.extreme_count / res.k
        assert 0.0 <= res.p_hat <= 1.0
        assert res.seed == 7

    def test_undefined_observed_statistic(self):
        design, emap = small_instance()
        with pytest.raises(UndefinedObservedStatisticError):
            frt_pvalue_mc(design, emap, 0, 1, np.ones(6), [1, 1, 1, 1, 1, 1], k=10, rng=0)

    def test_unknown_label(self):
        design, emap = small_instance()
        with pytest.raises(UnknownLabelError):
            frt_pvalue_mc(design, emap, 0, 7, np.ones(6), [1, 0, 0, 0, 0, 0], k=10, rng=0)

    def test_resample_budget_exceeded(self):
        # the design's whole support yields undefined statistics, while the
        # hand-picked observed assignment is defined
        net = build_network(2, [(0, 1)])
        emap = ThreeLevelExposure(net)
        design = BernoulliDesign(2, 1.0)
        with pytest.raises(ResampleBudgetExceededError):
            frt_pvalue_mc(design, emap, 1, 2, [1.0, 2.0], [0, 1], k=10, rng=0)

    def test_determinism(self):
        design, emap = small_instance()
        args = (design, emap, 0, 1, [1.0, 4.0, 2.0, 8.0, -1.0, 3.0], [1, 0, 0, 0, 0, 0])
        assert frt_pvalue_mc(*args, k=300, rng=11) == frt_pvalue_mc(*args, k=300, rng=11)


class TestExactFrt:
    def test_no_interference_two_units(self):
        net = build_network(2, [])
        design = CompleteDesign(2, 1)
        emap = ThreeLevelExposure(net)
        p = exact_frt_pvalue(design, emap, 0, 2, [0.0, 1.0], [1, 0])
        assert p == 1.0  # both assignments give the same statistic value

    def test_constant_theta(self):
        design, emap = small_instance()
        assert exact_frt_pvalue(design, emap, 0, 1, np.ones(6), [1, 0, 0, 0, 0, 0]) == 1.0

    def test_returns_fraction(self):
        design, emap = small_instance()
        p = exact_frt_pvalue_fraction(
            design, emap, 0, 1, [1.0, 4.0, 2.0, 8.0, -1.0, 3.0], [1, 0, 0, 0, 0, 0]
        )
        assert isinstance(p, Fraction)
        assert 0 < p <= 1

    def test_undefined_policy_extreme_at_least_renormalize(self):
        # counting undefined draws as extreme can only raise the p-value
        net = build_network(3, [(0, 1)])
        design = BernoulliDesign(3, 0.5)
        emap = ThreeLevelExposure(net)
        theta = [1.0, 2.0, 5.0]
        z_obs = [1, 0, 0]
        p_renorm = exact_frt_pvalue_fraction(design, emap, 1, 2, theta, z_obs)
        p_extreme = exact_frt_pvalue_fraction(
            design, emap, 1, 2, theta, z_obs, undefined="extreme"
        )
        assert p_extreme >= p_renorm

    def test_validity_small_instance(self):
        # over observed assignments drawn from the design, P(p <= alpha) <= alpha
        design, emap = small_instance()
        theta = np.array([0.3, -1.2, 0.8, 0.1, 1.7, -0.4])
        support = design.enumerate_support()
        pvals = []
        for z, prob in support:
            pvals.append(
                (exact_frt_pvalue_fraction(design, emap, 0, 1, theta, z), prob)
            )
        for alpha, _ in pvals:
            mass = sum(prob for p, prob in pvals if p <= alpha)
            assert mass <= alpha


class TestExactEngine:
    @staticmethod
    def outcome(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except UndefinedObservedStatisticError:
            return "undefined"

    @settings(max_examples=150, deadline=None)
    @given(exact_instances(), hst.sampled_from(["renormalize", "extreme"]))
    def test_matches_per_assignment_reference(self, instance, policy):
        design, emap, a, b, theta, z_obs = instance
        expected = self.outcome(
            reference_exact_pvalue, design, emap, a, b, theta, z_obs, policy
        )
        got = self.outcome(
            exact_frt_pvalue_fraction, design, emap, a, b, theta, z_obs, policy
        )
        assert got == expected
        if got != "undefined":
            assert isinstance(got, Fraction)

    @pytest.mark.parametrize("block_cells", [9, 18, 63, 180])
    def test_blocks_smaller_than_support_give_identical_fraction(
        self, block_cells, monkeypatch
    ):
        memberships = [0, 0, 0, 1, 1, 2, 2, 2, 3]
        design = TwoStageDesign(memberships)
        emap = ThreeLevelExposure(cluster_network(memberships))
        rng = np.random.default_rng(4)
        theta = rng.standard_normal(9)
        z_obs = design.sample(rng)
        whole = exact_frt_pvalue_fraction(design, emap, 0, 1, theta, z_obs)
        # 9 units: at most 1, 2, 7 and 20 of the 29 assignments per block,
        # and a cluster subset has at most 9
        monkeypatch.setattr(designs, "BLOCK_CELLS", block_cells)
        _, blocks = design.support_blocks()
        assert max(len(Z) for Z, _ in blocks) == min(block_cells // 9, 9)
        chunked = exact_frt_pvalue_fraction(design, emap, 0, 1, theta, z_obs)
        assert chunked == whole
        assert chunked == reference_exact_pvalue(design, emap, 0, 1, theta, z_obs)


class TestIrtPvalue:
    def make_clustered(self):
        memberships = [0, 0, 0, 1, 1, 1, 2, 2, 2]
        net = cluster_network(memberships)
        return TwoStageDesign(memberships), ThreeLevelExposure(net)

    def test_fully_observed_oracle_matches_frt(self):
        # with nothing to impute, the imputation layer must be a no-op
        net = build_network(4, [])
        design = CompleteDesign(4, 2)
        emap = ThreeLevelExposure(net)
        theta = np.array([0.2, 1.4, -0.5, 0.9])
        z_obs = np.array([1, 0, 1, 0])
        partial = observed_theta(emap(z_obs), theta, 0, 2)
        assert partial.missing_rate == 0.0
        imp = OracleImputer(PointMass(0.0))
        res_irt = irt_pvalue(design, emap, 0, 2, partial, imp, z_obs, k=400, rng=21)
        res_frt = frt_pvalue_mc(design, emap, 0, 2, theta, z_obs, k=400, rng=21)
        assert res_irt.p_hat == res_frt.p_hat

    def test_point_mass_oracle_matches_frt_on_constant_completion(self):
        design, emap = self.make_clustered()
        rng = np.random.default_rng(0)
        z_obs = design.sample(rng)
        y = np.arange(9, dtype=float)
        partial = observed_theta(emap(z_obs), y, 0, 1)
        c = 4.0
        res_irt = irt_pvalue(
            design, emap, 0, 1, partial, OracleImputer(PointMass(c)), z_obs, k=500, rng=33
        )
        theta_completed = np.where(partial.observed, partial.values, c)
        res_frt = frt_pvalue_mc(design, emap, 0, 1, theta_completed, z_obs, k=500, rng=33)
        assert res_irt.p_hat == res_frt.p_hat

    def test_determinism(self):
        design, emap = self.make_clustered()
        z_obs = design.sample(1)
        partial = observed_theta(emap(z_obs), np.arange(9, dtype=float), 0, 1)
        res1 = irt_pvalue(design, emap, 0, 1, partial, EmpiricalImputer(), z_obs, k=300, rng=5)
        res2 = irt_pvalue(design, emap, 0, 1, partial, EmpiricalImputer(), z_obs, k=300, rng=5)
        assert res1 == res2

    def test_reject_threshold(self):
        design, emap = self.make_clustered()
        z_obs = design.sample(1)
        partial = observed_theta(emap(z_obs), np.arange(9, dtype=float), 0, 1)
        res = irt_pvalue(design, emap, 0, 1, partial, EmpiricalImputer(), z_obs, k=300, rng=5)
        assert res.reject(1.0)
        assert not res.reject(0.0) or res.p_hat == 0.0


class TestNestedMode:
    def setup_instance(self):
        memberships = [0, 0, 0, 1, 1, 1, 2, 2, 2]
        net = cluster_network(memberships)
        design = TwoStageDesign(memberships)
        emap = ThreeLevelExposure(net)
        z_obs = design.sample(2)
        y = np.array([0.5, -0.3, 1.2, 0.1, 0.8, -1.1, 0.0, 0.6, -0.7])
        partial = observed_theta(emap(z_obs), y, 0, 1)
        return design, emap, z_obs, partial

    def test_inner_one_equals_paired(self):
        design, emap, z_obs, partial = self.setup_instance()
        paired = irt_pvalue(
            design, emap, 0, 1, partial, EmpiricalImputer(), z_obs, k=200, rng=9
        )
        nested = irt_pvalue_nested(
            design, emap, 0, 1, partial, EmpiricalImputer(), z_obs,
            k_outer=200, k_inner=1, rng=9,
        )
        assert nested == paired

    def test_outer_one_point_mass_equals_frt(self):
        design, emap, z_obs, partial = self.setup_instance()
        c = 2.0
        nested = irt_pvalue_nested(
            design, emap, 0, 1, partial, OracleImputer(PointMass(c)), z_obs,
            k_outer=1, k_inner=150, rng=13,
        )
        theta_completed = np.where(partial.observed, partial.values, c)
        frt = frt_pvalue_mc(design, emap, 0, 1, theta_completed, z_obs, k=150, rng=13)
        assert nested.p_hat == frt.p_hat

    def test_nested_and_paired_means_agree(self):
        design, emap, z_obs, partial = self.setup_instance()
        reps = 200
        rng = np.random.default_rng(17)
        paired = np.empty(reps)
        nested = np.empty(reps)
        for i in range(reps):
            paired[i] = irt_pvalue(
                design, emap, 0, 1, partial, EmpiricalImputer(), z_obs, k=40, rng=rng
            ).p_hat
            nested[i] = irt_pvalue_nested(
                design, emap, 0, 1, partial, EmpiricalImputer(), z_obs,
                k_outer=8, k_inner=5, rng=rng,
            ).p_hat
        se = np.sqrt(paired.var() / reps + nested.var() / reps)
        assert abs(paired.mean() - nested.mean()) <= 4 * se


class TestEstimatorFacade:
    def test_fit_and_params(self):
        memberships = [0, 0, 1, 1, 2, 2]
        net = cluster_network(memberships)
        design = TwoStageDesign(memberships)
        emap = ThreeLevelExposure(net)
        est = ImputationRandomizationTest(
            design, emap, 0, 1, EmpiricalImputer(), k=200, seed=4
        )
        z_obs = design.sample(0)
        est.fit(z_obs, np.arange(6, dtype=float))
        assert est.p_value_ == est.result_.p_hat
        assert 0.0 <= est.p_value_ <= 1.0
        assert est.get_params()["k"] == 200
        est.set_params(k=50)
        assert est.k == 50
        with pytest.raises(ValueError):
            est.set_params(bogus=1)

    def test_refit_is_deterministic(self):
        memberships = [0, 0, 1, 1, 2, 2]
        design = TwoStageDesign(memberships)
        emap = ThreeLevelExposure(cluster_network(memberships))
        est = ImputationRandomizationTest(
            design, emap, 0, 1, EmpiricalImputer(), k=100, seed=8
        )
        z_obs = design.sample(1)
        y = np.arange(6, dtype=float)
        p1 = est.fit(z_obs, y).p_value_
        p2 = est.fit(z_obs, y).p_value_
        assert p1 == p2
