"""Design sampler and exact enumeration tests."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from irtlab import (
    BernoulliDesign,
    CompleteDesign,
    TwoStageDesign,
    designs,
    sample_two_stage,
)
from irtlab.designs import design_from_spec
from irtlab.errors import (
    InvalidDesignError,
    SupportTooLargeError,
    TooFewClustersError,
    ValidationError,
)


class TestBernoulliDesign:
    def test_degenerate_all_treated(self):
        design = BernoulliDesign(3, 1.0)
        for seed in range(5):
            assert design.sample(seed).tolist() == [1, 1, 1]

    def test_degenerate_all_control(self):
        design = BernoulliDesign(3, 0.0)
        assert design.sample(0).tolist() == [0, 0, 0]

    def test_enumeration_half(self):
        design = BernoulliDesign(2, 0.5)
        support = design.enumerate_support()
        assert len(support) == 4
        assert all(prob == Fraction(1, 4) for _, prob in support)
        assert sorted(z.tolist() for z, _ in support) == [
            [0, 0], [0, 1], [1, 0], [1, 1],
        ]

    def test_enumeration_biased_probabilities_exact(self):
        design = BernoulliDesign(3, 0.25)
        support = design.enumerate_support()
        total = sum(prob for _, prob in support)
        assert total == 1
        for z, prob in support:
            t = int(z.sum())
            assert prob == Fraction(1, 4) ** t * Fraction(3, 4) ** (3 - t)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            BernoulliDesign(2, 1.5)

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_invalid_probability_is_validation_error(self, p):
        with pytest.raises(InvalidDesignError) as info:
            BernoulliDesign(2, p)
        assert isinstance(info.value, ValidationError)
        assert isinstance(info.value, ValueError)


class TestCompleteDesign:
    def test_fixed_treated_count(self):
        design = CompleteDesign(7, 3)
        Z = design.sample_batch(200, 0)
        assert (Z.sum(axis=1) == 3).all()

    def test_enumeration(self):
        design = CompleteDesign(4, 2)
        support = design.enumerate_support()
        assert len(support) == 6
        assert all(prob == Fraction(1, 6) for _, prob in support)
        patterns = {tuple(z.tolist()) for z, _ in support}
        assert len(patterns) == 6  # each support point listed exactly once

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            CompleteDesign(3, 4)

    @pytest.mark.parametrize("m", [-1, 4])
    def test_invalid_m_is_validation_error(self, m):
        with pytest.raises(InvalidDesignError):
            CompleteDesign(3, m)


class TestTwoStageDesign:
    def test_two_clusters_structure(self):
        design = TwoStageDesign([0, 0, 0, 1, 1, 1])
        memberships = np.array([0, 0, 0, 1, 1, 1])
        for seed in range(30):
            z = design.sample(seed)
            treated_clusters = np.unique(memberships[z == 1])
            assert len(treated_clusters) == 1  # floor(2/2) clusters
            assert z.sum() == 1  # one unit inside the treated cluster

    def test_singleton_clusters_enumeration(self):
        design = TwoStageDesign([0, 1])
        support = design.enumerate_support()
        assert sorted(z.tolist() for z, _ in support) == [[0, 1], [1, 0]]
        assert all(prob == Fraction(1, 2) for _, prob in support)

    def test_three_clusters_one_treated_unit(self):
        design = TwoStageDesign([0, 0, 1, 1, 2, 2])
        Z = design.sample_batch(100, 1)
        assert (Z.sum(axis=1) == 1).all()  # floor(3/2) = 1 treated cluster

    def test_treated_count_always_floor_half(self):
        memberships = [0, 0, 1, 1, 1, 2, 3, 3, 4]
        design = TwoStageDesign(memberships)
        Z = design.sample_batch(100, 2)
        assert (Z.sum(axis=1) == 2).all()  # floor(5/2)

    def test_probabilities_sum_to_one_exactly(self):
        design = TwoStageDesign([0, 0, 1, 1, 1, 2])
        support = design.enumerate_support()
        assert sum(prob for _, prob in support) == 1
        assert len(support) == design.support_size()

    def test_marginal_treatment_probability(self):
        # P(unit treated) = (floor(K/2)/K) / cluster size
        memberships = np.array([0, 0, 0, 1, 1, 2])
        design = TwoStageDesign(memberships)
        n_draws = 100_000
        Z = design.sample_batch(n_draws, 7)
        freq = Z.mean(axis=0)
        sizes = np.array([3, 3, 3, 2, 2, 1])
        expected = (1 / 3) / sizes
        se = np.sqrt(expected * (1 - expected) / n_draws)
        assert (np.abs(freq - expected) <= 4 * se).all()

    def test_too_few_clusters(self):
        with pytest.raises(TooFewClustersError):
            TwoStageDesign([0, 0, 0])

    def test_helper(self):
        z = sample_two_stage([0, 1], 0)
        assert sorted(z.tolist()) == [0, 1]


class TestEnumerationFrequencies:
    def test_empirical_matches_exact(self):
        design = TwoStageDesign([0, 0, 1, 1])
        support = design.enumerate_support()
        n_draws = 100_000
        Z = design.sample_batch(n_draws, 11)
        keys = Z @ (1 << np.arange(Z.shape[1]))
        counts = np.bincount(keys, minlength=16)
        for z, prob in support:
            key = int(np.dot(z, 1 << np.arange(len(z))))
            p = float(prob)
            se = np.sqrt(p * (1 - p) / n_draws)
            assert abs(counts[key] / n_draws - p) <= 4 * se

    def test_cap_enforced(self):
        with pytest.raises(SupportTooLargeError):
            BernoulliDesign(30, 0.5).enumerate_support(cap=1000)

    def test_cap_check_is_fast_for_many_clusters(self):
        # C(75, 37) subsets: the support size must come from the
        # recurrence, not from walking the subsets
        design = TwoStageDesign(np.repeat(np.arange(75), 2))
        start = time.perf_counter()
        with pytest.raises(SupportTooLargeError):
            design.enumerate_support()
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=60, deadline=None)
    @given(hst.lists(hst.integers(min_value=1, max_value=4), min_size=2, max_size=9))
    def test_support_size_matches_brute_force(self, sizes):
        design = TwoStageDesign(np.repeat(np.arange(len(sizes)), sizes))
        m = len(sizes) // 2
        brute = sum(
            math.prod(sizes[c] for c in subset)
            for subset in itertools.combinations(range(len(sizes)), m)
        )
        assert design.support_size() == brute


def reference_support(design):
    """Support of a design enumerated one assignment at a time."""
    n = design.n
    if isinstance(design, BernoulliDesign):
        p = Fraction(design.p)
        if p in (0, 1):
            return [([int(p)] * n, Fraction(1))]
        return [
            (list(bits), p ** sum(bits) * (1 - p) ** (n - sum(bits)))
            for bits in itertools.product((0, 1), repeat=n)
        ]
    if isinstance(design, CompleteDesign):
        prob = Fraction(1, math.comb(n, design.m))
        return [
            ([int(i in treated) for i in range(n)], prob)
            for treated in itertools.combinations(range(n), design.m)
        ]
    out = []
    m = design.n_treated_clusters
    for subset in itertools.combinations(range(design.n_clusters), m):
        prob = Fraction(1, math.comb(design.n_clusters, m))
        for c in subset:
            prob /= len(design.members[c])
        for units in itertools.product(*(design.members[c] for c in subset)):
            out.append(([int(i in units) for i in range(n)], prob))
    return out


class TestSupportBlocks:
    DESIGNS = {
        "bernoulli": BernoulliDesign(5, 0.3),
        "bernoulli_p0": BernoulliDesign(3, 0.0),
        "bernoulli_p1": BernoulliDesign(3, 1.0),
        "complete": CompleteDesign(6, 2),
        "complete_m0": CompleteDesign(4, 0),
        "two_stage_unequal": TwoStageDesign([0, 0, 1, 1, 1, 2, 3, 3, 4]),
    }

    @pytest.mark.parametrize("name", DESIGNS)
    @pytest.mark.parametrize("block_rows", [None, 1, 4])
    def test_enumeration_matches_reference(self, name, block_rows, monkeypatch):
        design = self.DESIGNS[name]
        if block_rows is not None:
            monkeypatch.setattr(designs, "BLOCK_CELLS", block_rows * design.n)
        probs, blocks = design.support_blocks()
        rows = [
            (z.tolist(), probs[c])
            for Z, cls in blocks
            for z, c in zip(Z, cls.tolist())
        ]
        assert rows == reference_support(design)
        listed = [(z.tolist(), p) for z, p in design.enumerate_support()]
        assert listed == rows

    @pytest.mark.parametrize("name", DESIGNS)
    def test_blocks_respect_block_cells(self, name, monkeypatch):
        design = self.DESIGNS[name]
        monkeypatch.setattr(designs, "BLOCK_CELLS", 3 * design.n + 2)
        _, blocks = design.support_blocks()
        for Z, cls in blocks:
            assert 1 <= len(Z) <= 3 and len(cls) == len(Z)
            assert Z.dtype == np.int8

    def test_cap_checked_before_enumerating(self):
        with pytest.raises(SupportTooLargeError):
            TwoStageDesign([0, 0, 1, 1, 2, 2]).support_blocks(cap=5)


class TestDeterminism:
    @pytest.mark.parametrize(
        "design",
        [
            BernoulliDesign(5, 0.3),
            CompleteDesign(6, 2),
            TwoStageDesign([0, 0, 1, 1, 2]),
        ],
        ids=["bernoulli", "complete", "two_stage"],
    )
    def test_same_seed_same_sequence(self, design):
        a = design.sample_batch(50, 123)
        b = design.sample_batch(50, 123)
        assert (a == b).all()

    def test_single_sample_is_first_of_batch(self):
        design = CompleteDesign(6, 2)
        assert design.sample(9).tolist() == design.sample_batch(1, 9)[0].tolist()


class TestDesignFromSpec:
    def test_round_trip(self):
        d = design_from_spec({"kind": "bernoulli", "p": 0.4}, n=5)
        assert isinstance(d, BernoulliDesign) and d.n == 5 and d.p == 0.4
        d = design_from_spec({"kind": "complete", "m": 2}, n=4)
        assert isinstance(d, CompleteDesign) and d.m == 2
        d = design_from_spec({"kind": "two_stage", "memberships": [0, 0, 1]})
        assert isinstance(d, TwoStageDesign)
        with pytest.raises(ValueError):
            design_from_spec({"kind": "adaptive"}, n=3)
        with pytest.raises(InvalidDesignError):
            design_from_spec({"kind": "bernoulli", "p": 2.0}, n=3)
