"""Randomization designs: samplers and exact enumerators over assignments.

Each design represents a known randomization distribution over the
assignment set. All designs support seeded sampling (single and batched)
and, when the support is small enough, exact enumeration with rational
probabilities so downstream p-value oracles can be computed exactly.

Exact enumeration comes in blocks of stacked int8 assignment rows. Every
row carries an integer *probability class*: rows of one class share one
exact :class:`fractions.Fraction` probability, so a caller tallies rows per
class with integer counts and does one Fraction multiply per class.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import (
    EmptyClusterError,
    InvalidDesignError,
    SupportTooLargeError,
    TooFewClustersError,
)

DEFAULT_ENUMERATION_CAP = 2**20
# Cells (rows x units) per enumeration block; bounds the memory of one block
# and of the arrays a caller derives from it.
BLOCK_CELLS = 2**20


def as_rng(rng) -> np.random.Generator:
    """Accept a Generator, SeedSequence, or integer seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _row_ranges(total: int, chunk: int):
    for start in range(0, total, chunk):
        yield start, min(start + chunk, total)


class Design:
    """Base class; subclasses set ``n`` and implement sampling."""

    n: int

    def sample(self, rng) -> np.ndarray:
        return self.sample_batch(1, rng)[0]

    def sample_batch(self, size: int, rng) -> np.ndarray:
        raise NotImplementedError

    def support_size(self) -> int:
        raise NotImplementedError

    def support_blocks(self, cap: int = DEFAULT_ENUMERATION_CAP):
        """The exact support as ``(class_probs, blocks)``.

        ``class_probs`` is a tuple of Fractions, one per probability class,
        and ``blocks`` an iterator of ``(Z, cls)`` pairs: ``Z`` is a
        (rows, n) int8 matrix of assignments and ``cls`` the class index of
        each row. Rows come in the order of :meth:`enumerate_support`, at
        most ``BLOCK_CELLS // n`` per block. The cap is checked before
        anything is enumerated.
        """
        size = self.support_size()
        if size > cap:
            raise SupportTooLargeError(f"support size {size} exceeds cap {cap}")
        return self._support(max(1, BLOCK_CELLS // max(self.n, 1)))

    def enumerate_support(self, cap: int = DEFAULT_ENUMERATION_CAP):
        """List of (assignment, probability) pairs, probabilities exact.

        Probabilities are :class:`fractions.Fraction` and sum to 1 exactly.
        Enumeration order is lexicographic in the unit indices.
        """
        probs, blocks = self.support_blocks(cap)
        return [
            (z, probs[c])
            for Z, cls in blocks
            for z, c in zip(Z.astype(np.int64), cls.tolist())
        ]

    def _support(self, chunk: int):
        raise NotImplementedError


class BernoulliDesign(Design):
    """Independent Bernoulli(p) treatment for each of n units.

    Probability class of a support row: its number of treated units.
    """

    def __init__(self, n: int, p: float):
        if not 0 <= p <= 1:
            raise InvalidDesignError(f"p must be in [0,1], got {p}")
        self.n = n
        self.p = p

    def sample_batch(self, size, rng):
        rng = as_rng(rng)
        return (rng.random((size, self.n)) < self.p).view(np.int8)

    def support_size(self):
        if self.p in (0.0, 1.0):
            return 1
        return 2**self.n

    def _support(self, chunk):
        p = Fraction(self.p)
        probs = tuple(p**t * (1 - p) ** (self.n - t) for t in range(self.n + 1))
        return probs, self._blocks(chunk)

    def _blocks(self, chunk):
        if self.p in (0.0, 1.0):
            z = np.full((1, self.n), int(self.p), dtype=np.int8)
            yield z, z.sum(axis=1)
            return
        # row r is the binary expansion of r, unit 0 the most significant bit
        shifts = np.arange(self.n - 1, -1, -1)
        for start, stop in _row_ranges(2**self.n, chunk):
            rows = np.arange(start, stop, dtype=np.int64)[:, None]
            Z = ((rows >> shifts) & 1).astype(np.int8)
            yield Z, Z.sum(axis=1)


class CompleteDesign(Design):
    """Exactly m of n units treated, uniformly at random.

    All support rows share one probability class.
    """

    def __init__(self, n: int, m: int):
        if not 0 <= m <= n:
            raise InvalidDesignError(f"need 0 <= m <= n, got m={m}, n={n}")
        self.n = n
        self.m = m

    def sample_batch(self, size, rng):
        rng = as_rng(rng)
        order = np.argsort(rng.random((size, self.n)), axis=1)
        Z = np.zeros((size, self.n), dtype=np.int8)
        np.put_along_axis(Z, order[:, : self.m], 1, axis=1)
        return Z

    def support_size(self):
        return math.comb(self.n, self.m)

    def _support(self, chunk):
        return (Fraction(1, self.support_size()),), self._blocks(chunk)

    def _blocks(self, chunk):
        combos = itertools.combinations(range(self.n), self.m)
        for start, stop in _row_ranges(self.support_size(), chunk):
            rows = stop - start
            treated = np.fromiter(
                itertools.chain.from_iterable(itertools.islice(combos, rows)),
                dtype=np.intp,
                count=rows * self.m,
            ).reshape(rows, self.m)
            Z = np.zeros((rows, self.n), dtype=np.int8)
            np.put_along_axis(Z, treated, 1, axis=1)
            yield Z, np.zeros(rows, dtype=np.intp)


class TwoStageDesign(Design):
    """Two-stage clustered design.

    Stage 1 picks a uniform floor(K/2)-subset of clusters for treatment;
    stage 2 treats one uniform unit inside each picked cluster. All other
    units are controls.

    The support comes as one block per picked cluster subset (split into
    pieces of at most ``BLOCK_CELLS // n`` rows), and the subset is the
    rows' probability class: 1 / (C(K, floor(K/2)) * product of its
    cluster sizes).
    """

    def __init__(self, memberships):
        memberships = np.asarray(memberships, dtype=np.int64)
        self.n = len(memberships)
        self.memberships = memberships
        self.cluster_ids = np.unique(memberships)
        self.n_clusters = len(self.cluster_ids)
        if self.n_clusters < 2:
            raise TooFewClustersError(
                f"need >= 2 clusters, got {self.n_clusters}"
            )
        self.members = [
            np.flatnonzero(memberships == c) for c in self.cluster_ids
        ]
        if any(len(m) == 0 for m in self.members):
            raise EmptyClusterError("every cluster must be non-empty")
        self.n_treated_clusters = self.n_clusters // 2
        # padded member matrix for vectorized stage-2 draws
        self._sizes = np.array([len(m) for m in self.members])
        pad = np.zeros((self.n_clusters, self._sizes.max()), dtype=np.intp)
        for i, m in enumerate(self.members):
            pad[i, : len(m)] = m
        self._padded = pad

    def sample_batch(self, size, rng):
        rng = as_rng(rng)
        m = self.n_treated_clusters
        order = np.argsort(rng.random((size, self.n_clusters)), axis=1)
        chosen = order[:, :m]  # cluster indices, (size, m)
        within = rng.random((size, m))
        within *= self._sizes[chosen]
        # flat positions in the padded member matrix, then in Z
        slots = chosen * self._padded.shape[1]
        slots += within.astype(np.intp)
        units = self._padded.ravel()[slots]
        units += np.arange(0, size * self.n, self.n)[:, None]
        Z = np.zeros((size, self.n), dtype=np.int8)
        Z.ravel()[units] = 1
        return Z

    def support_size(self):
        """Elementary symmetric polynomial e_m of the cluster sizes, by the
        O(K*m) recurrence e_j += e_(j-1) * size over clusters (exact ints)."""
        m = self.n_treated_clusters
        e = [1] + [0] * m
        for size in self._sizes.tolist():
            for j in range(m, 0, -1):
                e[j] += e[j - 1] * size
        return e[m]

    def _subsets(self):
        return itertools.combinations(range(self.n_clusters), self.n_treated_clusters)

    def _support(self, chunk):
        n_subsets = math.comb(self.n_clusters, self.n_treated_clusters)
        sizes = self._sizes.tolist()
        shared = {}  # subsets with equal products of sizes share one Fraction
        probs = []
        for subset in self._subsets():
            rows = math.prod(sizes[c] for c in subset)
            if rows not in shared:
                shared[rows] = Fraction(1, n_subsets * rows)
            probs.append(shared[rows])
        return tuple(probs), self._blocks(chunk)

    def _blocks(self, chunk):
        for cls, subset in enumerate(self._subsets()):
            subset = list(subset)
            sizes = self._sizes[subset]
            for start, stop in _row_ranges(math.prod(sizes.tolist()), chunk):
                # one row per choice of a unit in each picked cluster, the
                # last cluster's unit varying fastest
                within = np.unravel_index(np.arange(start, stop), sizes)
                units = self._padded[subset, np.stack(within, axis=1)]
                Z = np.zeros((stop - start, self.n), dtype=np.int8)
                np.put_along_axis(Z, units, 1, axis=1)
                yield Z, np.full(stop - start, cls)


def sample_two_stage(memberships, rng) -> np.ndarray:
    """One draw from the two-stage clustered design."""
    return TwoStageDesign(memberships).sample(rng)


def design_from_spec(spec: dict, n: int = None) -> Design:
    """Build a design from its JSON config representation."""
    kind = spec["kind"]
    if kind == "bernoulli":
        return BernoulliDesign(n=spec.get("n", n), p=spec["p"])
    if kind == "complete":
        return CompleteDesign(n=spec.get("n", n), m=spec["m"])
    if kind == "two_stage":
        return TwoStageDesign(spec["memberships"])
    raise InvalidDesignError(f"unknown design kind: {kind!r}")
