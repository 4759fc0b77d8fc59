"""The benchmark's two workloads.

Constructing a workload is its set-up, which the benchmark times as part of
``setup_s``. ``op(i)`` runs operation ``i`` and returns an :class:`Outcome`.
Every input of operation ``i`` comes from a generator seeded with the run's
seed and ``i`` alone, so two runs of the same code and seed agree on every
operation both of them ran. The inputs that the library does not generate
itself (the exact oracle's nuisance vectors and observed assignments) come
from the benchmark's own generators, not from library samplers, so a change
to a sampler's random stream cannot change the exact p-values the gate
checks.

``check(i, outcome)`` is the correctness gate for one operation. It runs
after the timed loop and returns a list of failures.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import irtlab.designs as designs
import irtlab.irt as irt
import irtlab.network as network
import irtlab.simlab as simlab

# Stream tags keep the operation, library and gate draws apart.
OP, LIBRARY, GATE = 1, 2, 3

ALPHA = 0.05
CONTRAST = (0, 1)

# Bytes of the (k, n) Z, E and Theta arrays: int64, int64 and float64.
KN_BYTES_PER_ENTRY = 8 + 8 + 8


def stream(tag, seed, *more):
    return np.random.default_rng([tag, seed, *more])


@dataclass(frozen=True)
class McRecord:
    """One Monte Carlo p-value and the sizes of the work behind it."""

    k: int
    extreme_count: int
    p_hat: float
    undefined_resamples: int
    n: int
    n_missing: int
    nnz: int

    @classmethod
    def of(cls, result, exposure_map, partial):
        return cls(
            k=result.k,
            extreme_count=result.extreme_count,
            p_hat=result.p_hat,
            undefined_resamples=result.undefined_resamples,
            n=partial.n,
            n_missing=partial.n_missing,
            nnz=exposure_map.network.adjacency.nnz,
        )

    def errors(self):
        out = []
        if not 0 <= self.extreme_count <= self.k:
            out.append(f"extreme_count {self.extreme_count} outside [0, {self.k}]")
        if self.p_hat != self.extreme_count / self.k:
            out.append(f"p_hat {self.p_hat!r} != {self.extreme_count}/{self.k}")
        return out

    def digest_item(self):
        return [self.k, self.extreme_count, repr(self.p_hat), self.undefined_resamples]


@dataclass
class Outcome:
    """What one operation produced, kept for the gate, digest and counts."""

    pvalues: int
    mc: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    exact: Fraction = None
    inputs: tuple = ()

    def digest_item(self):
        item = {"mc": [r.digest_item() for r in self.mc]}
        if self.rows:
            item["rows"] = [
                [r.method, repr(r.rejection_rate), r.replications]
                for r in self.rows
            ]
        if self.exact is not None:
            item["exact"] = f"{self.exact.numerator}/{self.exact.denominator}"
        return item


class IrtCapture:
    """Keeps every Monte Carlo result that ``run_rejection_study`` computes.

    ``install`` puts this object at ``irtlab.simlab.irt_pvalue``, the name
    the study calls. Each call costs an argument bind and a list append and
    takes no timings; the gate needs the results, which the study does not
    return.
    """

    def __init__(self):
        self.records = []
        self._inner = simlab.irt_pvalue
        self._signature = inspect.signature(self._inner)

    def install(self):
        simlab.irt_pvalue = self

    def __call__(self, *args, **kwargs):
        result = self._inner(*args, **kwargs)
        bound = self._signature.bind(*args, **kwargs).arguments
        self.records.append(
            McRecord.of(result, bound["exposure_map"], bound["partial"])
        )
        return result


class SpatialStudy:
    """One ``run_rejection_study`` call per operation on the spatial
    scenario: one dataset, one experiment, all four default methods, so four
    p-values on one observed assignment."""

    K = 2000

    def __init__(self, seed, capture):
        self.seed = seed
        self.capture = capture
        self.scenario = simlab.gen_spatial(radius=0.01, p=0.8, tau=0.0, n_units=1000)
        self.methods = simlab.default_methods("normal")

    def op(self, i):
        start = len(self.capture.records)
        rows = simlab.run_rejection_study(
            self.scenario,
            self.methods,
            alpha=ALPHA,
            n_datasets=1,
            n_experiments=1,
            k=self.K,
            rng=np.random.SeedSequence([LIBRARY, self.seed, i]),
            scenario_id=type(self).__name__,
        )
        mc = self.capture.records[start:]
        return Outcome(pvalues=len(mc), mc=mc, rows=rows)

    def check(self, i, outcome):
        out = [e for r in outcome.mc for e in r.errors()]
        methods = list(self.methods)
        if [r.method for r in outcome.rows] != methods:
            out.append(f"study rows {[r.method for r in outcome.rows]} != {methods}")
        if len(outcome.mc) != len(methods):
            out.append(f"{len(outcome.mc)} p-values for {len(methods)} methods")
        for row, rec in zip(outcome.rows, outcome.mc):
            if row.replications != 1:
                out.append(f"{row.method}: replications {row.replications} != 1")
            if row.rejection_rate != float(rec.p_hat <= ALPHA):
                out.append(
                    f"{row.method}: rejection_rate {row.rejection_rate} "
                    f"disagrees with p_hat {rec.p_hat}"
                )
        return out


class ExactOracle:
    """One exact Fraction p-value per operation, by enumerating the 5,670
    assignments of a two-stage design over 8 clusters of 3 units."""

    CLUSTERS = 8
    SIZE = 3
    GATE_K = 20_000
    GATE_SIGMAS = 5.0

    def __init__(self, seed, capture=None):
        self.seed = seed
        memberships = np.repeat(np.arange(self.CLUSTERS), self.SIZE)
        self.n = len(memberships)
        self.network = network.cluster_network(memberships)
        self.exposure = network.ThreeLevelExposure(self.network)
        self.design = designs.TwoStageDesign(memberships)
        self.exposure(np.zeros(self.n, dtype=np.int64))
        self.support_size = self.design.support_size()

    def op(self, i):
        rng = stream(OP, self.seed, i)
        theta = rng.standard_normal(self.n)
        clusters = rng.choice(self.CLUSTERS, size=self.CLUSTERS // 2, replace=False)
        z_obs = np.zeros(self.n, dtype=np.int64)
        z_obs[clusters * self.SIZE + rng.integers(0, self.SIZE, len(clusters))] = 1
        p = irt.exact_frt_pvalue_fraction(
            self.design, self.exposure, *CONTRAST, theta, z_obs
        )
        return Outcome(pvalues=1, exact=p, inputs=(theta, z_obs))

    def check(self, i, outcome):
        """The exact p-value must lie in a binomial band around a large-k
        Monte Carlo estimate on the same inputs."""
        p = outcome.exact
        if not 0 <= p <= 1:
            return [f"exact p-value {p} outside [0, 1]"]
        theta, z_obs = outcome.inputs
        mc = irt.frt_pvalue_mc(
            self.design,
            self.exposure,
            *CONTRAST,
            theta,
            z_obs,
            k=self.GATE_K,
            rng=stream(GATE, self.seed, i),
        )
        half_width = (
            self.GATE_SIGMAS * (float(p * (1 - p)) / self.GATE_K) ** 0.5
            + 1 / self.GATE_K
        )
        if abs(mc.p_hat - float(p)) > half_width:
            return [
                f"exact p-value {p} = {float(p):.5f} outside "
                f"{mc.p_hat:.5f} +- {half_width:.5f} (k={self.GATE_K})"
            ]
        return []


WORKLOADS = {
    "spatial_study": SpatialStudy,
    "exact_oracle": ExactOracle,
}


def computed_counts(workload, outcomes):
    """Work sizes computed from the inputs of the given operations.

    They depend only on the code, the seed and the operations, never on
    timing, so they repeat exactly between runs of the same code.
    """
    edges = support = drawn = macs = kn_bytes = resamples = 0
    for outcome in outcomes:
        for r in outcome.mc:
            edges = max(edges, r.nnz // 2)
            drawn += r.k * r.n_missing
            macs += r.nnz * (r.k + r.undefined_resamples)
            kn_bytes = max(kn_bytes, KN_BYTES_PER_ENTRY * r.k * r.n)
            resamples += r.undefined_resamples
        if outcome.exact is not None:
            nnz = workload.network.adjacency.nnz
            edges = max(edges, nnz // 2)
            support = max(support, workload.support_size)
            macs += nnz * workload.support_size
    return {
        "network.edges": (edges, "count"),
        "designs.support_size": (support, "count"),
        "imputation.values_drawn": (drawn, "count"),
        "network.exposure_macs": (macs, "count"),
        "irt.kn_bytes": (kn_bytes, "B"),
        "irt.undefined_resamples": (resamples, "count"),
    }
