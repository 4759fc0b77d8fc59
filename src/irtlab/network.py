"""Interference networks and exposure mappings.

A network records which pairs of units can interfere. Exposure mappings
reduce a full assignment vector to the per-unit exposure label that actually
matters for the outcome: the three-level map (treated / control with treated
neighbor / fully untreated) for binary experiments, and a two-round map for
multi-treatment experiments with one-way interference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import (
    IndexOutOfRangeError,
    LengthMismatchError,
    NegativeRadiusError,
    NonBinaryAssignmentError,
    SelfLoopError,
    UnknownTreatmentError,
)


@dataclass(frozen=True, eq=False)
class InterferenceNetwork:
    """Symmetric unit-level graph. Immutable after construction.

    ``neighbors[i]`` is the sorted array of units adjacent to unit ``i``.
    """

    n: int
    neighbors: tuple  # tuple of np.ndarray, one per unit, sorted
    _adjacency: sp.csr_matrix = field(repr=False, compare=False, default=None)

    @property
    def adjacency(self) -> sp.csr_matrix:
        """Sparse 0/1 adjacency matrix (cached)."""
        if self._adjacency is None:
            rows = np.repeat(
                np.arange(self.n), [len(v) for v in self.neighbors]
            )
            cols = (
                np.concatenate(self.neighbors)
                if self.n and any(len(v) for v in self.neighbors)
                else np.array([], dtype=np.int64)
            )
            adj = sp.csr_matrix(
                (np.ones(len(cols)), (rows[: len(cols)], cols)),
                shape=(self.n, self.n),
            )
            object.__setattr__(self, "_adjacency", adj)
        return self._adjacency

    def degree(self) -> np.ndarray:
        return np.array([len(v) for v in self.neighbors])

    def edges(self) -> list:
        """Undirected edge list with u < v."""
        out = []
        for i, nbrs in enumerate(self.neighbors):
            for j in nbrs:
                if i < j:
                    out.append((i, int(j)))
        return out


def build_network(n: int, edges) -> InterferenceNetwork:
    """Build a network from an edge list, taking the symmetric closure.

    Duplicate edges collapse; self-loops are rejected.
    """
    adj = [set() for _ in range(n)]
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRangeError(f"edge ({u},{v}) outside [0,{n})")
        if u == v:
            raise SelfLoopError(f"self-loop on unit {u}")
        adj[u].add(v)
        adj[v].add(u)
    neighbors = tuple(np.array(sorted(s), dtype=np.int64) for s in adj)
    return InterferenceNetwork(n=n, neighbors=neighbors)


def cluster_network(memberships) -> InterferenceNetwork:
    """Complete graph within each cluster, no edges across clusters."""
    memberships = np.asarray(memberships)
    n = len(memberships)
    edges = []
    for c in np.unique(memberships):
        members = np.flatnonzero(memberships == c)
        for a_idx in range(len(members)):
            for b_idx in range(a_idx + 1, len(members)):
                edges.append((members[a_idx], members[b_idx]))
    return build_network(n, edges)


def spatial_network(coords, radius: float) -> InterferenceNetwork:
    """Connect units at Euclidean distance <= radius (inclusive)."""
    if radius < 0:
        raise NegativeRadiusError(f"radius must be >= 0, got {radius}")
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    # KD-tree pairs; query_pairs uses strict < by default, so pad eps=0 with
    # the inclusive bound handled by its closed-interval semantics.
    from scipy.spatial import cKDTree

    tree = cKDTree(coords)
    pairs = tree.query_pairs(r=radius, output_type="ndarray")
    return build_network(n, [(int(u), int(v)) for u, v in pairs])


def _check_binary_assignment(net: InterferenceNetwork, z) -> np.ndarray:
    z = np.asarray(z)
    if len(z) != net.n:
        raise LengthMismatchError(
            f"assignment length {len(z)} != unit count {net.n}"
        )
    if not ((z == 0) | (z == 1)).all():
        raise NonBinaryAssignmentError("assignment entries must be 0 or 1")
    return z


class ThreeLevelExposure:
    """Exposure map with labels {0, 1, 2}, returned as int8 codes.

    2: unit treated; 1: unit in control with at least one treated neighbor;
    0: unit and all its neighbors in control.
    """

    labels = (0, 1, 2)

    def __init__(self, network: InterferenceNetwork):
        self.network = network
        # boolean adjacency: products over it are "any treated neighbour"
        self._any_neighbor = network.adjacency.astype(bool)

    def __call__(self, z) -> np.ndarray:
        z = _check_binary_assignment(self.network, z)
        return self.batch(z[None, :])[0]

    def batch(self, Z: np.ndarray) -> np.ndarray:
        """Exposures for a stack of assignments, one row per assignment.

        The adjacency is symmetric, so row i of ``Z @ A`` flags the units
        with a treated neighbour under assignment i.
        """
        treated = np.asarray(Z) == 1
        exposed = treated @ self._any_neighbor
        return np.maximum(
            treated.view(np.int8) * np.int8(2), exposed.view(np.int8), order="C"
        )


class TwoRoundExposure:
    """One-way interference from first-round to second-round units.

    Assignments carry integer treatment labels. A second-round unit's prior
    information level is 's' if some first-round neighbor got an intensive
    treatment, 'w' if none did but some got a simple one, 'n' otherwise.
    First-round units always get level 'n'. Labels are strings like "3s".
    """

    def __init__(self, network, round_of, intensity_of: dict):
        round_of = np.asarray(round_of)
        if len(round_of) != network.n:
            raise LengthMismatchError("round_of length != unit count")
        self.network = network
        self.first_round = round_of == "first"
        self.intensity_of = dict(intensity_of)
        bad = set(self.intensity_of.values()) - {"simple", "intensive"}
        if bad:
            raise UnknownTreatmentError(f"unknown intensities: {bad}")

    @property
    def labels(self):
        return tuple(
            f"{t}{a}" for t in sorted(self.intensity_of) for a in "nws"
        )

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z)
        if len(z) != self.network.n:
            raise LengthMismatchError("assignment length != unit count")
        unknown = set(np.unique(z).tolist()) - set(self.intensity_of)
        if unknown:
            raise UnknownTreatmentError(f"treatments without intensity: {unknown}")
        intensive = np.array(
            [self.intensity_of[t] == "intensive" for t in z.tolist()]
        )
        adj = self.network.adjacency
        has_s = adj @ (self.first_round & intensive) > 0
        has_w = adj @ (self.first_round & ~intensive) > 0
        level = np.where(
            self.first_round,
            "n",
            np.where(has_s, "s", np.where(has_w, "w", "n")),
        )
        return np.array([f"{t}{a}" for t, a in zip(z.tolist(), level)], dtype=object)

    def batch(self, Z: np.ndarray) -> np.ndarray:
        return np.stack([self(row) for row in np.asarray(Z)])


def exposure_three_level(net: InterferenceNetwork, z) -> np.ndarray:
    """Three-level exposures for a single binary assignment."""
    return ThreeLevelExposure(net)(z)


def exposure_two_round(net, z, round_of, intensity_of) -> np.ndarray:
    """Two-round exposures for a single multi-treatment assignment."""
    return TwoRoundExposure(net, round_of, intensity_of)(z)


def load_edge_csv(path, n: int, one_indexed: bool = False) -> InterferenceNetwork:
    """Edge-list CSV with columns u,v (header optional)."""
    pairs = _load_int_pairs(path)
    if one_indexed:
        pairs = [(u - 1, v - 1) for u, v in pairs]
    return build_network(n, pairs)


def load_cluster_csv(path, one_indexed: bool = False) -> np.ndarray:
    """Cluster CSV with columns unit,cluster; returns per-unit cluster ids."""
    pairs = _load_int_pairs(path)
    if one_indexed:
        pairs = [(u - 1, c) for u, c in pairs]
    units = {u for u, _ in pairs}
    n = max(units) + 1
    if units != set(range(n)):
        raise IndexOutOfRangeError("cluster file must cover units 0..n-1")
    out = np.empty(n, dtype=np.int64)
    for u, c in pairs:
        out[u] = c
    return out


def load_coords_csv(path, one_indexed: bool = False) -> np.ndarray:
    """Coordinates CSV with columns unit,x,y; returns an (n, 2) array."""
    import csv as _csv

    rows = []
    with open(path, newline="") as fh:
        for rec in _csv.reader(fh):
            if not rec or not rec[0].strip().lstrip("-").isdigit():
                continue
            rows.append((int(rec[0]), float(rec[1]), float(rec[2])))
    if one_indexed:
        rows = [(u - 1, x, y) for u, x, y in rows]
    n = max(u for u, _, _ in rows) + 1
    out = np.full((n, 2), np.nan)
    for u, x, y in rows:
        out[u] = (x, y)
    return out


def _load_int_pairs(path):
    import csv as _csv

    pairs = []
    with open(path, newline="") as fh:
        for rec in _csv.reader(fh):
            if not rec:
                continue
            first = rec[0].strip()
            if not first.lstrip("-").isdigit():
                continue  # header
            pairs.append((int(rec[0]), int(rec[1])))
    return pairs
