"""Two-wave intervention simulator for validation datasets.

Generates a synthetic social network, assigns intervention participation
and a peer-influenced initial behavior, then draws post-intervention states
from participation-conditioned transition probabilities followed by a
single synchronous conformity pass.  Each ordered dyad of the result is
read off the network's arrays as one 64-cell code (``dyad_codes``), so
the census is one tally.

Transition parameter semantics (all for the behavior bit):

    p_effect   participants,     1 -> 0
    p_against  participants,     0 -> 1
    p_change   non-participants, 1 -> 0
    p_stay     non-participants, 0 -> 1

Note the last two names are historical and read inverted: ``p_change`` is
the probability a non-participant drops the behavior, ``p_stay`` the
probability one acquires it.  They are kept as-is for continuity with the
scenario they mirror.

Determinism: every stage consumes a seed (or numpy Generator) and draws in
a documented fixed order, so identical seeds give identical networks,
states and dyads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable

import numpy as np

from .census import _MAX_COUNT, DyadTable, cell_codes, tally
from .errors import InputError

__all__ = [
    "SimParams",
    "EdgeModel",
    "SimNetwork",
    "generate_network",
    "assign_initial_states",
    "transition",
    "dyad_codes",
    "probabilities_to_counts",
    "simulate",
    "simulate_dyad_table",
]

_PROB_FIELDS = ("participation_prob", "p_effect", "p_against", "p_change",
                "p_stay", "p_social", "baseline_prevalence", "peer_weight")


@dataclass(frozen=True)
class SimParams:
    """Scenario parameters; every probability must lie in [0, 1].

    ``baseline_prevalence`` and ``peer_weight`` control the peer-influenced
    initial behavior assignment: each node's Bernoulli probability blends
    the baseline with its neighbors' current prevalence,
    sigma = (1 - peer_weight) * baseline + peer_weight * neighbor_mean.
    """

    participation_prob: float = 0.5
    p_effect: float = 0.5
    p_against: float = 0.05
    p_change: float = 0.05
    p_stay: float = 0.05
    p_social: float = 0.2
    baseline_prevalence: float = 0.5
    peer_weight: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        for name in _PROB_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InputError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class EdgeModel:
    """Topology configuration for ``generate_network``.

    kind="edge_list":       ``edges`` (pairs of node identifiers) echoed
                            verbatim as the dyad list.
    kind="small_world":     ring lattice with ``k`` neighbors per node
                            (k even), each edge rewired with probability
                            ``rewire_prob``.
    kind="degree_sequence": stub-matched random graph with the given
                            ``degrees``, or a near-regular sequence hitting
                            ``mean_degree``; conflicting stub pairings
                            (self-loops, repeats) are dropped, so realized
                            edge counts can fall slightly short.
    """

    kind: str = "degree_sequence"
    mean_degree: float = 10.8
    degrees: tuple[int, ...] | None = None
    k: int = 10
    rewire_prob: float = 0.1
    edges: tuple[tuple[Hashable, Hashable], ...] | None = None
    both_orientations: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("edge_list", "small_world", "degree_sequence"):
            raise InputError(f"unknown edge model kind {self.kind!r}")


@dataclass(frozen=True)
class SimNetwork:
    """A network plus (once assigned) per-node intervention and behavior states.

    ``dyads`` is the ordered ego->alter pair list the census will see;
    neighborhoods for peer influence are the undirected adjacency implied
    by it.
    """

    node_count: int
    node_ids: tuple[str, ...]
    dyads: tuple[tuple[int, int], ...]
    participation: np.ndarray | None = None
    behavior0: np.ndarray | None = None
    behavior1: np.ndarray | None = None
    behavior1_provisional: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if len(self.node_ids) != self.node_count:
            raise ValueError("node_ids length must equal node_count")
        for u, v in self.dyads:
            if u == v:
                raise ValueError(f"self-loop on node index {u}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"dyad ({u}, {v}) references a missing node")

    def neighbor_lists(self) -> list[np.ndarray]:
        """Undirected neighborhoods derived from the dyad list."""
        nbrs: list[set[int]] = [set() for _ in range(self.node_count)]
        for u, v in self.dyads:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return [np.fromiter(sorted(s), dtype=np.intp, count=len(s)) for s in nbrs]


def _near_regular_degrees(node_count: int, mean_degree: float) -> np.ndarray:
    stubs = int(round(mean_degree * node_count))
    if stubs % 2:
        stubs -= 1
    base, extra = divmod(stubs, node_count)
    degrees = np.full(node_count, base, dtype=np.int64)
    degrees[:extra] += 1
    return degrees


def _check_degree_sequence(degrees: np.ndarray, node_count: int) -> None:
    if len(degrees) != node_count:
        raise InputError(f"degree sequence has {len(degrees)} entries for "
                         f"{node_count} nodes")
    if np.any(degrees < 0) or np.any(degrees > node_count - 1):
        raise InputError("degrees must lie in [0, node_count - 1]")
    if int(degrees.sum()) % 2:
        raise InputError("degree sequence sum must be even")
    # Erdos-Gallai feasibility for a simple graph, every k at once: with d
    # sorted descending, the first k degrees sum to at most k(k - 1) plus
    # min(d_i, k) over the rest, whose entries at or above k come first.
    d = np.sort(degrees)[::-1].astype(np.int64)
    k = np.arange(1, len(d) + 1)
    split = np.maximum(np.searchsorted(-d, -k, side="right"), k)  # rest >= k before split
    suffix = np.append(np.cumsum(d[::-1])[::-1], 0)  # suffix[j] = sum of d[j:]
    if np.any(np.cumsum(d) > k * (k - 1) + k * (split - k) + suffix[split]):
        raise InputError("degree sequence is not realizable as a simple graph")


def _stub_match(degrees: np.ndarray, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Random stub matching; self-loops and repeated edges are erased."""
    stubs = np.repeat(np.arange(len(degrees)), degrees)
    rng.shuffle(stubs)
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for u, v in zip(stubs[0::2], stubs[1::2]):
        if u == v:
            continue
        edge = (int(u), int(v)) if u < v else (int(v), int(u))
        if edge in seen:
            continue
        seen.add(edge)
        edges.append(edge)
    return edges


def _small_world(node_count: int, k: int, rewire_prob: float,
                 rng: np.random.Generator) -> list[tuple[int, int]]:
    if k % 2 or k < 0:
        raise InputError(f"small-world k must be a non-negative even integer, got {k}")
    if k >= node_count:
        raise InputError(f"small-world k={k} needs more than {node_count} nodes")
    edge_set = {
        (u, (u + j) % node_count) if u < (u + j) % node_count
        else ((u + j) % node_count, u)
        for u in range(node_count)
        for j in range(1, k // 2 + 1)
    }
    for u in range(node_count):
        for j in range(1, k // 2 + 1):
            if rng.random() >= rewire_prob:
                continue
            v = (u + j) % node_count
            old = (u, v) if u < v else (v, u)
            if old not in edge_set:
                continue
            for _ in range(node_count):
                w = int(rng.integers(node_count))
                new = (u, w) if u < w else (w, u)
                if w != u and new not in edge_set:
                    edge_set.discard(old)
                    edge_set.add(new)
                    break
    return sorted(edge_set)


def generate_network(node_count: int, edge_model: EdgeModel = EdgeModel(),
                     seed=0) -> SimNetwork:
    """Build the topology only; states are assigned by later stages.

    Generated graphs store each undirected edge once, oriented low-index ->
    high-index (both orientations when ``both_orientations`` is set).  An
    explicit edge list is kept verbatim, including its orientations.
    """
    rng = np.random.default_rng(seed)
    if edge_model.kind == "edge_list":
        if edge_model.edges is None:
            raise InputError("edge_list model requires edges")
        index: dict[Hashable, int] = {}
        pairs: list[tuple[int, int]] = []
        for a, b in edge_model.edges:
            for node in (a, b):
                if node not in index:
                    index[node] = len(index)
            if a == b:
                raise InputError(f"edge list contains a self-loop on {a!r}")
            pairs.append((index[a], index[b]))
        ids = tuple(str(node) for node in index)
        n = max(node_count, len(index))
        if len(ids) < n:
            ids = ids + tuple(f"n{i}" for i in range(len(ids), n))
        return SimNetwork(n, ids, tuple(pairs))

    if node_count < 2:
        raise InputError(f"node_count must be >= 2, got {node_count}")
    if edge_model.kind == "small_world":
        edges = _small_world(node_count, edge_model.k, edge_model.rewire_prob, rng)
    else:
        degrees = (np.asarray(edge_model.degrees, dtype=np.int64)
                   if edge_model.degrees is not None
                   else _near_regular_degrees(node_count, edge_model.mean_degree))
        _check_degree_sequence(degrees, node_count)
        edges = _stub_match(degrees, rng)
    if edge_model.both_orientations:
        edges = [pair for u, v in edges for pair in ((u, v), (v, u))]
    ids = tuple(f"n{i}" for i in range(node_count))
    return SimNetwork(node_count, ids, tuple(edges))


def assign_initial_states(network: SimNetwork, params: SimParams, seed) -> SimNetwork:
    """Draw participation and the peer-influenced initial behavior.

    Participation is i.i.d. Bernoulli(participation_prob).  Behavior starts
    as Bernoulli(baseline_prevalence) for every node and is then redrawn
    once per node, in a random order, from the blended probability
    sigma = (1 - w) * baseline + w * mean(current neighbor behavior);
    isolated nodes use the baseline alone.
    """
    rng = np.random.default_rng(seed)
    n = network.node_count
    participation = (rng.random(n) < params.participation_prob).astype(np.int8)
    behavior0 = (rng.random(n) < params.baseline_prevalence).astype(np.int8)
    neighbors = network.neighbor_lists()
    w = params.peer_weight
    b = params.baseline_prevalence
    for u in rng.permutation(n):
        nbrs = neighbors[u]
        sigma = b if len(nbrs) == 0 else (1.0 - w) * b + w * float(behavior0[nbrs].mean())
        behavior0[u] = 1 if rng.random() < sigma else 0
    return replace(network, participation=participation, behavior0=behavior0,
                   behavior1=None, behavior1_provisional=None)


def transition(network: SimNetwork, params: SimParams, seed) -> SimNetwork:
    """Draw post-intervention behavior: transitions, then one conformity pass.

    Each node gets a provisional post-state from its participation-
    conditioned transition probability, then with probability ``p_social``
    adopts the most common provisional state among its neighbors (ties and
    isolated nodes keep their own provisional state).  The conformity pass
    is synchronous: it reads only provisional states.
    """
    if network.participation is None or network.behavior0 is None:
        raise InputError("assign_initial_states must run before transition")
    rng = np.random.default_rng(seed)
    n = network.node_count
    part = network.participation.astype(bool)
    b0 = network.behavior0.astype(bool)
    flip_prob = np.where(
        part,
        np.where(b0, params.p_effect, params.p_against),
        np.where(b0, params.p_change, params.p_stay),
    )
    flips = rng.random(n) < flip_prob
    provisional = np.where(flips, ~b0, b0).astype(np.int8)

    conform = rng.random(n) < params.p_social
    behavior1 = provisional.copy()
    neighbors = network.neighbor_lists()
    for u in range(n):
        if not conform[u] or len(neighbors[u]) == 0:
            continue
        ones = int(provisional[neighbors[u]].sum())
        degree = len(neighbors[u])
        if 2 * ones > degree:
            behavior1[u] = 1
        elif 2 * ones < degree:
            behavior1[u] = 0
    return replace(network, behavior1=behavior1, behavior1_provisional=provisional)


def dyad_codes(network: SimNetwork) -> np.ndarray:
    """The cell code of each ordered dyad of the network, in dyad order."""
    if network.behavior1 is None:
        raise InputError("transition must run before dyad extraction")
    ego, alter = np.array(network.dyads, dtype=np.intp).reshape(-1, 2).T
    part, b0, b1 = network.participation, network.behavior0, network.behavior1
    return cell_codes(part[ego], part[alter], b0[ego], b0[alter], b1[ego], b1[alter])


def probabilities_to_counts(probability_table, scale: int) -> DyadTable:
    """Turn a 64-cell probability table into counts: count = round(prob * scale).

    Each (x, y, p, q) row of four (r, s) probabilities must sum to 1 within
    1e-9; the resulting census total is (number of rows) * scale up to
    rounding.  A scale over 2**53, the most dyads a cell may hold, is an
    InputError.
    """
    probs = np.asarray(probability_table, dtype=float).reshape(64)
    if not 1 <= scale <= _MAX_COUNT:
        raise InputError(f"scale must lie in [1, 2**53], got {scale}")
    if not np.all((probs >= 0) & (probs <= 1)):  # NaN fails too
        raise InputError("probabilities must lie in [0, 1]")
    rows = probs.reshape(16, 4)
    row_sums = rows.sum(axis=1)
    bad = np.nonzero(np.abs(row_sums - 1.0) > 1e-9)[0]
    if bad.size:
        group = [f"(x={i >> 3 & 1}, y={i >> 2 & 1}, p={i >> 1 & 1}, q={i & 1})"
                 f" sums to {float(row_sums[i])!r}" for i in bad]
        raise InputError("probability rows must sum to 1: " + "; ".join(group))
    counts = np.rint(probs * scale).astype(np.int64)
    return DyadTable(counts)


def simulate(params: SimParams = SimParams(), node_count: int = 444,
             edge_model: EdgeModel = EdgeModel()) -> SimNetwork:
    """Full pipeline: topology, initial states, transition.

    The three stages consume the first three children of
    ``SeedSequence(params.seed)`` in that order.
    """
    topo_seed, init_seed, trans_seed = np.random.SeedSequence(params.seed).spawn(3)
    network = generate_network(node_count, edge_model, seed=topo_seed)
    network = assign_initial_states(network, params, seed=init_seed)
    return transition(network, params, seed=trans_seed)


def simulate_dyad_table(params: SimParams = SimParams(), node_count: int = 444,
                        edge_model: EdgeModel = EdgeModel()) -> DyadTable:
    """Simulate and tally straight into a census."""
    return tally(dyad_codes(simulate(params, node_count, edge_model)))
