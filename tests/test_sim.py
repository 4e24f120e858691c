import dataclasses
from collections import Counter

import numpy as np
import pytest
from oracles import cell_code, check_degree_sequence_by_loop, record_code, to_dyad_records

from dyadeval import (EdgeModel, InputError, SimNetwork, SimParams,
                      assign_initial_states, build_table, dyad_codes, generate_network,
                      probabilities_to_counts, sim, simulate, simulate_dyad_table,
                      transition)


def test_params_validation():
    with pytest.raises(InputError):
        SimParams(p_effect=1.2)
    with pytest.raises(InputError):
        SimParams(p_social=-0.1)


def test_edge_list_complete_graph():
    model = EdgeModel(kind="edge_list", edges=(("a", "b"), ("a", "c"), ("b", "c")))
    net = generate_network(3, model, seed=0)
    assert len(net.dyads) == 3
    assert net.node_count == 3


def test_edge_list_echoed_verbatim():
    edges = (("v2", "v1"), ("v1", "v3"), ("v3", "v2"))
    net = generate_network(3, EdgeModel(kind="edge_list", edges=edges), seed=0)
    named = [(net.node_ids[u], net.node_ids[v]) for u, v in net.dyads]
    assert named == list(edges)


def test_edge_list_self_loop_rejected():
    with pytest.raises(InputError, match="self-loop"):
        generate_network(2, EdgeModel(kind="edge_list", edges=(("a", "a"),)), seed=0)


def test_degree_sequence_hits_target_dyad_count():
    net = generate_network(444, EdgeModel(kind="degree_sequence", mean_degree=10.8),
                           seed=4)
    target = 2397
    assert abs(len(net.dyads) - target) <= 0.1 * target
    # simple graph: no repeats, no self-loops
    assert len(set(net.dyads)) == len(net.dyads)
    assert all(u != v for u, v in net.dyads)


def test_degree_sequence_infeasible_rejected():
    with pytest.raises(InputError, match="even"):
        generate_network(4, EdgeModel(kind="degree_sequence", degrees=(1, 1, 1, 2)), seed=0)
    with pytest.raises(InputError):
        generate_network(3, EdgeModel(kind="degree_sequence", degrees=(3, 1, 0)), seed=0)
    with pytest.raises(InputError, match="not realizable"):
        generate_network(4, EdgeModel(kind="degree_sequence", degrees=(3, 3, 1, 1)), seed=0)


def _degree_check_outcome(check, degrees, node_count):
    try:
        check(degrees, node_count)
    except InputError as exc:
        return str(exc)
    return None


def test_degree_sequence_check_matches_loop_oracle():
    # 600 random sequences, realizable and not, and some of the wrong length,
    # out of range or of odd sum: the same outcome as one inequality per k
    rng = np.random.default_rng(31)
    outcomes = []
    for case in range(600):
        n = int(rng.integers(1, 40))
        top = int(rng.integers(1, n + 1))
        degrees = np.minimum(rng.geometric(1 / top, size=n) - 1, n - 1) if case % 3 else \
            rng.integers(0, top, size=n)
        if case % 5 and degrees.sum() % 2:
            degrees[int(rng.integers(n))] ^= 1  # even sum, mostly
        if case % 50 == 0:
            degrees = np.append(degrees, 1)
        elif case % 50 == 1:
            degrees[0] = n
        outcome = _degree_check_outcome(sim._check_degree_sequence, degrees, n)
        assert outcome == _degree_check_outcome(check_degree_sequence_by_loop, degrees, n), \
            (case, degrees)
        outcomes.append(outcome)
    counts = Counter(outcomes)
    assert counts[None] >= 100 and counts["degree sequence is not realizable as a "
                                          "simple graph"] >= 100, counts


def test_small_world_counts():
    net = generate_network(20, EdgeModel(kind="small_world", k=4, rewire_prob=0.3),
                           seed=1)
    assert len(net.dyads) == 40
    assert len(set(net.dyads)) == 40
    assert all(u != v for u, v in net.dyads)


def test_small_world_validation():
    with pytest.raises(InputError, match="even"):
        generate_network(10, EdgeModel(kind="small_world", k=3), seed=0)
    with pytest.raises(InputError):
        generate_network(4, EdgeModel(kind="small_world", k=6), seed=0)


def test_both_orientations():
    net = generate_network(6, EdgeModel(kind="small_world", k=2, rewire_prob=0.0,
                                        both_orientations=True), seed=0)
    assert len(net.dyads) == 12
    as_set = set(net.dyads)
    assert all((v, u) in as_set for u, v in as_set)


def test_participation_all_in():
    net = generate_network(10, EdgeModel(kind="small_world", k=2, rewire_prob=0.0),
                           seed=0)
    net = assign_initial_states(net, SimParams(participation_prob=1.0), seed=1)
    assert net.participation.sum() == 10


def test_participation_fraction_binomial():
    n = 10_000
    net = SimNetwork(n, tuple(f"n{i}" for i in range(n)), ())
    net = assign_initial_states(net, SimParams(participation_prob=0.5), seed=3)
    se = np.sqrt(0.25 / n)
    assert abs(net.participation.mean() - 0.5) <= 3 * se


def test_isolated_nodes_take_baseline_prevalence():
    n = 500
    net = SimNetwork(n, tuple(f"n{i}" for i in range(n)), ())
    all_on = assign_initial_states(net, SimParams(baseline_prevalence=1.0), seed=0)
    assert all_on.behavior0.sum() == n
    all_off = assign_initial_states(net, SimParams(baseline_prevalence=0.0), seed=0)
    assert all_off.behavior0.sum() == 0


def test_frozen_dynamics_keeps_states():
    params = SimParams(p_effect=0, p_against=0, p_change=0, p_stay=0, p_social=0)
    net = generate_network(30, EdgeModel(kind="small_world", k=4, rewire_prob=0.2),
                           seed=2)
    net = assign_initial_states(net, params, seed=3)
    net = transition(net, params, seed=4)
    assert np.array_equal(net.behavior1, net.behavior0)
    for code in np.unique(dyad_codes(net)).tolist():
        p, q = code >> 3 & 1, code >> 2 & 1
        r, s = code >> 1 & 1, code & 1
        assert (r, s) == (p, q)


def test_forced_conformity_star():
    # star: center 0, leaves 1..5; all probabilities frozen except p_social=1
    edges = tuple((0, leaf) for leaf in range(1, 6))
    net = SimNetwork(6, tuple(f"n{i}" for i in range(6)), edges)
    net = dataclasses.replace(net,
                              participation=np.zeros(6, dtype=np.int8),
                              behavior0=np.array([0, 1, 1, 1, 1, 1], dtype=np.int8))
    params = SimParams(p_effect=0, p_against=0, p_change=0, p_stay=0, p_social=1.0)
    out = transition(net, params, seed=0)
    assert np.array_equal(out.behavior1_provisional,
                          np.array([0, 1, 1, 1, 1, 1], dtype=np.int8))
    assert out.behavior1[0] == 1  # center follows its unanimous leaves


def test_conformity_tie_keeps_own_state():
    # node 0 has two neighbors split 1/0: keeps its provisional state
    edges = ((0, 1), (0, 2))
    net = SimNetwork(3, ("a", "b", "c"), edges)
    net = dataclasses.replace(net,
                              participation=np.zeros(3, dtype=np.int8),
                              behavior0=np.array([1, 1, 0], dtype=np.int8))
    params = SimParams(p_effect=0, p_against=0, p_change=0, p_stay=0, p_social=1.0)
    out = transition(net, params, seed=0)
    assert out.behavior1[0] == 1


def test_participant_transition_rate_binomial():
    params = SimParams(seed=0)
    net = simulate(params, node_count=444)
    part = net.participation.astype(bool)
    started = net.behavior0.astype(bool)
    pool = part & started
    flipped = pool & (net.behavior1_provisional == 0)
    n = int(pool.sum())
    assert n > 50
    se = np.sqrt(0.25 / n)
    assert abs(flipped.sum() / n - 0.5) <= 3 * se


def test_monotone_effect_of_p_effect():
    # same seed stream: raising p_effect never lowers 1->0 transitions
    for seed in range(8):
        counts = []
        for p_effect in (0.2, 0.6):
            params = SimParams(p_effect=p_effect, seed=seed)
            net = simulate(params, node_count=120)
            pool = net.participation.astype(bool) & net.behavior0.astype(bool)
            counts.append(int((pool & (net.behavior1_provisional == 0)).sum()))
        assert counts[1] >= counts[0]


def test_to_dyad_records_zero_state_edge():
    net = SimNetwork(2, ("u", "v"), ((0, 1),))
    net = dataclasses.replace(net,
                              participation=np.zeros(2, dtype=np.int8),
                              behavior0=np.zeros(2, dtype=np.int8),
                              behavior1=np.zeros(2, dtype=np.int8))
    records = to_dyad_records(net)
    assert len(records) == 1
    assert record_code(records[0]) == 0
    assert dyad_codes(net).tolist() == [0]


def test_to_dyad_records_matches_manual_enumeration():
    edges = ((0, 1), (1, 2), (2, 3), (0, 3))
    net = SimNetwork(4, ("a", "b", "c", "d"), edges)
    net = dataclasses.replace(
        net,
        participation=np.array([1, 0, 1, 0], dtype=np.int8),
        behavior0=np.array([1, 1, 0, 0], dtype=np.int8),
        behavior1=np.array([0, 1, 0, 1], dtype=np.int8))
    records = to_dyad_records(net, item_id="q")
    expected = [
        ("a", "b", 1, 0, 1, 1, 0, 1),
        ("b", "c", 0, 1, 1, 0, 1, 0),
        ("c", "d", 1, 0, 0, 0, 0, 1),
        ("a", "d", 1, 0, 1, 0, 0, 1),
    ]
    got = [(r.ego_id, r.alter_id, r.x, r.y, r.p, r.q, r.r, r.s) for r in records]
    assert got == expected
    assert dyad_codes(net).tolist() == [cell_code(*row[2:]) for row in expected]


def test_dyad_codes_need_transition():
    net = generate_network(10, EdgeModel(mean_degree=2.0), seed=1)
    with pytest.raises(InputError, match="transition must run"):
        dyad_codes(net)


@pytest.mark.parametrize("seed", range(50))
def test_simulated_table_matches_record_oracle(seed):
    """The census tallied from the network's arrays equals the census of
    one record per dyad, over varied topologies and parameters."""
    rng = np.random.default_rng(seed)
    model = [EdgeModel(mean_degree=float(rng.uniform(2, 8)),
                       both_orientations=bool(seed % 2)),
             EdgeModel(kind="small_world", k=4, rewire_prob=0.3)][seed % 3 == 0]
    params = SimParams(participation_prob=float(rng.uniform()), p_effect=float(rng.uniform()),
                       p_social=float(rng.uniform()), seed=seed)
    node_count = int(rng.integers(20, 120))
    table = simulate_dyad_table(params, node_count, model)
    expected = build_table(to_dyad_records(simulate(params, node_count, model),
                                           item_id=f"s{seed}"), item=f"s{seed}")
    assert np.array_equal(table.counts, expected.counts)


def test_record_count_equals_dyad_count():
    net = simulate(SimParams(seed=5), node_count=60,
                   edge_model=EdgeModel(mean_degree=6.0))
    assert dyad_codes(net).size == len(net.dyads)


def test_phase_conservation():
    net0 = generate_network(50, EdgeModel(mean_degree=5.0), seed=9)
    net1 = assign_initial_states(net0, SimParams(), seed=10)
    net2 = transition(net1, SimParams(), seed=11)
    assert net1.node_count == net2.node_count == net0.node_count
    assert net1.dyads == net2.dyads == net0.dyads


def test_probabilities_to_counts_examples():
    probs = np.zeros(64)
    probs.reshape(16, 4)[:, 0] = 1.0  # every row (1, 0, 0, 0)
    table = probabilities_to_counts(probs, scale=100)
    assert table.total == 1600
    assert np.array_equal(table.counts.reshape(16, 4)[:, 0], np.full(16, 100))

    uniform = np.full(64, 0.25)
    table = probabilities_to_counts(uniform, scale=100)
    assert table.total == 1600
    assert set(table.counts.tolist()) == {25}


def test_probabilities_to_counts_validation():
    probs = np.full(64, 0.25)
    probs[0] = 0.3  # breaks the first row sum
    with pytest.raises(InputError, match="sum to 1"):
        probabilities_to_counts(probs, scale=100)
    with pytest.raises(InputError, match="scale"):
        probabilities_to_counts(np.full(64, 0.25), scale=0)
    probs = np.full(64, 0.25)
    probs[4:8] = np.nan  # a NaN row compares false against every bound
    with pytest.raises(InputError, match=r"\[0, 1\]"):
        probabilities_to_counts(probs, scale=100)


def test_simulate_deterministic():
    a = simulate_dyad_table(SimParams(seed=123))
    b = simulate_dyad_table(SimParams(seed=123))
    assert np.array_equal(a.counts, b.counts)
    c = simulate_dyad_table(SimParams(seed=124))
    assert not np.array_equal(a.counts, c.counts)
