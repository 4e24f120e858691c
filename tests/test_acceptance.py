"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timing diagnostics.
"""

import math
import time

import numpy as np
import pytest

from dyadeval import (DyadTable, EdgeModel, InferenceConfig, MeasureId,
                      SimParams, TrialGroup, evaluate, exact_test, fit,
                      method_disagreement, pb_pmf, run_all, sample,
                      simulate_dyad_table)
from dyadeval.cli import main

from oracles import (enumeration_cost, measure_values_by_formula,
                     null_distribution_by_enumeration, pb_pmf_by_subsets,
                     tail_probability_from_distribution)


def _verdict(number, name, ok, detail=""):
    line = f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return line


def test_criterion_1_exact_vs_bootstrap_agreement():
    """20 simulated datasets, B_N = 100,000: max measure-wise
    |p_exact - p_bootstrap| <= 2e-3 in at least 19/20, under 60 s each."""
    datasets = 20
    tolerance = 2e-3
    within = 0
    worst = []
    slowest = 0.0
    for i in range(datasets):
        table = simulate_dyad_table(SimParams(seed=1000 + i))
        start = time.perf_counter()
        results = run_all(table, InferenceConfig(method="both", trials=100_000,
                                                 seed=5000 + i))
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        gap = max(method_disagreement(results).values())
        worst.append(gap)
        within += gap <= tolerance
    runtime_ok = slowest < 60.0
    agree_ok = within >= 19
    detail = (f"{within}/{datasets} within {tolerance:g}, "
              f"max gap {max(worst):.2e}, slowest dataset {slowest:.1f}s; "
              f"for reference {sum(g <= 6e-3 for g in worst)}/{datasets} "
              f"within 6e-3 (~4 Monte Carlo SE)")
    line = _verdict(1, "exact-vs-bootstrap agreement", agree_ok and runtime_ok, detail)
    assert runtime_ok, line
    # NOTE: a plain Monte Carlo bootstrap tail estimate at B_N = 100,000 has
    # standard error sqrt(p(1-p)/B_N) ~ 1.6e-3 for mid-range p, so the max
    # over eight measures exceeds 2e-3 in roughly half of all datasets no
    # matter how the p-values are computed.  The assertion below encodes the
    # stated criterion faithfully and is expected to fail; see the decisions
    # ledger for the quantitative analysis.
    assert agree_ok, line


def test_engine_agreement_in_standard_errors():
    """Criterion 1's 20 datasets, measured in Monte Carlo standard errors:
    every |p_bootstrap - p_exact| <= z SE(p_exact, B_N), with the CLI's
    SE = sqrt(p_exact (1 - p_exact) / B_N) floored at 1 / B_N.  z = 4.0 was
    fixed beforehand: Bonferroni at 1% over 160 comparisons."""
    z, trials = 4.0, 100_000
    gaps = []
    for i in range(20):
        table = simulate_dyad_table(SimParams(seed=1000 + i))
        results = run_all(table, InferenceConfig(method="both", trials=trials,
                                                 seed=5000 + i))
        for boot, exact in zip(results[::2], results[1::2]):
            assert (boot.method, exact.method) == ("bootstrap", "exact")
            p = exact.p_value
            se = max(math.sqrt(p * (1.0 - p) / trials), 1.0 / trials)
            gaps.append(abs(boot.p_value - p) / se)
    line = (f"[engine agreement] max gap {max(gaps):.2f} SE over {len(gaps)} "
            f"comparisons, {sum(g > 1.96 for g in gaps)} beyond 1.96 SE")
    print(line)
    assert max(gaps) <= z, line


def test_criterion_2_pb_oracle_equivalence():
    """pb_pmf equals literal subset enumeration for 1,000 random group
    configurations with at most 15 trials, to 1e-12."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        total = int(rng.integers(0, 16))
        n_groups = int(rng.integers(1, 5))
        split = rng.multinomial(total, np.full(n_groups, 1.0 / n_groups))
        groups = [TrialGroup(int(c), float(rng.random())) for c in split]
        dist = pb_pmf(groups)
        probs = [g.success_prob for g in groups for _ in range(g.count)]
        oracle = pb_pmf_by_subsets(probs)
        assert len(dist.pmf) == len(oracle)
        if oracle:
            worst = max(worst, max(abs(a - b) for a, b in zip(dist.pmf, oracle)))
    ok = worst <= 1e-12
    line = _verdict(2, "Poisson-Binomial subset-enumeration equivalence", ok,
                    f"max abs pmf diff {worst:.2e}")
    assert ok, line


def _random_small_table(rng, cost_cap=120_000):
    while True:
        total = int(rng.integers(1, 13))
        counts = np.bincount(rng.integers(0, 64, size=total), minlength=64)
        if all(enumeration_cost(counts, m.value) <= cost_cap for m in MeasureId):
            return DyadTable(counts.astype(np.int64))


def test_criterion_3_small_instance_exhaustive_equivalence():
    """exact_test equals exhaustive rational enumeration over all joint
    multinomial outcomes on 100 random tables with <= 12 dyads, to 1e-12."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        table = _random_small_table(rng)
        for measure in MeasureId:
            res = exact_test(table, measure)
            dist = null_distribution_by_enumeration(table.counts, measure.value)
            p_oracle, _ = tail_probability_from_distribution(
                dist, evaluate(table, measure).value)
            worst = max(worst, abs(res.p_value - p_oracle))
    ok = worst <= 1e-12
    line = _verdict(3, "small-instance exhaustive equivalence", ok,
                    f"max abs tail diff {worst:.2e} over 800 tests")
    assert ok, line


def test_criterion_4_null_calibration():
    """Data drawn from a fitted null model: the fraction of exact M1
    p-values at or below 0.05 lies in [0.02, 0.09] over 500 replicates."""
    start = time.perf_counter()
    base = simulate_dyad_table(SimParams(seed=2026), node_count=50,
                               edge_model=EdgeModel(mean_degree=5.0))
    model = fit(base)
    replicates = 500
    hits = 0
    for child in np.random.SeedSequence(404).spawn(replicates):
        null_table = sample(model, child)
        res = exact_test(null_table, MeasureId.M1, model=model)
        hits += res.p_value <= 0.05
    fraction = hits / replicates
    elapsed = time.perf_counter() - start
    ok = 0.02 <= fraction <= 0.09 and elapsed < 300.0
    line = _verdict(4, "null calibration of exact M1 p-values", ok,
                    f"fraction {fraction:.3f} on a {base.total}-dyad table, "
                    f"{elapsed:.0f}s")
    assert ok, line


def test_criterion_5_simulated_intervention_pattern():
    """Default scenario parameters: M1 exact p < 0.01 in at least 95 of 100
    seeded runs; median exact p for M3 and M5 above 0.05."""
    m1_hits = 0
    p3, p5 = [], []
    for seed in range(100):
        table = simulate_dyad_table(SimParams(seed=seed))
        m1_hits += exact_test(table, MeasureId.M1).p_value < 0.01
        p3.append(exact_test(table, MeasureId.M3).p_value)
        p5.append(exact_test(table, MeasureId.M5).p_value)
    med3, med5 = float(np.median(p3)), float(np.median(p5))
    ok = m1_hits >= 95 and med3 > 0.05 and med5 > 0.05
    line = _verdict(5, "simulated intervention pattern", ok,
                    f"M1 p<0.01 in {m1_hits}/100, median M3 p {med3:.3f}, "
                    f"median M5 p {med5:.3f}")
    assert ok, line


def test_criterion_6_structural_identities():
    """Marginal identities hold exactly and fitted transition rows sum to 1
    within 1e-12 on 10,000 random tables."""
    rng = np.random.default_rng(606)
    worst_row = 0.0
    for _ in range(10_000):
        scale = int(rng.integers(1, 60))
        counts = rng.integers(0, scale, size=64).astype(np.int64)
        table = DyadTable(counts)
        model = fit(table)
        assert int(model.row_totals.sum()) == table.total
        assert int(model.row_counts.sum()) == table.total
        assert np.array_equal(model.row_counts.sum(axis=(2, 3)), model.row_totals)
        assert np.array_equal(model.masses.sum(axis=(0, 1)), model.row_totals)
        for p in (0, 1):
            for q in (0, 1):
                if model.row_defined[p, q]:
                    worst_row = max(worst_row, abs(model.p0[p, q].sum() - 1.0))
    ok = worst_row <= 1e-12
    line = _verdict(6, "structural identities on 10,000 random tables", ok,
                    f"worst row-sum deviation {worst_row:.2e}")
    assert ok, line


def test_criterion_7_measure_formula_oracle():
    """evaluate(M1..M8) equals the brute-force printed formulas exactly on
    1,000 random tables."""
    rng = np.random.default_rng(707)
    for _ in range(1000):
        counts = rng.integers(0, 100, size=64).astype(np.int64)
        table = DyadTable(counts)
        expected = measure_values_by_formula(counts)
        for measure in MeasureId:
            assert evaluate(table, measure).value == expected[measure.value]
    line = _verdict(7, "measure formula oracle (8,000 exact comparisons)", True)
    assert True, line


def test_criterion_8_determinism(tmp_path):
    """Identical inputs, config and seed give byte-identical CSV, JSON and
    SVG outputs."""
    dyads = tmp_path / "sim.csv"
    code = main(["simulate", "--node-count", "100", "--mean-degree", "8",
                 "--seed", "21", "--out-dyads", str(dyads)])
    assert code == 0
    outputs = {}
    for tag in ("a", "b"):
        csv_path = tmp_path / f"{tag}.csv"
        json_path = tmp_path / f"{tag}.json"
        svg_path = tmp_path / f"{tag}.svg"
        code = main(["evaluate", "--dyads", str(dyads), "--method", "both",
                     "--trials", "3000", "--seed", "13",
                     "--out-csv", str(csv_path), "--out-json", str(json_path),
                     "--chart", str(svg_path)])
        assert code == 0
        outputs[tag] = (csv_path.read_bytes(), json_path.read_bytes(),
                        svg_path.read_bytes())
    ok = outputs["a"] == outputs["b"]
    line = _verdict(8, "byte-identical reruns (csv, json, svg)", ok)
    assert ok, line


def test_criterion_9_throughput():
    """All eight exact tests on a 2,397-dyad table in under 1 s; a 100,000-
    trial bootstrap for all eight in under 30 s."""
    table = simulate_dyad_table(SimParams(seed=909))
    # warm scipy/numpy caches before timing
    run_all(table, InferenceConfig(method="exact"))

    start = time.perf_counter()
    run_all(table, InferenceConfig(method="exact"))
    exact_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    run_all(table, InferenceConfig(method="bootstrap", trials=100_000, seed=1))
    bootstrap_elapsed = time.perf_counter() - start

    ok = exact_elapsed < 1.0 and bootstrap_elapsed < 30.0
    line = _verdict(9, "throughput", ok,
                    f"{table.total}-dyad table: exact x8 {exact_elapsed * 1e3:.0f}ms, "
                    f"bootstrap x8 at 100k trials {bootstrap_elapsed:.1f}s")
    assert ok, line
