import hashlib

import numpy as np
import pytest

from dyadeval import DyadTable, NullModel, SimParams, fit, sample, simulate_dyad_table

from oracles import cell_code


def table_from(cells_counts):
    counts = np.zeros(64, dtype=np.int64)
    for (x, y, p, q, r, s), n in cells_counts.items():
        counts[cell_code(x, y, p, q, r, s)] = n
    return DyadTable(counts)


def test_fit_identity_when_no_state_changes():
    # all dyads keep (r,s) == (p,q)
    cells = {}
    rng = np.random.default_rng(1)
    for x in (0, 1):
        for y in (0, 1):
            for p in (0, 1):
                for q in (0, 1):
                    cells[(x, y, p, q, p, q)] = int(rng.integers(1, 10))
    model = fit(table_from(cells))
    for p in (0, 1):
        for q in (0, 1):
            assert model.row_defined[p, q]
            expected = np.zeros((2, 2))
            expected[p, q] = 1.0
            assert np.allclose(model.p0[p, q], expected, atol=0)


def test_fit_direct_ratio():
    cells = {(0, 0, 0, 0, 0, 0): 5, (0, 0, 0, 0, 0, 1): 5}
    model = fit(table_from(cells))
    assert model.row_defined[0, 0]
    assert model.p0[0, 0].ravel().tolist() == [0.5, 0.5, 0.0, 0.0]
    assert not model.row_defined[1, 1]


def test_fit_simulator_table_rows_match_tallies():
    table = simulate_dyad_table()
    model = fit(table)
    c = table.by_bits()
    for p in (0, 1):
        for q in (0, 1):
            row_total = int(c[:, :, p, q].sum())
            assert model.row_defined[p, q] == (row_total > 0)
            if row_total == 0:
                continue
            for r in (0, 1):
                for s in (0, 1):
                    tally = int(c[:, :, p, q, r, s].sum())
                    assert model.p0[p, q, r, s] == pytest.approx(tally / row_total, abs=0)


def test_fit_rows_sum_to_one():
    table = simulate_dyad_table()
    model = fit(table)
    for p in (0, 1):
        for q in (0, 1):
            if model.row_defined[p, q]:
                assert abs(model.p0[p, q].sum() - 1.0) <= 1e-12


def test_fit_empty_table_all_rows_undefined():
    model = fit(DyadTable(np.zeros(64, dtype=np.int64)))
    assert not model.row_defined.any()
    assert model.total == 0
    assert not model.p0.any()


def test_fit_masses_match_marginals():
    table = simulate_dyad_table()
    assert np.array_equal(fit(table).masses, table.by_bits().sum(axis=(4, 5)))


def test_model_is_read_only_tallies_of_its_census():
    # the model is built from a census alone, and every derived array is
    # read-only
    table = simulate_dyad_table()
    model = NullModel(table)
    for name in ("masses", "row_counts", "row_totals", "row_defined", "p0"):
        arr = getattr(model, name)
        assert np.array_equal(arr, getattr(fit(table), name)), name
        assert not arr.flags.writeable, name
    with pytest.raises(TypeError):
        NullModel(p0=model.p0, masses=model.masses, row_defined=model.row_defined)


def test_sample_identity_matrix_reproduces_structure():
    cells = {(1, 0, p, q, p, q): 3 + p + 2 * q for p in (0, 1) for q in (0, 1)}
    table = table_from(cells)
    model = fit(table)
    for seed in range(5):
        drawn = sample(model, seed)
        assert np.array_equal(drawn.counts, table.counts)


def test_sample_degenerate_row():
    # row (1,1) sends everything to (r,s)=(1,1); mass 7 in group (0,0,1,1)
    cells = {(0, 0, 1, 1, 1, 1): 7}
    model = fit(table_from(cells))
    drawn = sample(model, 123)
    assert drawn.counts[cell_code(0, 0, 1, 1, 1, 1)] == 7
    assert drawn.total == 7


def test_sample_conserves_group_masses():
    table = simulate_dyad_table()
    model = fit(table)
    for seed in (0, 1, 2):
        drawn = sample(model, seed)
        assert np.array_equal(fit(drawn).masses, model.masses)
        assert drawn.total == table.total


def test_sample_deterministic():
    model = fit(simulate_dyad_table())
    a = sample(model, 99)
    b = sample(model, 99)
    assert np.array_equal(a.counts, b.counts)


def test_sample_draws_pinned():
    # 150 seeded draws (int, SeedSequence-child and advancing Generator seeds)
    # from three models, hashed: the one-trial sampler's draws are fixed
    digest = hashlib.sha256()
    models = [fit(simulate_dyad_table(SimParams(seed=s))) for s in (0, 1)]
    models.append(fit(DyadTable(np.random.default_rng(2024).integers(0, 5, size=64))))
    for model in models:
        seeds = [*range(40), *np.random.SeedSequence(7).spawn(5)]
        seeds += [np.random.default_rng(11)] * 5
        for seed in seeds:
            digest.update(sample(model, seed).counts.astype("<i8").tobytes())
    assert digest.hexdigest() == (
        "59d7be99a79c6ab4d144702cc273ad2a046263bd1d9d3c505787c86fed9a5e9e")


def test_sample_frequencies_converge():
    # two-outcome row: p((0,0)) = 0.25, p((0,1)) = 0.75, mass 40
    cells = {(0, 0, 0, 0, 0, 0): 10, (0, 0, 0, 0, 0, 1): 30}
    model = fit(table_from(cells))
    n_samples = 10_000
    rng = np.random.default_rng(7)
    hits = np.zeros(n_samples)
    for i in range(n_samples):
        drawn = sample(model, rng)
        hits[i] = drawn.counts[cell_code(0, 0, 0, 0, 0, 0)]
    # mean fraction in outcome (0,0) should approach 0.25
    frac = hits.mean() / 40.0
    se = np.sqrt(0.25 * 0.75 / (40 * n_samples))
    assert abs(frac - 0.25) <= 3 * se


def test_sample_expectation_matches_mass_times_p0():
    cells = {(1, 1, 0, 1, 0, 0): 12, (1, 1, 0, 1, 1, 1): 24}
    model = fit(table_from(cells))
    rng = np.random.default_rng(11)
    n_samples = 4000
    acc = np.zeros(64)
    for _ in range(n_samples):
        acc += sample(model, rng).counts
    mean_counts = acc / n_samples
    expected = 36 * (12 / 36)
    se = np.sqrt(36 * (1 / 3) * (2 / 3) / n_samples)
    assert abs(mean_counts[cell_code(1, 1, 0, 1, 0, 0)] - expected) <= 4 * se


def test_group_event_probability():
    # the probability of a set of (r, s) outcomes is the fitted row summed
    # over that set
    cells = {(0, 0, 1, 0, 0, 0): 2, (0, 0, 1, 0, 0, 1): 3, (0, 0, 1, 0, 1, 1): 5}
    model = fit(table_from(cells))
    row = model.p0[1, 0]
    assert row.sum() == pytest.approx(1.0, abs=1e-15)
    # M1's ego-side outcome pattern fixes r=0, leaving (0,0) and (0,1)
    assert row[0, 0] + row[0, 1] == pytest.approx(2 / 10 + 3 / 10, abs=1e-15)
    assert not model.row_defined[0, 1]


def test_pooling_collapses_participation():
    # two quadrants with the same row distribution but different masses
    cells = {
        (0, 0, 1, 1, 0, 0): 4, (0, 0, 1, 1, 1, 1): 4,
        (1, 1, 1, 1, 0, 0): 6, (1, 1, 1, 1, 1, 1): 6,
    }
    model = fit(table_from(cells))
    assert model.p0[1, 1, 0, 0] == pytest.approx(0.5, abs=0)
    assert model.p0[1, 1, 1, 1] == pytest.approx(0.5, abs=0)
    assert model.masses[0, 0, 1, 1] == 8
    assert model.masses[1, 1, 1, 1] == 12
