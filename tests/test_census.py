import numpy as np
import pytest

from dyadeval import DyadRecord, DyadTable, InputError, build_table, fit
from dyadeval.census import CELL_BITS, cell_codes

from oracles import cell_code, marginals_by_loops


def rec(x, y, p, q, r, s, ego="a", alter="b", item="it"):
    return DyadRecord(ego_id=ego, alter_id=alter, x=x, y=y, p=p, q=q, r=r, s=s,
                      item_id=item)


def test_classify_worked_example():
    assert cell_codes(1, 0, 1, 1, 0, 1) == cell_code(1, 0, 1, 1, 0, 1)
    assert CELL_BITS[cell_code(1, 0, 1, 1, 0, 1)] == (1, 0, 1, 1, 0, 1)


def test_classify_corner_cells():
    assert cell_codes(0, 0, 0, 0, 0, 0) == 0 and CELL_BITS[0] == (0,) * 6
    assert cell_codes(1, 1, 1, 1, 1, 1) == 63 and CELL_BITS[63] == (1,) * 6


def test_cell_code_bijection():
    assert len(CELL_BITS) == 64 and len(set(CELL_BITS)) == 64
    for code, bits in enumerate(CELL_BITS):
        assert bits == tuple(code >> shift & 1 for shift in range(5, -1, -1))
        assert cell_codes(*bits) == code == cell_code(*bits)
    columns = np.array(CELL_BITS).T
    assert cell_codes(*columns).tolist() == list(range(64))


def test_classify_round_trip_all_cells():
    records = [rec(*bits) for bits in CELL_BITS]
    assert [(r.x, r.y, r.p, r.q, r.r, r.s) for r in records] == list(CELL_BITS)
    assert build_table(records).counts.tolist() == [1] * 64


def test_record_validation():
    for at in range(6):
        for bad in (2, -1, 0.5, None):
            bits = [0] * 6
            bits[at] = bad
            with pytest.raises(ValueError, match="must be 0 or 1"):
                rec(*bits)
    with pytest.raises(ValueError):
        DyadRecord(ego_id="same", alter_id="same", x=0, y=0, p=0, q=0, r=0, s=0)


def test_build_table_empty():
    table = build_table([], item="q1")
    assert table.total == 0
    assert table.counts.sum() == 0


def test_build_table_two_records():
    table = build_table([rec(0, 0, 0, 0, 0, 0), rec(1, 1, 1, 1, 1, 1)], item="it")
    assert table.total == 2
    assert table.counts[0] == 1 and table.counts[63] == 1
    assert table.counts.sum() == 2


def test_build_table_rejects_mixed_items():
    with pytest.raises(InputError, match="item_id"):
        build_table([rec(0, 0, 0, 0, 0, 0, item="a"), rec(0, 0, 0, 0, 0, 1, item="b")])
    with pytest.raises(InputError):
        build_table([rec(0, 0, 0, 0, 0, 0, item="a")], item="b")


def test_build_table_matches_hand_tally():
    rng = np.random.default_rng(7)
    codes = rng.integers(0, 64, size=100)
    records = [rec(*CELL_BITS[c]) for c in codes]
    table = build_table(records, item="it")
    tally = [0] * 64
    for c in codes:
        tally[int(c)] += 1
    assert table.counts.tolist() == tally


def test_build_table_order_independent():
    rng = np.random.default_rng(3)
    codes = rng.integers(0, 64, size=60)
    records = [rec(*CELL_BITS[c]) for c in codes]
    shuffled = list(records)
    rng.shuffle(shuffled)
    assert np.array_equal(build_table(records).counts, build_table(shuffled).counts)


def test_table_validation():
    with pytest.raises(ValueError):
        DyadTable(np.zeros(63, dtype=np.int64))
    bad = np.zeros(64, dtype=np.int64)
    bad[5] = -1
    with pytest.raises(ValueError):
        DyadTable(bad)
    with pytest.raises(ValueError):
        DyadTable(np.full(64, 0.5))


def test_table_cells_over_2_to_the_53_are_refused():
    # 64 cells of 2**53 still sum within int64; a larger cell would let the
    # total wrap (64 cells of 2**60 summed to 0)
    assert DyadTable(np.full(64, 2**53)).total == 2**59
    for cell in (2**53 + 1, 2**60, 2.0**60):
        with pytest.raises(ValueError, match=r"at most 2\*\*53"):
            DyadTable(np.full(64, cell))


def test_table_counts_immutable():
    table = DyadTable(np.zeros(64, dtype=np.int64))
    with pytest.raises(ValueError):
        table.counts[0] = 1


def test_single_dyad_marginal_propagation():
    # one dyad at (x=1, y=0, p=0, q=1, r=1, s=0)
    table = build_table([rec(1, 0, 0, 1, 1, 0)])
    model = fit(table)
    assert model.row_totals[0, 1] == 1 and model.row_totals.sum() == 1
    assert model.row_counts.sum(axis=(0, 1))[1, 0] == 1
    assert model.row_counts[0, 1, 1, 0] == 1 and model.row_counts.sum() == 1
    assert model.masses[1, 0, 0, 1] == 1 and model.masses.sum() == 1


def test_post_time_grouped_marginal_semantics():
    # the by_bits view summed over (p, q) counts dyads whose ego
    # participated (x=1), whose alter did not (y=0), with ego having the
    # behavior after (r=1) and the alter not (s=0) -- whatever the
    # pre-states were.
    records = [rec(1, 0, p, q, 1, 0, ego=f"e{i}") for i, (p, q) in
               enumerate([(0, 0), (0, 1), (1, 1)])]
    records.append(rec(1, 1, 0, 0, 1, 0, ego="other"))
    assert build_table(records).by_bits().sum(axis=(2, 3))[1, 0, 1, 0] == 3


def test_marginals_match_loop_oracle():
    rng = np.random.default_rng(19)
    for _ in range(25):
        counts = rng.integers(0, 40, size=64).astype(np.int64)
        model = fit(DyadTable(counts))
        n0, n1, n_pqrs, n0_group, n1_group = marginals_by_loops(counts)
        for (p, q), v in n0.items():
            assert model.row_totals[p, q] == v
        for (r, s), v in n1.items():
            assert model.row_counts.sum(axis=(0, 1))[r, s] == v
        for (p, q, r, s), v in n_pqrs.items():
            assert model.row_counts[p, q, r, s] == v
        for (x, y, p, q), v in n0_group.items():
            assert model.masses[x, y, p, q] == v
        for (x, y, r, s), v in n1_group.items():
            assert DyadTable(counts).by_bits().sum(axis=(2, 3))[x, y, r, s] == v


def test_marginal_identities():
    rng = np.random.default_rng(23)
    counts = rng.integers(0, 100, size=64).astype(np.int64)
    table = DyadTable(counts)
    model = fit(table)
    assert model.total == table.total
    assert model.row_totals.sum() == table.total
    assert model.row_counts.sum() == table.total
    assert np.array_equal(model.row_counts.sum(axis=(2, 3)), model.row_totals)
    assert np.array_equal(model.masses.sum(axis=(0, 1)), model.row_totals)


def test_invert_behavior_permutes_cells():
    for code, (x, y, p, q, r, s) in enumerate(CELL_BITS):
        counts = np.zeros(64, dtype=np.int64)
        counts[code] = 1
        flipped = DyadTable(counts).invert_behavior()
        assert flipped.counts[cell_code(x, y, 1 - p, 1 - q, 1 - r, 1 - s)] == 1
        assert flipped.total == 1


def test_invert_behavior_is_involution_on_tables():
    rng = np.random.default_rng(616)
    for _ in range(1000):
        counts = rng.integers(0, int(rng.integers(1, 60)), size=64).astype(np.int64)
        table = DyadTable(counts)
        twice = table.invert_behavior().invert_behavior()
        assert np.array_equal(twice.counts, table.counts)
