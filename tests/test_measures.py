import numpy as np
import pytest

from dyadeval import (CellIndex, DyadTable, MEASURE_LABELS, MeasureId,
                      MeasureSpec, MeasureValue, all_cells, cells_matching,
                      evaluate, simulate_dyad_table, spec_for)

from oracles import measure_cells_by_formula, measure_values_by_formula


def unit_table(code):
    counts = np.zeros(64, dtype=np.int64)
    counts[code] = 1
    return DyadTable(counts)


def test_m1_positive_cells():
    spec = spec_for(MeasureId.M1)
    expected = {CellIndex(1, y, 1, q, 0, s) for y in (0, 1) for q in (0, 1)
                for s in (0, 1)}
    assert spec.positive_cells == frozenset(expected)
    assert len(spec.positive_cells) == 8 and len(spec.negative_cells) == 8


def test_m5_cell_counts():
    spec = spec_for(MeasureId.M5)
    assert len(spec.positive_cells) == 4
    assert len(spec.negative_cells) == 4


def test_all_specs_match_formula_cells():
    for measure in MeasureId:
        spec = spec_for(measure)
        pos, neg = measure_cells_by_formula(measure.value)
        assert {tuple(c) for c in spec.positive_cells} == pos
        assert {tuple(c) for c in spec.negative_cells} == neg


def test_specs_disjoint():
    for measure in MeasureId:
        spec = spec_for(measure)
        assert not (spec.positive_cells & spec.negative_cells)
        pos_quadrants = {(c.x, c.y) for c in spec.positive_cells}
        neg_quadrants = {(c.x, c.y) for c in spec.negative_cells}
        assert not (pos_quadrants & neg_quadrants)


def test_labels():
    assert MeasureId.M1.label == "Direct Treatment Success in a Social Context"
    assert MeasureId.M8.label == "Diffusion of Prevention"
    assert len(MEASURE_LABELS) == 8


def test_evaluate_all_zero_table():
    table = DyadTable(np.zeros(64, dtype=np.int64))
    for measure in MeasureId:
        value = evaluate(table, measure)
        assert value.value == 0
        assert value.positive_sum == 0 and value.negative_sum == 0


def test_evaluate_hand_case():
    # 5 dyads at (1,0,1,0,0,0): in M1's positive set (x=1, p=1, r=0).
    # 3 dyads at (0,1,1,1,0,1): in M1's negative set (x=0, p=1, r=0).
    counts = np.zeros(64, dtype=np.int64)
    counts[CellIndex(1, 0, 1, 0, 0, 0).code] = 5
    counts[CellIndex(0, 1, 1, 1, 0, 1).code] = 3
    value = evaluate(DyadTable(counts), MeasureId.M1)
    assert (value.positive_sum, value.negative_sum, value.value) == (5, 3, 2)


def test_evaluate_simulator_table_against_formula_oracle():
    table = simulate_dyad_table()
    expected = measure_values_by_formula(table.counts)
    for measure in MeasureId:
        assert evaluate(table, measure).value == expected[measure.value]


def test_value_bounded_by_total():
    rng = np.random.default_rng(5)
    for _ in range(20):
        table = DyadTable(rng.integers(0, 30, size=64).astype(np.int64))
        for measure in MeasureId:
            assert abs(evaluate(table, measure).value) <= table.total


def test_evaluate_distributes_over_addition():
    rng = np.random.default_rng(6)
    a = DyadTable(rng.integers(0, 30, size=64).astype(np.int64))
    b = DyadTable(rng.integers(0, 30, size=64).astype(np.int64))
    ab = DyadTable(a.counts + b.counts)
    for measure in MeasureId:
        va, vb, vab = evaluate(a, measure), evaluate(b, measure), evaluate(ab, measure)
        assert vab.value == va.value + vb.value
        assert vab.positive_sum == va.positive_sum + vb.positive_sum
        assert vab.negative_sum == va.negative_sum + vb.negative_sum


def test_polarity_conjugation_on_all_unit_tables():
    # evaluating the inverted table equals evaluating the bit-flipped spec
    for measure in MeasureId:
        spec = spec_for(measure)
        flipped_spec = spec.transform_invert_behavior()
        for code in range(64):
            table = unit_table(code)
            assert (evaluate(table.invert_behavior(), spec)
                    == evaluate(table, flipped_spec))


def test_invert_behavior_is_involution_on_specs():
    # random specs: disjoint cell sets on disjoint participation quadrants
    rng = np.random.default_rng(626)
    cells = list(all_cells())
    for _ in range(1000):
        quadrants = rng.permutation(4)
        cut = int(rng.integers(0, 5))
        side = {int(q): 0 if i < cut else 1 for i, q in enumerate(quadrants)}
        picked = [c for c in cells if rng.random() < 0.3]
        spec = MeasureSpec(
            frozenset(c for c in picked if side[2 * c.x + c.y] == 0),
            frozenset(c for c in picked if side[2 * c.x + c.y] == 1))
        assert spec.transform_invert_behavior().transform_invert_behavior() == spec
    for measure in MeasureId:
        spec = spec_for(measure)
        assert spec.transform_invert_behavior().transform_invert_behavior() == spec


def test_custom_spec_validation():
    with pytest.raises(ValueError, match="overlap"):
        MeasureSpec(cells_matching(x=1, p=1), cells_matching(x=1, p=1, r=0))
    with pytest.raises(ValueError, match="quadrant"):
        MeasureSpec(cells_matching(x=1, r=0), cells_matching(x=1, r=1))


def test_custom_spec_evaluates():
    spec = MeasureSpec(cells_matching(x=1, y=1, r=0), cells_matching(x=0, y=0, r=0))
    counts = np.zeros(64, dtype=np.int64)
    counts[CellIndex(1, 1, 0, 0, 0, 0).code] = 4
    counts[CellIndex(0, 0, 0, 0, 0, 1).code] = 9  # r=0, s=1: in negative set
    assert evaluate(DyadTable(counts), spec).value == 4 - 9


def test_weight_row_matches_cell_sets():
    for measure in MeasureId:
        spec = spec_for(measure)
        pos, neg = measure_cells_by_formula(measure.name)
        assert spec_for(measure) is spec  # built once
        assert spec.weights.dtype == np.int8 and not spec.weights.flags.writeable
        assert {tuple(CellIndex.from_code(c)) for c in np.flatnonzero(spec.weights == 1)} == pos
        assert {tuple(CellIndex.from_code(c)) for c in np.flatnonzero(spec.weights == -1)} == neg
        # the derived row stays out of equality, hashing and repr
        again = MeasureSpec(spec.positive_cells, spec.negative_cells)
        assert again == spec and hash(again) == hash(spec)
        assert "weights" not in repr(spec)
    with pytest.raises(ValueError):
        MeasureSpec({(2, 0, 0, 0, 0, 0)}, set())


def test_measure_value_invariant():
    with pytest.raises(ValueError):
        MeasureValue(value=1, positive_sum=1, negative_sum=1)


def test_cells_matching_rejects_unknown():
    with pytest.raises(ValueError):
        cells_matching(z=1)
