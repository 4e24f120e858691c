from itertools import product

import numpy as np
import pytest

from dyadeval import (DyadTable, MEASURE_LABELS, MeasureId, MeasureSpec,
                      MeasureValue, evaluate, simulate_dyad_table, spec_for)
from dyadeval.census import CELL_BITS

from oracles import cell_code, measure_cells_by_formula, measure_values_by_formula

# The cell each cell's code moves to when its behavior bits are flipped, as
# in DyadTable.invert_behavior.
FLIP = np.arange(64) ^ 0b1111


def unit_table(code):
    counts = np.zeros(64, dtype=np.int64)
    counts[code] = 1
    return DyadTable(counts)


def test_m1_positive_cells():
    spec = spec_for(MeasureId.M1)
    expected = {(1, y, 1, q, 0, s) for y, q, s in product((0, 1), repeat=3)}
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
        assert spec.positive_cells == pos
        assert spec.negative_cells == neg


def test_specs_disjoint():
    for measure in MeasureId:
        spec = spec_for(measure)
        assert not (spec.positive_cells & spec.negative_cells)
        pos_quadrants = {c[:2] for c in spec.positive_cells}
        neg_quadrants = {c[:2] for c in spec.negative_cells}
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
    counts[cell_code(1, 0, 1, 0, 0, 0)] = 5
    counts[cell_code(0, 1, 1, 1, 0, 1)] = 3
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
    # evaluating the inverted table equals evaluating the permuted row
    for measure in MeasureId:
        spec = spec_for(measure)
        flipped = spec.weights[FLIP]
        for code in range(64):
            table = unit_table(code)
            value = evaluate(table.invert_behavior(), spec)
            assert value.positive_sum == int((flipped > 0) @ table.counts)
            assert value.negative_sum == int((flipped < 0) @ table.counts)


def flip_cells(cells):
    return frozenset((x, y, 1 - p, 1 - q, 1 - r, 1 - s) for x, y, p, q, r, s in cells)


def test_invert_behavior_is_involution_on_specs():
    # random specs: disjoint cell sets on disjoint participation quadrants;
    # the spec of the flipped cells has the permuted row, and flipping twice
    # gives the spec back
    rng = np.random.default_rng(626)
    specs = [spec_for(m) for m in MeasureId]
    for _ in range(1000):
        quadrants = rng.permutation(4)
        cut = int(rng.integers(0, 5))
        side = {int(q): 0 if i < cut else 1 for i, q in enumerate(quadrants)}
        picked = [c for c in CELL_BITS if rng.random() < 0.3]
        specs.append(MeasureSpec(
            frozenset(c for c in picked if side[2 * c[0] + c[1]] == 0),
            frozenset(c for c in picked if side[2 * c[0] + c[1]] == 1)))
    for spec in specs:
        flipped = MeasureSpec(flip_cells(spec.positive_cells), flip_cells(spec.negative_cells))
        assert np.array_equal(flipped.weights, spec.weights[FLIP])
        assert np.array_equal(spec.weights[FLIP][FLIP], spec.weights)
        assert MeasureSpec(flip_cells(flipped.positive_cells),
                           flip_cells(flipped.negative_cells)) == spec


def test_custom_spec_validation():
    with pytest.raises(ValueError, match="overlap"):
        MeasureSpec({(1, 0, 1, 0, 0, 0), (1, 0, 1, 0, 1, 0)}, {(1, 0, 1, 0, 0, 0)})
    with pytest.raises(ValueError, match=r"quadrants \[\(1, 0\)\]"):
        MeasureSpec({(1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0)}, {(1, 0, 0, 0, 1, 0)})


def test_custom_spec_evaluates():
    spec = MeasureSpec({(1, 1, p, q, 0, s) for p, q, s in product((0, 1), repeat=3)},
                       {(0, 0, p, q, 0, s) for p, q, s in product((0, 1), repeat=3)})
    counts = np.zeros(64, dtype=np.int64)
    counts[cell_code(1, 1, 0, 0, 0, 0)] = 4
    counts[cell_code(0, 0, 0, 0, 0, 1)] = 9  # r=0, s=1: in negative set
    assert evaluate(DyadTable(counts), spec).value == 4 - 9


def test_weight_row_matches_cell_sets():
    for measure in MeasureId:
        spec = spec_for(measure)
        pos, neg = measure_cells_by_formula(measure.name)
        assert spec_for(measure) is spec  # built once
        assert spec.weights.dtype == np.int8 and not spec.weights.flags.writeable
        assert {CELL_BITS[c] for c in np.flatnonzero(spec.weights == 1)} == pos
        assert {CELL_BITS[c] for c in np.flatnonzero(spec.weights == -1)} == neg
        # the derived row stays out of equality, hashing and repr
        again = MeasureSpec(spec.positive_cells, spec.negative_cells)
        assert again == spec and hash(again) == hash(spec)
        assert "weights" not in repr(spec)
    with pytest.raises(ValueError):
        MeasureSpec({(2, 0, 0, 0, 0, 0)}, set())


def test_measure_value_invariant():
    with pytest.raises(ValueError):
        MeasureValue(value=1, positive_sum=1, negative_sum=1)


def test_spec_rejects_malformed_cells():
    for bad in [(1, 0, 1, 0, 0), (1, 0, 2, 0, 0, 0), (1, 0, 1, 0, 0, 0, 0), (1, 0, -1, 0, 0, 0)]:
        with pytest.raises(ValueError, match="six bits"):
            MeasureSpec({bad}, set())
        with pytest.raises(ValueError, match="six bits"):
            MeasureSpec(set(), {bad})


def test_builtin_rows_match_indices_construction():
    # each row built independently: cells whose fixed coordinates match,
    # over the (x, y, p, q, r, s) grid of np.indices in C order
    fixed = {
        "M1": ({"x": 1, "p": 1, "r": 0}, {"x": 0, "p": 1, "r": 0}),
        "M2": ({"x": 1, "p": 0, "r": 0}, {"x": 0, "p": 0, "r": 0}),
        "M3": ({"x": 1, "q": 1, "s": 0}, {"x": 0, "q": 1, "s": 0}),
        "M4": ({"x": 1, "q": 0, "s": 0}, {"x": 0, "q": 0, "s": 0}),
        "M5": ({"x": 1, "y": 1, "p": 1, "r": 0}, {"x": 1, "y": 0, "p": 1, "r": 0}),
        "M6": ({"x": 1, "y": 1, "p": 0, "r": 0}, {"x": 1, "y": 0, "p": 0, "r": 0}),
        "M7": ({"x": 1, "y": 0, "q": 1, "s": 0}, {"x": 0, "y": 0, "q": 1, "s": 0}),
        "M8": ({"x": 1, "y": 0, "q": 0, "s": 0}, {"x": 0, "y": 0, "q": 0, "s": 0}),
    }
    grid = dict(zip("xypqrs", np.indices((2,) * 6).reshape(6, 64)))

    def mask(coords):
        return np.logical_and.reduce([grid[k] == v for k, v in coords.items()])

    for measure in MeasureId:
        pos, neg = fixed[measure.value]
        expected = mask(pos).astype(np.int8) - mask(neg).astype(np.int8)
        assert np.array_equal(spec_for(measure).weights, expected)
