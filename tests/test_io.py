import csv
import itertools
import math
import os
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from oracles import NodeRow, join_node_edges_by_rows, parse_dyad_csv_by_rows, record_code

from dyadeval import (DyadTable, InferenceConfig, InputError, MeasureId, MeasureSpec,
                      NumericalIntegrityError, SimParams, bootstrap_test, build_table, census,
                      cli, exact_test, fit, inference, io, run_all, simulate_dyad_table)
from dyadeval.inference import run_items
from dyadeval.io import (ItemReport, dyad_csv_items, emit_report, evaluate_items,
                         join_node_edges, load_report_json, node_edge_items,
                         parse_dyad_csv, parse_node_csv, parse_table64, read_edge_list)

DYAD_HEADER = "ego_id,alter_id,ego_part,alter_part,ego_b0,alter_b0,ego_b1,alter_b1,item_id"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


# ------------------------------------------------------ dyad CSV

def test_dyad_csv_empty(tmp_path):
    path = write(tmp_path, "d.csv", DYAD_HEADER + "\n")
    records, drops = parse_dyad_csv(path)
    assert records == [] and drops == []


def test_dyad_csv_single_row(tmp_path):
    path = write(tmp_path, "d.csv", DYAD_HEADER + "\nu,v,1,0,1,1,0,1,q1\n")
    records, drops = parse_dyad_csv(path)
    assert len(records) == 1 and not drops
    rec = records[0]
    assert (rec.x, rec.y, rec.p, rec.q, rec.r, rec.s) == (1, 0, 1, 1, 0, 1)
    assert rec.item_id == "q1"


def test_dyad_csv_non_binary_rejected(tmp_path):
    path = write(tmp_path, "d.csv", DYAD_HEADER + "\nu,v,1,0,2,1,0,1,q1\n")
    with pytest.raises(InputError, match=r"line 2.*ego_b0"):
        parse_dyad_csv(path)


def test_dyad_csv_missing_bits_dropped(tmp_path):
    path = write(tmp_path, "d.csv",
                 DYAD_HEADER + "\nu,v,1,0,,1,0,1,q1\nw,z,0,0,1,1,1,1,q1\n")
    records, drops = parse_dyad_csv(path)
    assert len(records) == 1
    assert drops == [(2, "q1")]


def test_dyad_csv_header_missing_column(tmp_path):
    path = write(tmp_path, "d.csv", "ego_id,alter_id\nu,v\n")
    with pytest.raises(InputError, match="header"):
        parse_dyad_csv(path)


def test_dyad_csv_short_row(tmp_path):
    path = write(tmp_path, "d.csv", DYAD_HEADER + "\nu,v,1\n")
    with pytest.raises(InputError, match="line 2"):
        parse_dyad_csv(path)


def test_dyad_csv_self_dyad_rejected(tmp_path):
    path = write(tmp_path, "d.csv", DYAD_HEADER + "\nu,u,1,0,1,1,0,1,q1\n")
    with pytest.raises(InputError, match="line 2"):
        parse_dyad_csv(path)


def test_dyad_csv_missing_file():
    with pytest.raises(InputError, match="no such file"):
        parse_dyad_csv("/nonexistent/d.csv")


_BIT_TOKENS = ["0", "1"] * 12 + [" 1", "0 ", "NA", "na", ".", "", "None", '"1"']
_BAD_TOKENS = ["2", "x", "01", "1.0", "-1"]
_EGOS, _ALTERS = ["u", " v", "w "], ["x", "y ", "\tz"]
_ITEMS = ["q1", "q2", " q1", "q2 ", "NA", ""]


def random_dyad_csv(rng, path, n_rows, bad_rows):
    """A seeded dyad CSV mixing clean rows with every kind of row the row
    rules handle: padded and missing bits, blank and short rows, padded and
    raw self-dyads, padded item ids, an item seen only on dropped rows, and
    ``bad_rows`` rows that raise."""
    lines = [DYAD_HEADER]
    for _ in range(n_rows):
        kind = rng.random()
        if kind < 0.05:
            lines.append(["", ",,,,,,,,", "  ,"][rng.integers(3)])
            continue
        ego, alter = _EGOS[rng.integers(3)], _ALTERS[rng.integers(3)]
        item = _ITEMS[rng.integers(len(_ITEMS))]
        bits = [_BIT_TOKENS[rng.integers(len(_BIT_TOKENS))] if rng.random() < 0.3
                else str(rng.integers(2)) for _ in range(6)]
        if kind < 0.1:
            bits[rng.integers(6)], item = "NA", "q_dropped"
        lines.append(",".join([ego, alter, *bits, item]))
    for _ in range(bad_rows):
        at = int(rng.integers(1, len(lines) + 1))
        kind = rng.integers(4)
        if kind == 0:
            bad = "u,v,1,0"
        elif kind == 1:
            bad = f"u,v,1,{_BAD_TOKENS[rng.integers(len(_BAD_TOKENS))]},1,1,0,1,q1"
        elif kind == 2:
            bad = "u,u,1,0,1,1,0,1,q1"
        else:
            bad = "u , u,1,0,1,1,0,1,q1"
        lines.insert(at, bad)
    path.write_text("\n".join(lines) + "\n")
    return path


def outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return "error", str(exc)


def is_error(result):
    return isinstance(result, tuple) and result[0] == "error"


def reference_tables(path, items, delimiter=","):
    """Per-item tables and drop counts from the row-by-row reference parser."""
    parsed = outcome(parse_dyad_csv_by_rows, path, delimiter)
    if is_error(parsed):
        return parsed
    records, drops = parsed
    by_item = {}
    for rec in records:
        by_item.setdefault(rec.item_id, []).append(rec)
    names = items if items is not None else sorted(by_item)
    return [(item, build_table(by_item.get(item, []), item=item).counts.tolist(),
             sum(1 for _, i in drops if i == item)) for item in names]


def streamed_tables(path, items, delimiter=","):
    """The tables and drop counts ``dyad_csv_items`` builds."""
    built = outcome(dyad_csv_items, path, items, delimiter)
    if is_error(built):
        return built
    return [(item, t.counts.tolist(), dropped) for item, t, dropped in built]


def test_dyad_csv_repeated_rows_tallied_as_given(tmp_path):
    # the same (ego, alter, item) row three times counts three dyads, on the
    # record path and on the streamed tally alike
    lines = frozen_dyad_csv(tmp_path).read_text().splitlines()
    repeat = "u,v,1,0,1,1,0,1,q1"
    path = write(tmp_path, "dup.csv", "\n".join(lines + [repeat] * 3) + "\n")
    records, drops = parse_dyad_csv(path)
    assert len(records) == 11 and not drops
    table = build_table(records, item="q1")
    assert table.counts[0b101101] == 3 and table.total == 11
    assert streamed_tables(path, None) == [("q1", table.counts.tolist(), 0)]


@pytest.mark.parametrize("block_bytes", [7, 65_536])
def test_block_reader_matches_row_reference(tmp_path, monkeypatch, block_bytes):
    monkeypatch.setattr(io, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(2024)
    errors = 0
    for case in range(120):
        path = random_dyad_csv(rng, tmp_path / f"d{case}.csv", int(rng.integers(0, 40)),
                               bad_rows=int(rng.integers(0, 3)) if case % 2 else 0)
        assert outcome(parse_dyad_csv, path) == outcome(parse_dyad_csv_by_rows, path)
        items = [None, ["q1", "q2", "q_dropped", "q_absent", "", "NA"]][case % 2]
        expected = reference_tables(path, items)
        assert streamed_tables(path, items) == expected
        errors += is_error(expected)
    assert 10 < errors < 60  # files that raise and files that do not are both common


def test_block_reader_raises_row_error_before_later_read_error(tmp_path):
    # a bad row is reported before an undecodable byte or an over-long field
    # further on, even when both fall in one block
    head = DYAD_HEADER + "\nu,v,1,0,1,1,0,1,q1\nu,v,1,0,7,1,0,1,q1\n"
    body = "".join(f"e{i},a{i},1,0,1,1,0,1,q1\n" for i in range(2000))
    for tail in (b"u,\xff,1,0,1,1,0,1,q1\n", b"u," + b"w" * 200_000 + b",1,0,1,1,0,1,q1\n"):
        path = tmp_path / "d.csv"
        path.write_bytes((head + body).encode() + tail)
        with pytest.raises(InputError) as exc:
            parse_dyad_csv(path)
        assert str(exc.value) == f"{path}: line 3: column 'ego_b0' must be 0 or 1, got '7'"


def tally_outcome(path, delimiter=","):
    """``io._tally_dyad_csv`` as plain lists, or ("error", message)."""
    result = outcome(io._tally_dyad_csv, path, delimiter)
    if is_error(result):
        return result
    counts, dropped = result
    return {item: c.tolist() for item, c in counts.items()}, dropped


def reference_tally(path, delimiter):
    """What ``tally_outcome`` should give, from the row-by-row reference."""
    parsed = outcome(parse_dyad_csv_by_rows, path, delimiter)
    if is_error(parsed):
        return parsed
    records, drops = parsed
    counts = {}
    for rec in records:
        counts.setdefault(rec.item_id, [0] * 64)[record_code(rec)] += 1
    return counts, dict(Counter(item for _, item in drops))


def test_row_lines_count_physical_lines_after_multiline_field(tmp_path):
    # row 2's quoted id spans physical lines 2-3, so the next row starts on
    # line 4: its error and its drop name line 4 on every reader
    head = DYAD_HEADER + '\n"u\nx",v,1,0,1,1,0,1,q1\n'
    bad = write(tmp_path, "bad.csv", head + "w,z,1,0,7,1,0,1,q1\n")
    message = f"{bad}: line 4: column 'ego_b0' must be 0 or 1, got '7'"
    for reader in (parse_dyad_csv, parse_dyad_csv_by_rows, tally_outcome):
        assert outcome(reader, bad) == ("error", message)
    dropped = write(tmp_path, "drop.csv", head + "w,z,1,0,NA,1,0,1,q1\n")
    assert parse_dyad_csv(dropped)[1] == parse_dyad_csv_by_rows(dropped)[1] == [(4, "q1")]
    assert tally_outcome(dropped)[1] == {"q1": 1}


def record_csv_blocks(monkeypatch):
    """(first line, bytes) of each part the dyad tally hands to csv (and of
    each line of a part with an undecodable byte), recorded from now on."""
    handed = []
    block_lines = io._block_lines
    monkeypatch.setattr(io, "_block_lines", lambda path, line_no, block: (
        handed.append((line_no, block)) or block_lines(path, line_no, block)))
    return handed


def test_plain_file_checks_only_its_missing_bit_rows(tmp_path, monkeypatch):
    # on a plain file, with LF and with CRLF line ends, the byte path keeps
    # every clean row in numpy: the row rules see just the 1% of rows with a
    # missing bit, and no block is handed to csv
    na = set(range(37, 20_000, 100))
    lines = [DYAD_HEADER] + [f"e{i},a{i},{i & 1},0,{'NA' if i in na else 1},{i >> 1 & 1},0,1,"
                             f"q{i % 7}" for i in range(20_000)]
    checked = []
    check_row = io._check_row
    monkeypatch.setattr(io, "_check_row", lambda row, line_no, *rest: (
        checked.append(line_no) or check_row(row, line_no, *rest)))
    handed = record_csv_blocks(monkeypatch)
    for eol in ("\n", "\r\n"):
        path = tmp_path / "d.csv"
        path.write_bytes((eol.join(lines) + eol).encode())
        checked.clear()
        counts, dropped = io._tally_dyad_csv(path, ",")
        assert checked == [i + 2 for i in sorted(na)] and not handed, eol
        assert dropped == Counter(f"q{i % 7}" for i in na)
        assert sum(int(c.sum()) for c in counts.values()) == 20_000 - len(na)


def test_csv_path_checks_each_row_once(tmp_path, monkeypatch):
    # a quoted id on every row sends every block to csv, where every row,
    # blank ones too, goes through the row rules exactly once, and nothing
    # else keeps or drops a row
    lines = [DYAD_HEADER] + [f'"e{i}",a{i % 13},{i & 1},0,{"NA" if i % 50 == 7 else 1},'
                             f"{i >> 1 & 1},0,1,q{i % 7}" + ("\n" if i % 97 == 0 else "")
                             for i in range(3_000)]
    path = write(tmp_path, "d.csv", "\n".join(lines) + "\n")
    checked = Counter()
    check_row = io._check_row
    monkeypatch.setattr(io, "_check_row", lambda row, line_no, *rest: (
        checked.update([line_no]) or check_row(row, line_no, *rest)))
    monkeypatch.setattr(io, "_BLOCK_BYTES", 16_384)
    rows = list(range(2, len(path.read_text().splitlines()) + 1))
    for reader in (streamed_tables, lambda path, items: parse_dyad_csv(path)):
        checked.clear()
        reader(path, None)
        assert sorted(checked) == rows and set(checked.values()) == {1}
    assert streamed_tables(path, None) == reference_tables(path, None)


# Ids of 7, 8, 9, 16, 17 and 64 bytes too, whose ego and alter pairs may
# agree in their first 7, 8, 16 or 63 bytes, or differ only in length.
_FUZZ_EGOS = ["u", "n00619", "", "w ", "k" * 7, "k" * 8, "k" * 8 + "1", "k" * 16,
              "k" * 16 + "1", "k" * 64]
_FUZZ_ALTERS = ["v", "n01903", "x", " y", "k" * 7 + "j", "k" * 8 + "2", "k" * 9, "k" * 16 + "2",
                "k" * 17, "k" * 63 + "1"]
_FUZZ_BITS = ["0", "1"] * 20 + ["NA", "na", "", ".", "None", " 1", "0 ", "\x0c1"]
_FUZZ_BAD_BITS = ["2", "x", "01", "1.0", "-1", "1x"]
_FUZZ_ITEMS = ["q1", "q2", "", "NA", " q1", "q_longer_than_8", "q" * 70,
               "i" * 8, "i" * 9, "i" * 16, "i" * 17, "i" * 64]
_FUZZ_LIMIT = 300
# The first field of a row that turns its block away from the byte path:
# a quoted id holding the delimiter or a newline, a non-ASCII id, an
# undecodable byte, a field over csv's (lowered) size limit; or a lone CR
# ending the file's last line.  CRLF line ends are no turn: they are plain.
_FUZZ_TURNS = {"quote": lambda d: f'"u{d}x"'.encode(), "quoted_newline": lambda d: b'"u\nx"',
               "non_ascii": lambda d: "\u00e9".encode(), "undecodable": lambda d: b"\xff",
               "oversized": lambda d: b"w" * (_FUZZ_LIMIT + 1), "lone_cr": None}
_FUZZ_IDS = [_FUZZ_TURNS[turn] for turn in ("quote", "quoted_newline", "non_ascii")]


def fuzz_dyad_csv(rng, path, delimiter, ids=0):
    """A seeded dyad CSV of 0-60 rows: permuted and extra columns, clean and
    missing bits, blank, short and long rows, empty ids, ids of up to 64
    bytes and over, ego and alter ids that share a prefix, self-dyads and,
    in half the files, bad bits; in a third of the files CRLF line ends
    from one line on; in two thirds of the files one row from which on the
    file is not plain; and ``ids`` more rows whose ego id is not plain
    (quoted, across a line end or not ASCII).  Returns the byte offset of
    the first row that is not plain, or None."""
    names = list(io._DYAD_COLUMNS) + [f"extra{i}" for i in range(rng.integers(0, 3))]
    header = [names[i] for i in rng.permutation(len(names))]
    ego = header.index("ego_id")
    bad_rate = [0.0, 0.02][rng.integers(2)]
    lines = [delimiter.join(header).encode()]
    for _ in range(rng.integers(0, 61)):
        kind = rng.random()
        if kind < 0.04:
            lines.append(["", delimiter * 3, "  "][rng.integers(3)].encode())
            continue
        field = {name: "z" for name in header}
        field["ego_id"] = _FUZZ_EGOS[rng.integers(len(_FUZZ_EGOS))]
        field["alter_id"] = (_FUZZ_ALTERS[rng.integers(len(_FUZZ_ALTERS))] if rng.random() > 0.01
                             else field["ego_id"] + " " * rng.integers(2))
        for name in io._DYAD_COLUMNS[2:8]:
            field[name] = (_FUZZ_BITS[rng.integers(len(_FUZZ_BITS))] if rng.random() < 0.15
                           else str(rng.integers(2)))
        if rng.random() < bad_rate:
            field[io._DYAD_COLUMNS[rng.integers(2, 8)]] = _FUZZ_BAD_BITS[rng.integers(6)]
        field["item_id"] = _FUZZ_ITEMS[rng.integers(len(_FUZZ_ITEMS))]
        row = [field[name] for name in header]
        if kind < 0.04 + bad_rate:
            row = row[:rng.integers(1, len(row))]
        elif kind < 0.08:
            row.append("more")
        lines.append(delimiter.join(row).encode())
    turn = at = turn_at = None
    if len(lines) > 1 and rng.random() < 2 / 3:
        at = int(rng.integers(1, len(lines)))
        turn = list(_FUZZ_TURNS)[rng.integers(len(_FUZZ_TURNS))]
    end = b"\n" * int(rng.integers(2))  # after the last line
    if rng.random() < 1 / 3:
        crlf = int(rng.integers(len(lines)))
        lines[crlf:] = [line + b"\r" for line in lines[crlf:]]
        end = b"\n"
    if turn == "lone_cr":
        at = len(lines) - 1
        lines[at] = lines[at].removesuffix(b"\r") + b"\r"
        end = b""
    elif turn is not None:
        cut = lines[at].find(delimiter.encode())
        rest = lines[at][cut:] if cut >= 0 else b""  # the row past its first field
        lines[at] = _FUZZ_TURNS[turn](delimiter) + rest
    turned = [] if turn is None else [at]
    for row in rng.integers(1, len(lines), size=ids if len(lines) > 1 else 0).tolist():
        fields = lines[row].split(delimiter.encode())
        if row != at and len(fields) > ego:
            fields[ego] = _FUZZ_IDS[rng.integers(len(_FUZZ_IDS))](delimiter)
            lines[row] = delimiter.encode().join(fields)
            turned.append(row)
    if turned:
        turn_at = len(b"\n".join(lines[:min(turned)])) + 1
    path.write_bytes(b"\n".join(lines) + end)
    return turn_at


@pytest.fixture
def low_field_limit():
    """csv's field size limit lowered to ``_FUZZ_LIMIT`` for one test."""
    limit = csv.field_size_limit(_FUZZ_LIMIT)
    yield
    csv.field_size_limit(limit)


def record_plain_rows(monkeypatch):
    """The first line of each block the dyad tally hands to ``_plain_rows``,
    recorded from now on."""
    lines = []
    plain_rows = io._plain_rows
    monkeypatch.setattr(io, "_plain_rows", lambda buf, ends, line_no, *rest: (
        lines.append(line_no) or plain_rows(buf, ends, line_no, *rest)))
    return lines


@pytest.mark.parametrize("delimiter", [",", ";", "\t"])
def test_byte_path_matches_row_reference(tmp_path, monkeypatch, low_field_limit, delimiter):
    # per-item tables, drop counts and the first error of the byte path and
    # of dyad_csv_items equal the row-by-row reference's, with blocks of a
    # few dozen bytes so rows straddle block edges; every part csv takes
    # starts a line, the first at the first line that is not plain, a plain
    # one only right after another part csv took (whose last row is still
    # open).  The last 100 files have three more ids that are not plain, so
    # that the byte path often resumes after csv and csv often comes back
    handed, plain = record_csv_blocks(monkeypatch), record_plain_rows(monkeypatch)
    rng = np.random.default_rng([12, ord(delimiter)])
    errors = switched = resumed = reentered = 0
    for case in range(250):
        monkeypatch.setattr(io, "_BLOCK_BYTES", int(rng.integers(16, 80)))
        path = tmp_path / f"d{case}.csv"
        turn_at = fuzz_dyad_csv(rng, path, delimiter, ids=3 * (case >= 150))
        expected = reference_tally(path, delimiter)
        handed.clear()
        plain.clear()
        assert tally_outcome(path, delimiter) == expected, case
        data = path.read_bytes()
        line_starts = np.cumsum([0] + [len(line) for line in data.splitlines(True)])
        ends = 0  # the line after the last part csv took
        for line_no, block in handed:
            assert data.startswith(block, line_starts[line_no - 1]), case
            assert io._plain_lines(block, _FUZZ_LIMIT) is None or line_no == ends, case
            ends = line_no + io._line_count(block)
        if handed:
            assert turn_at is not None and line_starts[handed[0][0] - 1] == turn_at, case
            switched += handed[0][0] > 1
            resumed += any(line_no > handed[0][0] for line_no in plain)
            reentered += any(handed[0][0] < line_no < handed[-1][0] for line_no in plain)
        items = [None, ["q1", "q2", "NA", "", "q_longer_than_8", "q_absent"]][case % 2]
        assert (streamed_tables(path, items, delimiter)
                == reference_tables(path, items, delimiter)), case
        errors += is_error(expected)
    # files that raise and files that do not are both common, and csv's
    # parts start mid-file, end before the file does and come back often
    counts = errors, switched, resumed, reentered
    assert 20 <= errors <= 230 and switched > 60 and resumed > 35 and reentered > 20, counts


def test_quoted_ids_send_only_their_lines_to_csv(tmp_path, monkeypatch):
    # a quoted id on lines 5 and 10,000 of a 20k-row file, or on lines 5 and
    # 40 of its first block: csv and the row rules read just those two lines,
    # every other line but the missing-bit rows (those between the two too)
    # goes through _plain_rows, and the tables equal the unquoted file's
    monkeypatch.setattr(io, "_BLOCK_BYTES", 16_384)
    rows = [DYAD_HEADER] + [f"e{i},a{i},{i & 1},0,{'NA' if i % 97 == 5 else 1},"
                            f"{i >> 1 & 1},0,1,q{i % 7}" for i in range(20_000)]
    plain_file = write(tmp_path, "plain.csv", "\n".join(rows) + "\n")
    expected = tally_outcome(plain_file)
    checked = []
    check_row = io._check_row
    monkeypatch.setattr(io, "_check_row", lambda row, line_no, *rest: (
        checked.append(line_no) or check_row(row, line_no, *rest)))
    handed, plain = record_csv_blocks(monkeypatch), record_plain_rows(monkeypatch)
    for quoted_lines in ([5, 10_000], [5, 40]):
        lines = list(rows)
        for line in quoted_lines:
            lines[line - 1] = f'"e{line - 2}",' + lines[line - 1].partition(",")[2]
        quoted = write(tmp_path, "quoted.csv", "\n".join(lines) + "\n")
        checked.clear()
        handed.clear()
        plain.clear()
        assert tally_outcome(quoted) == expected
        assert handed == [(line, lines[line - 1].encode() + b"\n") for line in quoted_lines]
        firsts = [line_no for line_no, _ in io._byte_blocks(quoted)]
        assert len(firsts) > 20 and (quoted_lines[1] < firsts[1]) == (quoted_lines[1] == 40)
        assert plain == sorted({2, *firsts[1:], *(line + 1 for line in quoted_lines)}
                               - set(quoted_lines))
        na = [i + 2 for i in range(20_000) if i % 97 == 5]
        assert checked == sorted({*quoted_lines, *na})


def test_quoted_field_across_a_block_edge_hands_csv_only_its_lines(tmp_path, monkeypatch):
    # an ego id quoted across the line end that ends a block: csv takes that
    # line and, while the row is open, the next block's first run, the closing
    # quote's line alone; _plain_rows takes the line after it
    monkeypatch.setattr(io, "_BLOCK_BYTES", 16_384)
    lines = [DYAD_HEADER] + [f"e{i},a{i},{i & 1},0,{'NA' if i % 97 == 5 else 1},"
                             f"{i >> 1 & 1},0,1,q{i % 7}" for i in range(2_000)]
    ends = np.cumsum([len(line) + 1 for line in lines])  # the offset after each line
    n = int(np.searchsorted(ends, 16_384 - 16))  # the row on line n + 1 opens the quote
    lines[n] = '"' + "y" * int(16_384 - 8 - ends[n - 1]) + '\nx",' + lines[n].partition(",")[2]
    path = write(tmp_path, "d.csv", "\n".join(lines) + "\n")
    firsts = [line_no for line_no, _ in io._byte_blocks(path)]
    assert firsts[1] == n + 2 and len(firsts) > 2  # line n + 1 ends the first block
    handed, plain = record_csv_blocks(monkeypatch), record_plain_rows(monkeypatch)
    assert tally_outcome(path) == reference_tally(path, ",")
    opening, closing = lines[n].encode().split(b"\n")
    assert handed == [(n + 1, opening + b"\n"), (n + 2, closing + b"\n")]
    assert plain == [2, n + 3, *firsts[2:]]


def rule_runs(path):
    """(first line, last line, plain) of each run the dyad tally should make
    of ``path``, a file of LF lines whose only lines that are not plain hold
    a quote: per block, the maximal runs of plain lines and of lines that
    are not, a plain run between two that are not joining them if it has no
    more lines than the block has runs that are not."""
    runs = []
    for first, block in io._byte_blocks(path):
        block_runs = []
        for odd, group in itertools.groupby(enumerate(block.splitlines(), first),
                                            key=lambda pair: b'"' in pair[1]):
            lines = [line_no for line_no, _ in group]
            block_runs.append([lines[0], lines[-1], not odd])
        odd_runs = sum(not plain for _, _, plain in block_runs)
        for run in block_runs[1:-1]:
            run[2] = run[2] and run[1] - run[0] + 1 > odd_runs
        for k, run in enumerate(block_runs):
            if k and run[2] == runs[-1][2]:
                runs[-1][1] = run[1]
            else:
                runs.append(run)
    return runs


def test_dense_quoted_ids_bound_the_numpy_passes_of_a_block(tmp_path, monkeypatch):
    # with a quoted id on 0.3-50% of the rows, csv and _plain_rows take the
    # runs of ``rule_runs``, so a block makes at most ~sqrt(its lines) + 2
    # _plain_rows passes, and the tables equal the row reference's
    monkeypatch.setattr(io, "_BLOCK_BYTES", 4_096)
    handed, plain = record_csv_blocks(monkeypatch), record_plain_rows(monkeypatch)
    rng = np.random.default_rng(29)
    for rate in (0.003, 0.03, 0.1, 0.5):
        lines = [DYAD_HEADER] + [(f'"e{i}"' if rng.random() < rate else f"e{i}")
                                 + f",a{i},{i & 1},0,1,{i >> 1 & 1},0,1,q{i % 7}"
                                 for i in range(3_000)]
        path = write(tmp_path, "d.csv", "\n".join(lines) + "\n")
        handed.clear()
        plain.clear()
        assert tally_outcome(path) == reference_tally(path, ","), rate
        runs = rule_runs(path)
        assert [(line_no, line_no + io._line_count(part) - 1)
                for line_no, part in handed] == [(a, b) for a, b, p in runs if not p], rate
        assert plain == [max(a, 2) for a, b, p in runs if p and b > 1], rate
        for first, block in io._byte_blocks(path):
            lines = block.count(b"\n")
            passes = sum(first <= line_no < first + lines for line_no in plain)
            assert passes <= math.sqrt(lines) + 2, (rate, first)


def test_dyad_tally_memory_does_not_grow_with_rows(tmp_path, monkeypatch):
    # on the byte path and, with every id quoted, on csv's blocks alike
    monkeypatch.setattr(io, "_BLOCK_BYTES", 16_384)
    for quote in ("", '"'):
        peaks = []
        for rows in (10_000, 100_000):
            lines = [DYAD_HEADER] + [f"{quote}e{i}{quote},a{i},{i & 1},0,1,{i >> 1 & 1},0,1,"
                                     f"q{i % 5}" for i in range(rows)]
            path = write(tmp_path, f"d{rows}.csv", "\n".join(lines) + "\n")
            del lines
            tracemalloc.start()
            try:
                counts, dropped = io._tally_dyad_csv(path, ",")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert sum(int(c.sum()) for c in counts.values()) == rows and not dropped
        assert peaks[1] < 1.2 * peaks[0], (quote, peaks)


_READERS = {
    "dyad": (parse_dyad_csv, DYAD_HEADER + "\nu,v,1,0,1,1,0,1,q1\n"),
    "dyad_tally": (lambda path: io._tally_dyad_csv(path, ","),
                   DYAD_HEADER + "\nu,v,1,0,1,1,0,1,q1\n"),
    "node": (parse_node_csv, "node_id,participation,q1_before,q1_after\na,1,1,0\n"),
    "edge": (read_edge_list, "# ties\na,b\n"),
    "table64": (parse_table64, "x,y,p,q,r,s,value\n0,0,0,0,0,0,1\n"),
    "report": (load_report_json, '{\n "items": [],\n'),
    "items": (lambda path: cli._read_items_file(path, ","), "item_id,label\nq1,A\n"),
    "config": (cli._load_config_file, "# settings\nmethod = exact\n"),
}


@pytest.mark.parametrize("kind", sorted(_READERS))
def test_undecodable_input_is_named_error(tmp_path, kind):
    # the bad byte's line is named with LF, CRLF and CR-only line ends alike
    reader, head = _READERS[kind]
    path = tmp_path / "input.txt"
    for eol in ("\n", "\r\n", "\r"):
        path.write_bytes(head.replace("\n", eol).encode() + b"b,\xff\xfe,1" + eol.encode())
        with pytest.raises(InputError) as exc:
            reader(path)
        assert str(exc.value) == f"{path}: line 3: not UTF-8 text", repr(eol)


@pytest.mark.parametrize("kind", ["dyad", "node", "table64"])
def test_oversized_field_is_named_error(tmp_path, kind):
    reader, head = _READERS[kind]
    path = write(tmp_path, "input.csv", head + "b," + "w" * 200_000 + ",1\n")
    with pytest.raises(InputError) as exc:
        reader(path)
    assert str(exc.value) == f"{path}: line 3: field larger than field limit (131072)"


@pytest.mark.parametrize("delimiter", [";;", "", None])
def test_delimiter_must_be_one_character(tmp_path, delimiter):
    # every reader and builder names a bad delimiter as an input error
    dyads = write(tmp_path, "d.csv", DYAD_HEADER + "\nu,v,1,0,1,1,0,1,q1\n")
    nodes = write(tmp_path, "n.csv", "node_id,participation,q1_before,q1_after\na,1,1,0\n")
    edges = write(tmp_path, "e.txt", "a,b\n")
    table = long_table_csv(tmp_path, "t.csv", range(64))
    readers = [(parse_dyad_csv, dyads), (io._tally_dyad_csv, dyads), (dyad_csv_items, dyads),
               (parse_node_csv, nodes), (read_edge_list, edges), (parse_table64, table),
               (node_edge_items, nodes, edges)]
    for reader, *paths in readers:
        with pytest.raises(InputError, match="delimiter must be one character"):
            reader(*paths, delimiter=delimiter)


def _report_text(tmp_path):
    """A JSON report, as ``emit_report`` writes it, of one tested item and
    one error item."""
    table = DyadTable(np.arange(64, dtype=np.int64) % 5 + 1)
    reports = evaluate_items([("q1", "A", table, 2)], InferenceConfig(method="exact"))
    path = tmp_path / "r.json"
    emit_report(reports + [ItemReport("q2", "B", (), 0, 0, error="no dyads")], "json", path)
    return path.read_text()


def _node_survey(path):
    survey, found = parse_node_csv(path)
    return (survey.index, survey.participation.tolist(),
            {item: bits.tolist() for item, bits in survey.bits.items()}, found)


_BOM_READERS = {
    "dyad": (parse_dyad_csv, DYAD_HEADER + "\nu,v,1,0,1,1,0,1,q1\nw,z,0,0,NA,1,0,1,q2\n"),
    "dyad_items": (lambda path: streamed_tables(path, None),
                   DYAD_HEADER + "\nu,v,1,0,1,1,0,1,q1\nw,z,0,0,NA,1,0,1,q2\n"),
    "node": (_node_survey, "node_id,participation,q1_before,q1_after\na,1,1,0\nb,0,NA,1\n"),
    "edge": (read_edge_list, "a,b\nb,a\n"),
    "table64": (lambda path: parse_table64(path).counts.tolist(),
                lambda tmp_path: long_table_csv(tmp_path, "t.csv", range(64)).read_text()),
    "items": (lambda path: cli._read_items_file(path, ","), "item_id,label\nq1,A\nq2,B\n"),
    "config": (cli._load_config_file, "method = exact\nseed = 11\n"),
    "report": (load_report_json, _report_text),
}


@pytest.mark.parametrize("kind", sorted(_BOM_READERS))
def test_byte_order_mark_is_skipped(tmp_path, kind):
    # a UTF-8 byte-order mark, as spreadsheet programs write one, changes
    # no reader's result
    reader, text = _BOM_READERS[kind]
    if callable(text):
        text = text(tmp_path)
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert reader(marked) == reader(plain)


def test_byte_order_mark_keeps_every_edge_and_the_byte_path(tmp_path, monkeypatch):
    nodes = write(tmp_path, "n.csv", "node_id,participation,q1_before,q1_after\n"
                                     "a,1,1,0\nb,0,0,1\n")
    edges = tmp_path / "e.txt"
    edges.write_text("a,b\nb,a\n", encoding="utf-8-sig")
    [(item, table, dropped)] = node_edge_items(nodes, edges)
    assert (item, table.total, dropped) == ("q1", 2, 0)
    # a marked CRLF dyad CSV is tallied on the byte path, as the plain file is
    lines = [DYAD_HEADER] + [f"e{i},a{i},{i & 1},0,1,{i >> 1 & 1},0,1,q{i % 3}"
                             for i in range(500)]
    plain = write(tmp_path, "d.csv", "\n".join(lines) + "\n")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
    expected = tally_outcome(plain)
    handed = record_csv_blocks(monkeypatch)
    assert tally_outcome(marked) == expected and not handed


# -------------------------------------------------- node CSV + edges

NODE_HEADER = "node_id,participation,q1_before,q1_after,q2_before,q2_after"


def test_node_csv_parses_items(tmp_path):
    path = write(tmp_path, "n.csv",
                 NODE_HEADER + "\na,1,0,1,1,1\nb,0,1,0,NA,1\n")
    survey, items = parse_node_csv(path)
    assert items == ["q1", "q2"]
    a, b = survey.index["a"], survey.index["b"]
    assert survey.participation[a] == 1
    assert survey.bits["q1"][a].tolist() == [0, 1]
    assert survey.bits["q2"][b].tolist() == [-1, -1]
    # one trailing row stands for an unknown id: missing everywhere
    assert survey.participation.tolist() == [1, 0, -1]
    assert survey.bits["q1"][-1].tolist() == [-1, -1]


def test_node_csv_rows_numbered_by_first_line(tmp_path):
    # rows on lines 2-3 and 4-5: the bad one is on line 4, neither 3 nor 5
    path = write(tmp_path, "n.csv", 'node_id,participation\n"a\nb",1\n"c\nd",2\n')
    with pytest.raises(InputError) as exc:
        parse_node_csv(path)
    assert str(exc.value) == f"{path}: line 4: column 'participation' must be 0 or 1, got '2'"


def test_node_csv_repeated_id_is_error(tmp_path):
    path = write(tmp_path, "n.csv", NODE_HEADER + "\na,1,0,1,1,1\nb,0,1,0,NA,1\n"
                 " a ,0,0,0,0,0\n")
    with pytest.raises(InputError) as exc:
        parse_node_csv(path)
    assert str(exc.value) == f"{path}: line 4: node_id 'a' repeats line 2"


def test_node_csv_unknown_item_requested(tmp_path):
    path = write(tmp_path, "n.csv", NODE_HEADER + "\na,1,0,1,1,1\n")
    with pytest.raises(InputError, match="q9"):
        parse_node_csv(path, items=["q9"])


def test_edge_list(tmp_path):
    path = write(tmp_path, "e.txt", "# comment\na,b\n\nb,c\n")
    assert read_edge_list(path) == [("a", "b"), ("b", "c")]


def test_edge_list_bad_columns(tmp_path):
    path = write(tmp_path, "e.txt", "a,b,c\n")
    with pytest.raises(InputError, match="line 1"):
        read_edge_list(path)


def node_header(items):
    return ",".join(["node_id", "participation"]
                    + [f"{q}_{when}" for q in items for when in ("before", "after")])


def node_survey(tmp_path, rows, items=("q1",)):
    """The ``NodeSurvey`` read from a node CSV holding ``rows`` (NodeRows)."""
    def token(value):
        return "NA" if value is None else str(value)

    lines = [node_header(items)]
    for row in rows:
        bits = [row.item_bits.get(q) or (None, None) for q in items]
        lines.append(",".join([row.node_id, token(row.participation)]
                              + [token(bit) for pair in bits for bit in pair]))
    survey, _ = parse_node_csv(write(tmp_path, "nodes.csv", "\n".join(lines) + "\n"))
    return survey


def make_nodes(tmp_path):
    return node_survey(tmp_path, [
        NodeRow("a", 1, {"q1": (1, 0)}),
        NodeRow("b", 0, {"q1": (1, 1)}),
    ])


def test_join_directed_vs_symmetrized(tmp_path):
    nodes = make_nodes(tmp_path)
    records, stats = join_node_edges(nodes, [("a", "b")], "q1")
    assert len(records) == 1 and stats.used == 1 and stats.dropped == 0
    rec = records[0]
    assert (rec.x, rec.y, rec.p, rec.q, rec.r, rec.s) == (1, 0, 1, 1, 0, 1)
    both, stats = join_node_edges(nodes, [("a", "b")], "q1", orientation="symmetrize")
    assert len(both) == 2
    assert (both[1].x, both[1].y) == (0, 1)


def test_join_unknown_node_dropped(tmp_path):
    records, stats = join_node_edges(make_nodes(tmp_path), [("a", "zz")], "q1")
    assert records == []
    assert stats.dropped_unknown_node == 1


def test_join_missing_bits_dropped(tmp_path):
    nodes = node_survey(tmp_path, [NodeRow("a", 1, {"q1": None}),
                                   NodeRow("b", 0, {"q1": (1, 1)})])
    records, stats = join_node_edges(nodes, [("a", "b")], "q1")
    assert records == []
    assert stats.dropped_missing_bits == 1


def test_join_self_edge_counted(tmp_path):
    records, stats = join_node_edges(make_nodes(tmp_path), [("a", "a")], "q1")
    assert records == []
    assert stats.dropped_self_edge == 1


def test_join_ten_node_fixture_matches_manual(tmp_path):
    rng = np.random.default_rng(13)
    rows = [NodeRow(f"n{i}", int(rng.integers(2)),
                    {"q": (int(rng.integers(2)), int(rng.integers(2)))})
            for i in range(10)]
    edges = [(f"n{i}", f"n{(i + 3) % 10}") for i in range(10)]
    records, stats = join_node_edges(node_survey(tmp_path, rows, items=("q",)), edges, "q")
    assert stats.used == 10
    by_id = {n.node_id: n for n in rows}
    for rec, (a, b) in zip(records, edges):
        assert rec.ego_id == a and rec.alter_id == b
        assert rec.x == by_id[a].participation
        assert rec.y == by_id[b].participation
        assert (rec.p, rec.r) == by_id[a].item_bits["q"]
        assert (rec.q, rec.s) == by_id[b].item_bits["q"]


def _random_survey(rng):
    """A node CSV's text and the oracle's NodeRows for it: up to 12 nodes
    over up to 3 items, each participation, before and after cell missing
    (NA or empty) with probability 0.15 on its own."""
    items = [f"q{i}" for i in range(int(rng.integers(4)))]
    lines = [node_header(items)]
    rows = []
    for i in range(int(rng.integers(13))):
        tokens = [str(int(rng.integers(2))) if rng.random() > 0.15
                  else str(rng.choice(["NA", ""])) for _ in range(1 + 2 * len(items))]
        values = [None if token in ("", "NA") else int(token) for token in tokens]
        pairs = zip(values[1::2], values[2::2])
        bits = {item: None if None in pair else pair for item, pair in zip(items, pairs)}
        rows.append(NodeRow(f"n{i}", values[0], bits))
        lines.append(",".join([f"n{i}"] + tokens))
    return "\n".join(lines) + "\n", rows, items


def _random_edges(rng, rows):
    """Up to 30 edges: ends drawn from the survey's ids and 3 unknown ones,
    a fifth of them self edges, and some edges listed again."""
    pool = [row.node_id for row in rows] + ["u0", "u1", "u2"]
    edges = []
    for _ in range(int(rng.integers(31))):
        a = str(rng.choice(pool))
        b = a if rng.random() < 0.2 else str(rng.choice(pool))
        edges.append((a, b))
    for _ in range(int(rng.integers(4)) if edges else 0):
        edges.append(edges[int(rng.integers(len(edges)))])
    return edges


def test_join_matches_record_oracle(tmp_path):
    """300 random surveys: the codes, tables and counters of the columnar
    join equal those of the record-by-record reference, for every item the
    survey has and one it lacks, in both orientations."""
    rng = np.random.default_rng(2024)
    for case in range(300):
        text, rows, items = _random_survey(rng)
        survey, found = parse_node_csv(write(tmp_path, f"n{case}.csv", text))
        assert found == items
        edges = _random_edges(rng, rows)
        orientation = ("directed", "symmetrize")[case % 2]
        dyads = io._resolve_edges(survey, edges, orientation)
        for item in items + ["zz"]:
            expected, expected_stats = join_node_edges_by_rows(rows, edges, item, orientation)
            codes, stats = io._join_codes(survey, dyads, item)
            assert stats == expected_stats, (case, item)
            kept = codes[codes >= 0]
            assert kept.tolist() == [record_code(rec) for rec in expected], (case, item)
            assert np.array_equal(census.tally(kept).counts,
                                  build_table(expected, item=item).counts)
            assert join_node_edges(survey, edges, item, orientation) == (expected, stats)


def test_ingestion_lossless(tmp_path):
    # record count = census total + reported drops
    lines = [DYAD_HEADER]
    rng = np.random.default_rng(21)
    for i in range(50):
        bits = rng.integers(0, 2, size=6)
        cells = [str(b) for b in bits]
        if i % 7 == 0:
            cells[2] = ""
        lines.append(f"e{i},a{i}," + ",".join(cells) + ",q1")
    path = write(tmp_path, "d.csv", "\n".join(lines) + "\n")
    records, drops = parse_dyad_csv(path)
    assert len(records) + len(drops) == 50


# ------------------------------------------------------- table64

def test_table64_long_form(tmp_path):
    lines = ["x,y,p,q,r,s,value"]
    for code in range(64):
        bits = [(code >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0)]
        lines.append(",".join(map(str, bits)) + ("," + ("7" if code == 9 else "0")))
    table = parse_table64(write(tmp_path, "t.csv", "\n".join(lines) + "\n"))
    assert table.total == 7
    assert table.counts[9] == 7


def test_table64_all_zero(tmp_path):
    lines = ["x,y,p,q,r,s,value"]
    for code in range(64):
        bits = [(code >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0)]
        lines.append(",".join(map(str, bits)) + ",0")
    table = parse_table64(write(tmp_path, "t.csv", "\n".join(lines) + "\n"))
    assert table.total == 0


def test_table64_grid_form(tmp_path):
    lines = ["x,y,p,q,rs00,rs01,rs10,rs11"]
    for group in range(16):
        bits = [(group >> shift) & 1 for shift in (3, 2, 1, 0)]
        lines.append(",".join(map(str, bits)) + ",1,2,3,4")
    table = parse_table64(write(tmp_path, "t.csv", "\n".join(lines) + "\n"))
    assert table.total == 16 * 10
    assert table.counts.reshape(16, 4).tolist() == [[1, 2, 3, 4]] * 16


def test_table64_uniform_probability_grid(tmp_path):
    lines = ["x,y,p,q,rs00,rs01,rs10,rs11"]
    for group in range(16):
        bits = [(group >> shift) & 1 for shift in (3, 2, 1, 0)]
        lines.append(",".join(map(str, bits)) + ",0.25,0.25,0.25,0.25")
    table = parse_table64(write(tmp_path, "t.csv", "\n".join(lines) + "\n"),
                          probabilities=True, scale=100)
    assert table.total == 1600


def test_table64_wrong_cell_count(tmp_path):
    lines = ["x,y,p,q,r,s,value", "0,0,0,0,0,0,1"]
    with pytest.raises(InputError, match="of 64 cells"):
        parse_table64(write(tmp_path, "t.csv", "\n".join(lines) + "\n"))


def test_table64_negative_count(tmp_path):
    lines = ["x,y,p,q,rs00,rs01,rs10,rs11"]
    for group in range(16):
        bits = [(group >> shift) & 1 for shift in (3, 2, 1, 0)]
        lines.append(",".join(map(str, bits)) + ",1,1,1," + ("-1" if group == 0 else "1"))
    with pytest.raises(InputError, match="non-negative"):
        parse_table64(write(tmp_path, "t.csv", "\n".join(lines) + "\n"))


def test_table64_rows_numbered_by_first_line(tmp_path):
    path = write(tmp_path, "t.csv",
                 'x,y,p,q,r,s,value\n"0\n",0,0,0,0,0,1\n"0\n",0,0,0,0,1,z\n')
    with pytest.raises(InputError) as exc:
        parse_table64(path)
    assert str(exc.value) == f"{path}: line 4: column 'value' is not a number: 'z'"


def test_table64_duplicate_cell(tmp_path):
    lines = ["x,y,p,q,r,s,value", "0,0,0,0,0,0,1", "0,0,0,0,0,0,2"]
    with pytest.raises(InputError, match="duplicate"):
        parse_table64(write(tmp_path, "t.csv", "\n".join(lines) + "\n"))


def test_table64_bad_probability_rows(tmp_path):
    lines = ["x,y,p,q,rs00,rs01,rs10,rs11"]
    for group in range(16):
        bits = [(group >> shift) & 1 for shift in (3, 2, 1, 0)]
        lines.append(",".join(map(str, bits)) + ",0.5,0.25,0.25,0.25")
    with pytest.raises(InputError, match="sum to 1"):
        parse_table64(write(tmp_path, "t.csv", "\n".join(lines) + "\n"),
                      probabilities=True, scale=100)


# -------------------------------------------------- evaluate_items

def frozen_dyad_csv(tmp_path, items=("q1",)):
    lines = [DYAD_HEADER]
    for item in items:
        for i, (p, q) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            for x in (0, 1):
                lines.append(f"e{item}{i}{x},a{item}{i}{x},{x},0,{p},{q},{p},{q},{item}")
    return write(tmp_path, "d.csv", "\n".join(lines) + "\n")


def labelled(built, labels=None):
    """A builder's (item, census, dropped) as ``evaluate_items`` input."""
    labels = labels or {}
    return [(item, labels.get(item, item), table, dropped) for item, table, dropped in built]


def evaluate_dyad_csv(path, items=None, invert=False, **config):
    """``evaluate_items`` over a dyad CSV, labelled by ``items`` (id -> label)."""
    built = labelled(dyad_csv_items(path, None if items is None else list(items)), items)
    if invert:
        built = [(i, label, t.invert_behavior(), d) for i, label, t, d in built]
    return evaluate_items(built, InferenceConfig(**config))


def test_evaluate_items_trivial_table(tmp_path):
    # nothing transitions, so every null is degenerate and every p is 1
    path = frozen_dyad_csv(tmp_path)
    reports = evaluate_dyad_csv(path, method="both", trials=50, seed=1)
    assert len(reports) == 1
    report = reports[0]
    assert report.item_id == "q1"
    assert report.dyads_used == 8 and report.dyads_dropped == 0
    assert len(report.results) == 16
    assert all(res.p_value == 1.0 for res in report.results)


def test_evaluate_items_isolates_failures(tmp_path):
    path = frozen_dyad_csv(tmp_path, items=("q1",))
    reports = evaluate_dyad_csv(path, {"q1": "label one", "q9": "absent item"},
                                method="exact", seed=0)
    assert len(reports) == 2
    assert [r.item_label for r in reports] == ["label one", "absent item"]
    assert reports[0].error is None
    assert reports[1].error is not None  # empty census -> unfittable null
    assert reports[1].results == ()


def test_evaluate_items_deterministic(tmp_path):
    path = frozen_dyad_csv(tmp_path)
    config = dict(method="both", trials=200, seed=9)
    assert evaluate_dyad_csv(path, **config) == evaluate_dyad_csv(path, **config)


def test_evaluate_items_seed_sequence_equals_its_int(tmp_path):
    # items 0 and 1 draw from children 0 and 1 of the seed, whether it is
    # given as an int or as a SeedSequence, which is left as it was
    items = [(f"q{i}", f"q{i}", simulate_dyad_table(SimParams(seed=i), node_count=60), 0)
             for i in (1, 2)]
    texts = {}
    seed = np.random.SeedSequence(7)
    for name, given in (("int", 7), ("sequence", seed), ("again", seed), ("other", 8)):
        reports = evaluate_items(items, InferenceConfig(method="bootstrap", trials=300, seed=given))
        emit_report(reports, "csv", tmp_path / f"{name}.csv", seed=7)
        texts[name] = (tmp_path / f"{name}.csv").read_bytes()
    assert texts["sequence"] == texts["int"] == texts["again"] != texts["other"]
    assert seed.n_children_spawned == 0


def test_evaluate_items_generator_seed_is_input_error(tmp_path):
    path = frozen_dyad_csv(tmp_path)
    with pytest.raises(InputError, match="Generator seed cannot be split across items"):
        evaluate_dyad_csv(path, method="bootstrap", trials=10, seed=np.random.default_rng(7))


def _worker_pid(task):
    return os.getpid()


def test_run_tasks_in_forked_workers(monkeypatch):
    monkeypatch.setattr(io, "_worker_count", lambda: 2)
    pids = io._run_tasks(_worker_pid, [None] * 4)
    assert len(pids) == 4 and os.getpid() not in pids
    assert io._run_tasks(_worker_pid, [None]) == [os.getpid()]  # a single task runs inline
    monkeypatch.setattr(io, "_worker_count", lambda: 1)
    assert io._run_tasks(_worker_pid, [None] * 3) == [os.getpid()] * 3


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _act(task):
    """A task for ``_run_tasks``: raise, leave, sleep or name its process."""
    kind, arg = task
    if kind == "raise":
        raise arg
    if kind == "exit":
        os._exit(arg)
    if kind == "sleep":
        time.sleep(arg)
    return arg, os.getpid()


def test_run_tasks_keeps_task_order_over_children(monkeypatch):
    # 7 tasks over 3 children: task i runs in child i mod 3
    monkeypatch.setattr(io, "_worker_count", lambda: 3)
    outcomes = io._run_tasks(_act, [("name", i) for i in range(7)])
    assert [i for i, _ in outcomes] == list(range(7))
    pids = [pid for _, pid in outcomes]
    assert len(set(pids)) == 3 and os.getpid() not in pids
    assert all(pids[i] == pids[i % 3] for i in range(7))
    assert_no_child_left()


@pytest.mark.parametrize("error", [InputError("q3: no dyads"),
                                   NumericalIntegrityError("pmf sums to 1.1")])
def test_run_tasks_reraises_a_child_error(monkeypatch, error):
    monkeypatch.setattr(io, "_worker_count", lambda: 2)
    with pytest.raises(type(error)) as raised:
        io._run_tasks(_act, [("name", 0), ("name", 1), ("raise", error), ("name", 3)])
    assert type(raised.value) is type(error) and str(raised.value) == str(error)
    assert_no_child_left()


def test_run_tasks_raises_when_a_child_dies(monkeypatch):
    monkeypatch.setattr(io, "_worker_count", lambda: 2)
    with pytest.raises(RuntimeError, match="ended without sending its results"):
        io._run_tasks(_act, [("name", 0), ("exit", 3), ("name", 2), ("name", 3)])
    assert_no_child_left()


def test_run_tasks_stops_at_the_first_error(monkeypatch):
    # share 0 raises at once; share 1 would sleep 30 s, and is killed
    monkeypatch.setattr(io, "_worker_count", lambda: 2)
    start = time.monotonic()
    with pytest.raises(InputError, match="at once"):
        io._run_tasks(_act, [("raise", InputError("at once")), ("sleep", 30)])
    assert time.monotonic() - start < 5
    assert_no_child_left()


def long_table_csv(tmp_path, name, counts):
    lines = ["x,y,p,q,r,s,value"]
    lines += [",".join(str(code >> shift & 1) for shift in range(5, -1, -1)) + f",{value}"
              for code, value in enumerate(counts)]
    return write(tmp_path, name, "\n".join(lines) + "\n")


def test_one_run_plan_agrees_bit_for_bit(tmp_path, monkeypatch):
    # bootstrap_test, exact_test, run_all, run_items and a one-item
    # evaluate_items share one run plan: built-in measures, a custom spec and
    # an explicit model, at one, two and three workers, with chunks of 257 trials so
    # that every bootstrap spreads over several tasks
    monkeypatch.setattr("dyadeval.inference._CHUNK_TRIALS", 257)
    spec = MeasureSpec({(1, 1, p, q, 1, s) for p in (0, 1) for q in (0, 1) for s in (0, 1)},
                       {(0, 0, p, q, r, 1) for p in (0, 1) for q in (0, 1) for r in (0, 1)})
    rng = np.random.default_rng(2718)
    for case in range(3):
        counts = rng.integers(0, int(rng.integers(2, 40)), size=64)
        table = DyadTable(counts)
        path = long_table_csv(tmp_path, f"t{case}.csv", counts)
        seed, trials, two_sided = int(rng.integers(1000)), int(rng.integers(300, 2000)), case == 1
        child = np.random.SeedSequence(seed).spawn(1)[0]
        expected = run_all(table, InferenceConfig(trials=trials, seed=child, two_sided=two_sided))
        assert expected == [r for m in MeasureId for r in (
            bootstrap_test(table, m, trials, child, two_sided=two_sided),
            exact_test(table, m, two_sided=two_sided))]
        fitted = fit(table)
        custom = InferenceConfig(trials=trials, seed=child, two_sided=two_sided,
                                 measures=(spec, MeasureId.M3))
        alone = [r for m in custom.measures for r in (
            bootstrap_test(table, m, trials, child, two_sided=two_sided, model=fitted),
            exact_test(table, m, two_sided=two_sided, model=fitted))]
        assert [r.measure for r in alone] == [None, None, MeasureId.M3, MeasureId.M3]
        for workers in (1, 2, 3):
            monkeypatch.setattr(io, "_worker_count", lambda: workers)
            [report] = evaluate_items(
                [("t", "t", parse_table64(path), 0)],
                InferenceConfig(trials=trials, seed=seed, two_sided=two_sided))
            assert list(report.results) == expected
            assert run_items([(table, custom, fitted)], workers, io._run_tasks) == [alone]


def test_one_run_plan_agrees_bit_for_bit_at_every_scale(monkeypatch):
    # paper-scale (~2.4k dyads), survey-scale (5k) and 200k-dyad censuses,
    # all eight tails of each in one batch of tilted windows: exact_test
    # measure by measure, run_all and run_items inline and over two and three
    # forked children give bit-identical p-values, so a tail does not depend
    # on which measures or items share its batch
    rng = np.random.default_rng(31)
    tables = ([simulate_dyad_table(SimParams(seed=seed)) for seed in range(3)]
              + [DyadTable(rng.multinomial(dyads, np.full(64, 1 / 64)))
                 for dyads in (5_000, 5_000, 200_000, 200_000)])
    config = InferenceConfig(method="exact")
    expected = [run_all(table, config) for table in tables]
    assert any(0.0 < r.p_value < 0.5 for r in expected[-1])
    for table, results in zip(tables, expected):
        assert results == [exact_test(table, m) for m in MeasureId]
        pair = InferenceConfig(method="exact", measures=(MeasureId.M8, MeasureId.M2))
        assert run_all(table, pair) == [results[7], results[1]]
    for workers in (1, 2, 3):
        monkeypatch.setattr(io, "_worker_count", lambda: workers)
        assert run_items([(table, config, None) for table in tables],
                         workers, io._run_tasks) == expected


def test_exact_work_goes_out_in_one_batch_per_worker(monkeypatch):
    # 40 survey-sized items (5k dyads) at 2 workers: at most 2 exact tasks,
    # balanced by summed window width; with the window bound lowered to the
    # widest side of any item, more tasks than workers, none over one item's
    # budget; the same results either way
    rng = np.random.default_rng(26)
    config = InferenceConfig(method="exact")
    work = [(DyadTable(rng.multinomial(5_000, np.full(64, 1 / 64))), config, None)
            for _ in range(40)]
    expected = run_items(work)
    observed = [inference._plan(table, config, None).observed.tolist() for table, *_ in work]
    width = lambda batch: sum(float(plan.windows.sum()) for plan in batch)

    def batches_of(workers):
        tasks = []

        def recorded(fn, run):
            tasks.extend(run)
            return map(fn, run)

        assert run_items(work, workers, recorded) == expected
        # each item once, in order
        assert [plan.observed.tolist() for batch in tasks for plan in batch] == observed
        return tasks

    batches = batches_of(2)
    assert len(batches) == 2
    widest = max(width([plan]) for batch in batches for plan in batch)
    assert max(map(width, batches)) <= width(sum(batches, [])) / 2 + widest
    monkeypatch.setattr(inference, "_MAX_SIDE_WINDOW", math.ceil(max(
        float(plan.windows.max()) for batch in batches for plan in batch)))
    budget = 2 * len(MeasureId) * inference._MAX_SIDE_WINDOW
    batches = batches_of(2)
    assert len(batches) > 2
    assert all(width(batch) <= budget for batch in batches)


def test_each_item_fitted_once_and_each_null_mean_taken_once(tmp_path, monkeypatch):
    # an item's null means are taken together, in one call
    calls = {"fit": 0, "_null_means": 0}
    for name in calls:
        def counted(*args, _original=getattr(inference, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(inference, name, counted)
    monkeypatch.setattr(io, "_worker_count", lambda: 1)  # tasks inline, so counted too
    reports = evaluate_dyad_csv(frozen_dyad_csv(tmp_path, items=("q1", "q2", "q3")),
                                method="both", trials=300)
    assert all(r.error is None for r in reports)
    assert calls == {"fit": 3, "_null_means": 3}


def test_evaluate_items_table64_mode(tmp_path):
    lines = ["x,y,p,q,rs00,rs01,rs10,rs11"]
    for group in range(16):
        bits = [(group >> shift) & 1 for shift in (3, 2, 1, 0)]
        lines.append(",".join(map(str, bits)) + ",0.25,0.25,0.25,0.25")
    path = write(tmp_path, "t.csv", "\n".join(lines) + "\n")
    table = parse_table64(path, probabilities=True, scale=100)
    reports = evaluate_items([("table", "table", table, 0)],
                             InferenceConfig(method="exact", seed=0))
    assert reports[0].dyads_used == 1600
    assert len(reports[0].results) == 8


def test_evaluate_items_invert_behavior(tmp_path):
    lines = [DYAD_HEADER, "u,v,1,0,1,1,0,1,q1", "w,z,0,0,0,0,1,1,q1"]
    path = write(tmp_path, "d.csv", "\n".join(lines) + "\n")
    plain = evaluate_dyad_csv(path, method="exact")
    flipped = evaluate_dyad_csv(path, invert=True, method="exact")
    # inversion swaps which measures see the two dyads
    obs_plain = [r.observed for r in plain[0].results]
    obs_flip = [r.observed for r in flipped[0].results]
    assert obs_plain != obs_flip


# ------------------------------------------------------ reports

def test_emit_csv_row_count(tmp_path):
    path = frozen_dyad_csv(tmp_path, items=("q1", "q2"))
    reports = evaluate_dyad_csv(path, method="both", trials=50, seed=4)
    out = tmp_path / "results.csv"
    emit_report(reports, "csv", out, seed=4)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 8 * 2  # header + items * measures * methods
    assert lines[0].startswith("item_id,item_label,measure")


def test_emit_single_method_rows(tmp_path):
    path = frozen_dyad_csv(tmp_path)
    reports = evaluate_dyad_csv(path, method="exact", seed=4)
    out = tmp_path / "results.csv"
    emit_report(reports, "csv", out)
    assert len(out.read_text().strip().splitlines()) == 1 + 8


def test_json_round_trip(tmp_path):
    path = frozen_dyad_csv(tmp_path)
    reports = evaluate_dyad_csv(path, method="both", trials=75, seed=2)
    out = tmp_path / "results.json"
    emit_report(reports, "json", out, seed=2)
    assert load_report_json(out) == reports


def test_json_round_trip_two_sided_and_error_items(tmp_path):
    # seeded batches of two-sided results from both engines and error items,
    # with ids, labels and messages drawn from an awkward alphabet
    rng = np.random.default_rng(646)
    alphabet = list("ab,;\"' \\\n\t\u00e4\u20ac\U0001f600:{}[]")

    def text():
        return "".join(rng.choice(alphabet, size=int(rng.integers(1, 12))))

    for batch in range(30):
        reports = []
        for _ in range(int(rng.integers(1, 5))):
            if rng.random() < 0.4:
                reports.append(ItemReport(text(), text(), (), 0, 0, error=text()))
                continue
            table = DyadTable(rng.integers(1, 8, size=64))
            config = InferenceConfig(method=str(rng.choice(["bootstrap", "exact", "both"])),
                                     trials=int(rng.integers(1, 300)),
                                     alpha=float(rng.uniform(0.001, 0.2)),
                                     seed=int(rng.integers(1000)), two_sided=True)
            reports.append(ItemReport(text(), text(), tuple(run_all(table, config)),
                                      dyads_used=table.total,
                                      dyads_dropped=int(rng.integers(0, 50))))
        path = tmp_path / f"r{batch}.json"
        emit_report(reports, "json", path, seed=int(rng.integers(1000)))
        assert load_report_json(path) == reports


def test_emit_rejects_empty():
    with pytest.raises(InputError):
        emit_report([], "csv", "/tmp/unused.csv")


def test_evaluate_items_node_edges_mode(tmp_path):
    nodes = write(tmp_path, "n.csv",
                  "node_id,participation,q1_before,q1_after\n"
                  "a,1,1,1\nb,0,1,1\nc,1,0,0\nd,0,0,0\n")
    edges = write(tmp_path, "e.txt", "a,b\nb,c\nc,d\nd,a\na,zz\n")
    reports = evaluate_items(labelled(node_edge_items(nodes, edges)),
                             InferenceConfig(method="exact", seed=0))
    assert len(reports) == 1
    report = reports[0]
    assert report.item_id == "q1"
    assert report.dyads_used == 4
    assert report.dyads_dropped == 1  # the edge naming unknown node zz
    assert len(report.results) == 8


def test_evaluate_items_node_edges_symmetrize(tmp_path):
    nodes = write(tmp_path, "n.csv",
                  "node_id,participation,q1_before,q1_after\na,1,1,0\nb,0,1,1\n")
    edges = write(tmp_path, "e.txt", "a,b\n")
    config = InferenceConfig(method="exact", seed=0)
    directed = evaluate_items(labelled(node_edge_items(nodes, edges)), config)
    both = evaluate_items(labelled(node_edge_items(nodes, edges, orientation="symmetrize")),
                          config)
    assert directed[0].dyads_used == 1
    assert both[0].dyads_used == 2


def test_evaluate_items_39_item_batch(tmp_path):
    items = [f"q{i}" for i in range(1, 40)]
    lines = [DYAD_HEADER]
    rng = np.random.default_rng(33)
    for item in items:
        for j in range(12):
            bits = rng.integers(0, 2, size=6)
            lines.append(f"e{j},a{j}," + ",".join(map(str, bits)) + f",{item}")
    path = write(tmp_path, "batch.csv", "\n".join(lines) + "\n")
    reports = evaluate_dyad_csv(path, method="exact", seed=5)
    assert len(reports) == 39
    assert [r.item_id for r in reports] == sorted(items)
    assert all(r.error is None and len(r.results) == 8 for r in reports)


def test_emit_unwritable_destination(tmp_path):
    path = frozen_dyad_csv(tmp_path)
    reports = evaluate_dyad_csv(path, method="exact", seed=0)
    with pytest.raises(InputError, match="cannot write"):
        emit_report(reports, "csv", tmp_path / "missing_dir" / "out.csv")


def test_measure_labels_in_csv(tmp_path):
    path = frozen_dyad_csv(tmp_path)
    out = tmp_path / "r.csv"
    emit_report(evaluate_dyad_csv(path, method="exact", seed=0), "csv", out)
    text = out.read_text()
    assert "Direct Treatment Success in a Social Context" in text
    assert MeasureId.M7.value in text
