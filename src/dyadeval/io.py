"""File ingestion, batch evaluation across items, and report emission.

Input formats (all delimiter-configurable, default comma):

dyad CSV      header ego_id, alter_id, ego_part, alter_part, ego_b0,
              alter_b0, ego_b1, alter_b1, item_id; one observed dyad per
              row.  Empty/NA bits drop the row (counted); any other
              non-binary value is a hard error naming row and column.
              Repeated (ego, alter, item) rows are tallied as given, once
              per row: detecting them would need a key set as large as the
              file, and the file is streamed in blocks.  ``dyad_csv_items``
              tallies each run of plain lines (ASCII, LF or CRLF line ends,
              no quote, NUL or lone CR, not over-long) in numpy, and hands
              each run of other lines, with any short plain run between two,
              to a csv reader of its own, which reads on only to end a row
              left open; ``parse_dyad_csv`` reads the whole file through csv.
              Rows csv reads and rows numpy does not keep go through one
              row rule, ``_check_row``.

node CSV      header node_id, participation, then <item>_before and
              <item>_after column pairs; empty/NA cells mark that item
              missing for the node.  A node id may appear on one row only.

edge list     two identifier columns; lines starting with '#' and blank
              lines are skipped.

64-cell table long form (header x,y,p,q,r,s,value; 64 rows) or grid form
              (header x,y,p,q,rs00,rs01,rs10,rs11; 16 rows, the rs columns
              being post-states (0,0),(0,1),(1,0),(1,1)).  In probability
              mode values are per-row probabilities converted to counts by
              round(prob * scale).

Missing data policy is listwise deletion per dyad per item, always with a
drop count in the report.  Every text file is read through one line
source, ``_byte_blocks`` and ``_block_lines``: bytes in blocks past a
byte-order mark, lines ended at LF, CR or CRLF as csv ends them, each
decoded as UTF-8.  An undecodable byte or a field over csv's size limit is
an InputError naming the file and line, raised when that line is reached,
so a bad row before it is reported first.  A row is numbered by the
physical line it starts on.

Every input reaches the census as 64-cell codes, with no object per dyad
but in the records views ``parse_dyad_csv`` and ``join_node_edges``.  Each
source has its own census builder: ``dyad_csv_items``, ``node_edge_items``
and ``parse_table64``.  ``evaluate_items`` takes the censuses, from any of
them, and hands them to ``inference.run_items``, which plans and splits
their runs; this module only supplies the map that runs the tasks in
forked children, one per CPU.
"""

from __future__ import annotations

import csv
import json
import os
import pickle
from codecs import BOM_UTF8
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import partial
from io import StringIO
from itertools import chain, count, repeat, starmap
from operator import eq, itemgetter
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from ._version import __version__
from .census import _MAX_COUNT, CELL_BITS, DyadRecord, DyadTable, cell_codes, tally
from .errors import InputError
from .inference import InferenceConfig, TestResult, run_items
from .measures import MeasureId
from .null_model import _seed_children
from .sim import probabilities_to_counts

__all__ = [
    "NodeSurvey",
    "JoinStats",
    "ItemReport",
    "parse_dyad_csv",
    "parse_node_csv",
    "read_edge_list",
    "join_node_edges",
    "parse_table64",
    "dyad_csv_items",
    "node_edge_items",
    "evaluate_items",
    "emit_report",
    "load_report_json",
]

_MISSING_TOKENS = {"", "na", "nan", "none", "null", "."}

_DYAD_COLUMNS = ("ego_id", "alter_id", "ego_part", "alter_part",
                 "ego_b0", "alter_b0", "ego_b1", "alter_b1", "item_id")

# Bytes read at once from a text file.
_BLOCK_BYTES = 1 << 18

# Longest id or item, in bytes, that the byte path compares and packs in
# numpy; a row with a longer one goes through the row rules.
_SPAN_BYTES = 64

# Bytes of an id word that are the id's, by the count it has left -> mask.
_WORD_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)

# Exact bit tokens of the six bit columns, in column order -> cell code.
_CELL_CODES = {tuple(map(str, bits)): code for code, bits in enumerate(CELL_BITS)}

# A dyad CSV's index of each of ``_DYAD_COLUMNS``, width, and bit-cell getter.
_Layout = tuple[list[int], int, itemgetter]


def _byte_blocks(path: Path) -> Iterator[tuple[int, bytes]]:
    """(number of its first line, block) over the bytes of ``path`` past a
    byte-order mark: each read of ``_BLOCK_BYTES`` is cut after its last
    line end (a LF, or a CR before another byte: lines end at LF, CR and
    CRLF, as csv ends them) and the rest carried, so no line is cut."""
    if not path.exists():
        raise InputError(f"no such file: {path}")
    try:
        handle = path.open("rb")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    with handle:
        if handle.read(len(BOM_UTF8)) != BOM_UTF8:
            handle.seek(0)
        line_no, carry = 1, []
        while chunk := handle.read(_BLOCK_BYTES):
            cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, -1)) + 1
            if cut:
                block = b"".join(carry + [chunk[:cut]])
                yield line_no, block
                line_no += _line_count(block)
                carry = []
            carry.append(chunk[cut:])
        if any(carry):
            yield line_no, b"".join(carry)


def _line_count(block: bytes) -> int:
    """Lines in ``block``, its last line ended or not."""
    lone_crs = block.count(b"\r") - block.count(b"\r\n") if b"\r" in block else 0
    return block.count(b"\n") + lone_crs + (not block.endswith((b"\n", b"\r")))


def _block_lines(path: Path, line_no: int, block: bytes) -> Iterator[str]:
    """The lines of ``block``, line ``line_no`` of ``path`` on, with their
    line ends, decoded as UTF-8; a block with an undecodable byte line by
    line, its bad line raising an InputError naming the path and line when
    it is reached, so that the lines before it are read first."""
    try:
        return iter(StringIO(block.decode(), newline=""))
    except UnicodeDecodeError:
        lines = block.splitlines(True)
        if len(lines) == 1:
            raise InputError(f"{path}: line {line_no}: not UTF-8 text") from None
        return chain.from_iterable(map(_block_lines, repeat(path), count(line_no), lines))


def _lines(path: Path) -> Iterator[str]:
    """The lines of ``path``, block by block, as ``_block_lines`` gives them."""
    return chain.from_iterable(starmap(partial(_block_lines, path), _byte_blocks(path)))


def _listed_lines(path, what: str = "file") -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of each line of ``path`` that is
    neither blank nor a # comment; a missing file is a "no such ``what``"."""
    if not Path(path).exists():
        raise InputError(f"no such {what}: {path}")
    return ((line_no, line) for line_no, line in enumerate(map(str.strip, _lines(Path(path))), 1)
            if line and line[0] != "#")


def _check_delimiter(delimiter) -> None:
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise InputError(f"delimiter must be one character, got {delimiter!r}")


@contextmanager
def _open_csv(path: Path, delimiter: str) -> Iterator[Iterator[list[str]]]:
    """A csv reader over the lines of ``path``; a csv error (such as a field
    over csv's size limit) is an InputError naming the path and line."""
    _check_delimiter(delimiter)
    reader = csv.reader(_lines(path), delimiter=delimiter)
    try:
        yield reader
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from None


def _lined(reader) -> Iterator[tuple[int, list[str]]]:
    """(the line it starts on, row) for each row of ``reader``: zip takes
    the line count before each row."""
    return zip(iter(lambda: reader.line_num + 1, None), reader)


def _numbered(reader) -> Iterator[tuple[int, list[str]]]:
    """(the line it starts on, row) for each row of ``reader`` that is not blank."""
    return ((line_no, row) for line_no, row in _lined(reader) if any(map(str.strip, row)))


def _is_missing(token: str) -> bool:
    return token.strip().lower() in _MISSING_TOKENS


def _parse_bit(token: str, line_no: int, column: str, path: Path) -> int:
    value = token.strip()
    if value == "0":
        return 0
    if value == "1":
        return 1
    raise InputError(f"{path}: line {line_no}: column {column!r} must be 0 or 1, "
                     f"got {token!r}")


class _ItemIndex(dict):
    """Raw item token -> index of its stripped item id in ``ids``.  Each
    distinct raw token is stripped once."""

    def __init__(self) -> None:
        super().__init__()
        self.ids: dict[str, int] = {}

    def __missing__(self, token: str) -> int:
        index = self[token] = self.ids.setdefault(token.strip(), len(self.ids))
        return index


def _check_row(row: list[str], line_no: int, path: Path, layout: _Layout,
               drops: list[tuple[int, str | None]]) -> int:
    """The dyad-CSV row rules, for one row: its cell code, or -1 for a blank
    row or a row dropped for a missing bit (appended to ``drops``).  A bad
    row raises InputError.  A row whose six bits are exact "0"/"1" tokens
    and whose stripped ids differ is kept through one dict lookup."""
    cols, width, bits = layout
    if len(row) >= width:
        code = _CELL_CODES.get(bits(row), -1)
        if code >= 0 and row[cols[0]].strip() != row[cols[1]].strip():
            return code
    if not any(map(str.strip, row)):
        return -1
    if len(row) < width:
        raise InputError(f"{path}: line {line_no}: expected "
                         f"{width} fields, got {len(row)}")
    bit_cells = bits(row)
    if any(_is_missing(v) for v in bit_cells):
        item = row[cols[8]].strip()
        drops.append((line_no, item if not _is_missing(item) else None))
        return -1
    code = CELL_BITS.index(tuple(_parse_bit(value, line_no, name, path)
                                 for name, value in zip(_DYAD_COLUMNS[2:8], bit_cells)))
    ego = row[cols[0]].strip()
    if ego == row[cols[1]].strip():
        raise InputError(f"{path}: line {line_no}: self-dyad not allowed: "
                         f"ego_id == alter_id == {ego!r}")
    return code


def _dyad_layout(header: list[str] | None, path: Path) -> _Layout:
    """The layout of a dyad CSV with header row ``header``."""
    if header is None:
        raise InputError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in header]
    missing_cols = [c for c in _DYAD_COLUMNS if c not in header]
    if missing_cols:
        raise InputError(f"{path}: header lacks columns {missing_cols}")
    cols = [header.index(name) for name in _DYAD_COLUMNS]
    return cols, len(header), itemgetter(*cols[2:8])


def _checked_rows(rows: Iterator[tuple[int, list[str]]], path: Path, layout: _Layout,
                  items: _ItemIndex
                  ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, str | None]]]:
    """(cell code, item index) of the kept rows of ``rows``, (line, row)
    pairs each run through ``_check_row`` in order, and their drops."""
    item_col = layout[0][8]
    codes: list[int] = []
    indices: list[int] = []
    drops: list[tuple[int, str | None]] = []
    for line_no, row in rows:
        code = _check_row(row, line_no, path, layout, drops)
        if code >= 0:
            codes.append(code)
            indices.append(items[row[item_col]])
    return np.array(codes, np.intp), np.array(indices, np.intp), drops


def parse_dyad_csv(path, delimiter: str = ",") -> tuple[list[DyadRecord], list[tuple[int, str | None]]]:
    """Read a dyad CSV.

    Returns (records, drops) where drops lists (line number, item id or
    None) for rows excluded because of missing bits.  Each row goes through
    csv and ``_check_row``, as on the csv path of ``dyad_csv_items``, so the
    row rules are the same; the result holds one record per kept row.
    """
    path = Path(path)
    records: list[DyadRecord] = []
    drops: list[tuple[int, str | None]] = []
    with _open_csv(path, delimiter) as reader:
        layout = _dyad_layout(next(reader, None), path)
        cols = layout[0]
        for line_no, row in _lined(reader):
            code = _check_row(row, line_no, path, layout, drops)
            if code >= 0:
                ego, alter, item = (row[c].strip() for c in (cols[0], cols[1], cols[8]))
                records.append(DyadRecord(ego, alter, *CELL_BITS[code], item_id=item))
    return records, drops


def _plain_lines(block: bytes, limit: int) -> tuple[np.ndarray, np.ndarray] | None:
    """``_lf_lines`` of ``block`` with CRLF made LF if csv reads each line
    of it as the line split at the delimiter: ASCII with no quote, NUL or
    lone CR, no line over ``limit`` (csv's field size limit); else None."""
    block = block.replace(b"\r\n", b"\n") if b"\r" in block else block
    if not block.isascii() or b'"' in block or b"\r" in block or b"\0" in block:
        return None
    buf, ends = _lf_lines(block)
    return None if np.diff(ends, prepend=-1).max() > limit + 1 else (buf, ends)


def _lf_lines(block: bytes) -> tuple[np.ndarray, np.ndarray]:
    """LF-ended ``block`` with a final newline, as bytes, and its newlines."""
    buf = np.frombuffer(block if block.endswith(b"\n") else block + b"\n", np.uint8)
    return buf, np.flatnonzero(buf == 10)


def _plain_rows(buf: np.ndarray, ends: np.ndarray, line_no: int, path: Path,
                delimiter: str, layout: _Layout, items: _ItemIndex
                ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, str | None]]]:
    """(cell code, item index) of the kept rows of a plain block, whose row
    i ends at newline ``ends[i]`` and starts on line ``line_no + i``, and
    the block's drops.

    A fast row has ``width`` fields and no byte below 0x21 but the
    delimiter; each of its bits is the byte 0 or 1, its ego and alter ids
    differ, and no id or item is over ``_SPAN_BYTES``.  Fast rows are
    tallied in numpy, each id as the same number of 64-bit words, ego and
    alter compared and items keyed (one ``np.unique``) by them.  Every other
    row is split at the delimiter, which is what csv makes of a plain line,
    and goes through ``_check_row`` in file order.
    """
    cols, width, _ = layout
    delim = ord(delimiter)
    starts = np.r_[0, ends[:-1] + 1]
    delims = np.flatnonzero(buf == delim)
    n_delims = np.diff(np.searchsorted(delims, ends), prepend=0)
    fast = n_delims == width - 1
    low = np.flatnonzero(buf < 0x21)
    fast[np.searchsorted(ends, low[(buf[low] != 10) & (buf[low] != delim)])] = False
    rows = np.flatnonzero(fast)
    bounds = np.empty((rows.size, width + 1), np.intp)  # field j is bounds[j]+1 .. bounds[j+1]
    bounds[:, 0] = starts[rows] - 1
    bounds[:, 1:-1] = delims[np.repeat(fast, n_delims)].reshape(-1, width - 1)
    bounds[:, -1] = ends[rows]
    bit_cols = np.array(cols[2:8])
    bits = buf[bounds[:, bit_cols] + 1] - 48  # uint8: a byte below "0" wraps above 1
    ok = ((bounds[:, bit_cols + 1] - bounds[:, bit_cols] == 2) & (bits <= 1)).all(axis=1)
    id_cols = np.array([cols[0], cols[1], cols[8]])  # ego, alter, item
    lo = bounds[:, id_cols] + 1
    size = bounds[:, id_cols + 1] - lo
    ok &= size.max(axis=1, initial=0) <= _SPAN_BYTES
    rows, code, lo, size = rows[ok], bits[ok] @ (1 << np.arange(5, -1, -1)), lo[ok], size[ok]
    # little-endian words read at any byte offset, each masked to the id's bytes
    words = 8 * np.arange(-(-int(np.max(size, initial=1)) // 8))
    padded = np.concatenate((buf, np.zeros(_SPAN_BYTES, np.uint8)))
    packed = (np.ndarray((padded.size - 7,), "<u8", padded, strides=(1,))[lo[..., None] + words]
              & _WORD_MASKS[np.clip(size[..., None] - words, 0, 8)])  # (row, field, word)
    differ = (packed[:, 0] != packed[:, 1]).any(axis=1)  # else a self-dyad, left to the row rules
    rows, code = rows[differ], code[differ]
    keys = packed[differ, 2]  # a plain block holds no NUL, so the zero padding is unambiguous
    tokens, item = np.unique(keys[:, 0] if words.size == 1 else keys.view(f"S{8 * words.size}"),
                             return_inverse=True)
    tokens = tokens.view(f"S{8 * words.size}").ravel().tolist()
    item = np.array([items[token.decode()] for token in tokens], np.intp)[item.ravel()]

    slow_code, slow_item, drops = _checked_rows(
        ((line_no + i, buf[starts[i]:ends[i]].tobytes().decode().split(delimiter))
         for i in np.delete(np.arange(ends.size), rows).tolist()), path, layout, items)
    return np.concatenate([code, slow_code]), np.concatenate([item, slow_item]), drops


def _runs(path: Path, limit: int, byte_path: bool
          ) -> Iterator[tuple[int, bytes, tuple[np.ndarray, np.ndarray] | None]]:
    """(first line, bytes, ``_lf_lines`` of them made LF if plain, else
    None) of each run of ``path``'s lines, in file order: a block whose lines
    are all plain (``_plain_lines``), else the maximal runs of a block's lines
    that are plain and that are not, a plain run between two that are not
    joining them if it has no more lines than the block has runs that are
    not.  A line is not plain if it holds a byte that is not ASCII, a quote,
    a NUL or a lone CR, or is over ``limit`` bytes long with its line end;
    no line is plain without ``byte_path``."""
    for line_no, block in _byte_blocks(path):
        plain = _plain_lines(block, limit) if byte_path else None
        if plain is not None or not byte_path:
            yield line_no, block, plain
            continue
        buf = np.frombuffer(block if block.endswith((b"\n", b"\r")) else block + b"\n", np.uint8)
        lone = (buf == 13) & (np.r_[buf[1:], 0] != 10)
        bounds = np.r_[-1, np.flatnonzero((buf == 10) | lone)]  # line k: bounds[k] + 1 .. bounds[k + 1]
        bad = (buf > 127) | (buf == 34) | (buf == 0) | lone  # not ASCII, a quote, a NUL, a lone CR
        odd = np.logical_or.reduceat(bad, bounds[:-1] + 1) | (np.diff(bounds) > limit + 1)
        firsts = np.flatnonzero(np.diff(odd, prepend=~odd[0]))  # the first line of each run
        sizes = np.diff(firsts, append=odd.size)
        # so csv takes short plain runs and a block makes at most ~sqrt(its lines) + 2 numpy passes
        odd |= np.repeat(~odd[firsts] & (firsts > 0) & (firsts + sizes < odd.size)
                         & (sizes <= odd[firsts].sum()), sizes)
        cuts = np.r_[np.flatnonzero(np.diff(odd, prepend=~odd[0])), odd.size].tolist()
        for first, stop in zip(cuts, cuts[1:]):
            run = block[bounds[first] + 1:bounds[stop] + 1]
            yield line_no + first, run, None if odd[first] else _lf_lines(run.replace(b"\r\n", b"\n"))


def _tallied_blocks(path: Path, delimiter: str, items: _ItemIndex
                    ) -> Iterator[tuple[np.ndarray, np.ndarray, list[tuple[int, str | None]]]]:
    """(cell code, item index) of the kept rows of a dyad CSV, and its
    drops, run by run (``_runs``; no run is plain if the delimiter is not
    plain ASCII): ``_plain_rows`` tallies a plain run, and a csv reader of its
    own reads a run that is not, and the runs after it only while its last
    row is open (a quoted field across a line end)."""
    _check_delimiter(delimiter)
    runs = _runs(path, csv.field_size_limit(), delimiter.isascii() and delimiter not in '"\r\n\0')
    last = 0  # the last line of the runs csv has taken

    def csv_lines(line_no: int, run: bytes, _) -> Iterator[str]:
        nonlocal last
        last = line_no + _line_count(run) - 1
        return _block_lines(path, line_no, run)

    def next_row_line() -> int | None:
        """The line csv's next row starts on, None once csv has read its runs."""
        line = line_no + reader.line_num
        return line if line <= last else None

    layout = None
    for line_no, run, plain in runs:
        if plain is None:
            lines = chain(csv_lines(line_no, run, None), chain.from_iterable(starmap(csv_lines, runs)))
            reader = csv.reader(lines, delimiter=delimiter)
            try:
                layout = layout or _dyad_layout(next(reader, None), path)
                yield _checked_rows(zip(iter(next_row_line, None), reader), path, layout, items)
            except csv.Error as exc:
                raise InputError(f"{path}: line {line_no - 1 + reader.line_num}: {exc}") from None
            continue
        buf, ends = plain
        if layout is None:  # csv splits a plain line at the delimiter
            layout = _dyad_layout(buf[:ends[0]].tobytes().decode().split(delimiter), path)
            buf, ends, line_no = buf[ends[0] + 1:], ends[1:] - (ends[0] + 1), line_no + 1
        if ends.size:
            yield _plain_rows(buf, ends, line_no, path, delimiter, layout, items)
    if layout is None:  # an empty file
        _dyad_layout(None, path)


def _tally_dyad_csv(path, delimiter: str
                    ) -> tuple[dict[str, np.ndarray], dict[str | None, int]]:
    """Per-item 64-cell counts of a dyad CSV, for items with at least one
    kept row, and per-item drop counts (None for a missing item id).
    Memory is O(block + items): no per-row record is made, and a plain
    block makes no Python object per row but for the rows the row rules
    check one by one."""
    items = _ItemIndex()
    counts = np.zeros(0, dtype=np.int64)
    dropped: dict[str | None, int] = {}
    for code, item, drops in _tallied_blocks(Path(path), delimiter, items):
        if counts.size < 64 * len(items.ids):  # doubled, so O(run) a run; no view of counts exists
            counts.resize(max(64 * len(items.ids), 2 * counts.size), refcheck=False)
        np.add.at(counts, item * 64 + code, 1)
        for _, item_id in drops:
            dropped[item_id] = dropped.get(item_id, 0) + 1
    counts.resize(64 * len(items.ids), refcheck=False)  # gives back the spare capacity
    by_item = counts.reshape(-1, 64)
    kept = by_item.any(axis=1).tolist()
    return {item: by_item[i] for item, i in items.ids.items() if kept[i]}, dropped


def dyad_csv_items(path, items: Sequence[str] | None = None, delimiter: str = ","
                   ) -> list[tuple[str, DyadTable, int]]:
    """(item, census, dyads dropped) of a dyad CSV for each of ``items``, or
    for each item with at least one kept row, sorted.  An item the file
    lacks gets an empty census.  The file is streamed: each run of lines is
    added into per-item counts in place, with no per-row record, so memory is
    O(block + items) whatever the row count.  The row rules are
    those of ``parse_dyad_csv`` (same drops, same first error)."""
    counts, dropped = _tally_dyad_csv(path, delimiter)
    return [(item, DyadTable(counts.get(item, np.zeros(64, dtype=np.int64))),
             dropped.get(item, 0)) for item in (sorted(counts) if items is None else items)]


@dataclass(frozen=True)
class NodeSurvey:
    """A node survey as int8 columns, -1 marking a missing value: each
    node's participation and, per item, its (before, after) bits.  ``index``
    maps a node id to its row; one more row, all -1, stands for an unknown id."""

    index: dict[str, int]
    participation: np.ndarray    # (nodes + 1,)
    bits: dict[str, np.ndarray]  # item -> (nodes + 1, 2)


def parse_node_csv(path, items: Sequence[str] | None = None,
                   delimiter: str = ",") -> tuple[NodeSurvey, list[str]]:
    """Read a node survey CSV; returns (survey, item ids found in the header).
    An item with a missing before or after cell is missing for the node."""
    path = Path(path)
    with _open_csv(path, delimiter) as reader:
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise InputError(f"{path}: empty file, expected a header row") from None
        for required in ("node_id", "participation"):
            if required not in header:
                raise InputError(f"{path}: header lacks column {required!r}")
        found_items = [h[: -len("_before")] for h in header if h.endswith("_before")]
        for item in found_items:
            if f"{item}_after" not in header:
                raise InputError(f"{path}: column {item}_before has no {item}_after")
        use_items = list(items) if items is not None else found_items
        for item in use_items:
            if f"{item}_before" not in header or f"{item}_after" not in header:
                raise InputError(f"{path}: header lacks columns for item {item!r}")
        idx = {h: i for i, h in enumerate(header)}
        index: dict[str, int] = {}
        lines: list[int] = []
        values: list[int] = []  # per node: participation, then each item's two bits
        for line_no, row in _numbered(reader):
            if len(row) < len(header):
                raise InputError(f"{path}: line {line_no}: expected "
                                 f"{len(header)} fields, got {len(row)}")
            node_id = row[idx["node_id"]].strip()
            if node_id in index:
                raise InputError(f"{path}: line {line_no}: node_id {node_id!r} "
                                 f"repeats line {lines[index[node_id]]}")
            index[node_id] = len(lines)
            lines.append(line_no)
            part = row[idx["participation"]]
            values.append(-1 if _is_missing(part)
                          else _parse_bit(part, line_no, "participation", path))
            for item in use_items:
                names = f"{item}_before", f"{item}_after"
                tokens = [row[idx[name]] for name in names]
                values += ((-1, -1) if any(map(_is_missing, tokens))
                           else map(_parse_bit, tokens, repeat(line_no), names, repeat(path)))
    width = 1 + 2 * len(use_items)
    table = np.array(values + [-1] * width, dtype=np.int8).reshape(-1, width)
    return NodeSurvey(index, table[:, 0], {item: table[:, 1 + 2 * i: 3 + 2 * i]
                                           for i, item in enumerate(use_items)}), use_items


def read_edge_list(path, delimiter: str = ",") -> list[tuple[str, str]]:
    """Two-column identifier pairs; '#' comment lines and blanks skipped."""
    _check_delimiter(delimiter)
    path = Path(path)
    edges: list[tuple[str, str]] = []
    for line_no, line in _listed_lines(path):
        fields = [f for f in map(str.strip, line.split(delimiter)) if f]
        if len(fields) != 2:
            raise InputError(f"{path}: line {line_no}: expected 2 fields, "
                             f"got {len(fields)}")
        edges.append((fields[0], fields[1]))
    return edges


@dataclass(frozen=True)
class JoinStats:
    """Data-quality counters from joining nodes with edges."""

    used: int = 0
    dropped_unknown_node: int = 0
    dropped_missing_bits: int = 0
    dropped_self_edge: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_unknown_node + self.dropped_missing_bits + self.dropped_self_edge


def _resolve_edges(survey: NodeSurvey, edges: Sequence[tuple[str, str]],
                   orientation: str) -> tuple[np.ndarray, np.ndarray]:
    """The (2, dyads) survey rows of the ego and alter of each edge, as
    listed or (``"symmetrize"``) as listed and reversed, an unknown id on
    the survey's last row; and which dyads are self edges."""
    if orientation not in ("directed", "symmetrize"):
        raise InputError(f"orientation must be directed or symmetrize, got {orientation!r}")
    row, unknown, n = survey.index.get, repeat(len(survey.index)), len(edges)
    rows = np.array([np.fromiter(map(row, map(itemgetter(end), edges), unknown), np.intp, n)
                     for end in (0, 1)])
    self_edge = np.fromiter(starmap(eq, edges), bool, n)
    if orientation == "symmetrize":
        return np.stack([rows, rows[::-1]], axis=2).reshape(2, -1), np.repeat(self_edge, 2)
    return rows, self_edge


def _join_codes(survey: NodeSurvey, dyads: tuple[np.ndarray, np.ndarray], item: str
                ) -> tuple[np.ndarray, JoinStats]:
    """Each dyad's cell code for ``item``, -1 if dropped: as a self edge,
    else for an unknown node, else for a missing participation or bit."""
    rows, self_edge = dyads
    part, bits = survey.participation, survey.bits.get(item)
    if bits is None:
        bits = np.full((part.size, 2), -1, dtype=np.int8)
    columns = np.stack([part[rows], bits[rows, 0], bits[rows, 1]]).reshape(6, -1)
    unknown = ~self_edge & (rows == part.size - 1).any(axis=0)
    missing = ~self_edge & ~unknown & (columns < 0).any(axis=0)
    codes = np.where(self_edge | unknown | missing, -1, cell_codes(*columns))
    return codes, JoinStats(int((codes >= 0).sum()), int(unknown.sum()),
                            int(missing.sum()), int(self_edge.sum()))


def join_node_edges(nodes: NodeSurvey, edges: Sequence[tuple[str, str]],
                    item: str, orientation: str = "directed",
                    ) -> tuple[list[DyadRecord], JoinStats]:
    """The records view of the join ``node_edge_items`` tallies: one record
    per dyad of ``item`` kept.  ``orientation="directed"`` takes each edge
    as listed; ``"symmetrize"`` takes both orientations.  Dyads with an
    unresolvable endpoint or any missing bit are dropped and counted."""
    dyads = _resolve_edges(nodes, edges, orientation)
    codes, stats = _join_codes(nodes, dyads, item)
    ids, kept = {row: node for node, row in nodes.index.items()}, codes >= 0
    return [DyadRecord(ids[ego], ids[alter], *CELL_BITS[code], item_id=item)
            for ego, alter, code in zip(*dyads[0][:, kept].tolist(), codes[kept].tolist())], stats


def node_edge_items(nodes, edges, items: Sequence[str] | None = None,
                    orientation: str = "directed", delimiter: str = ","
                    ) -> list[tuple[str, DyadTable, int]]:
    """(item, census, dyads dropped) of a node survey joined with an edge
    list, for each of ``items``, or for each item of the survey's header,
    sorted.  The edges are resolved to survey rows once; each item's codes
    then come from the survey's columns, with no record per dyad."""
    survey, found = parse_node_csv(nodes, items, delimiter)
    dyads = _resolve_edges(survey, read_edge_list(edges, delimiter), orientation)
    built = []
    for item in (sorted(found) if items is None else items):
        codes, stats = _join_codes(survey, dyads, item)
        built.append((item, tally(codes[codes >= 0]), stats.dropped))
    return built


def _parse_value(token: str, line_no: int, column: str, path, probabilities: bool) -> float:
    """A value of a 64-cell table: a probability in [0, 1], or a count."""
    try:
        value = float(token)
    except ValueError:
        raise InputError(f"{path}: line {line_no}: column {column!r} is not "
                         f"a number: {token!r}") from None
    if probabilities:
        if not 0.0 <= value <= 1.0:
            raise InputError(f"{path}: line {line_no}: column {column!r} must be "
                             f"a probability in [0, 1], got {token!r}")
    elif not (0.0 <= value <= _MAX_COUNT and value.is_integer()):
        raise InputError(f"{path}: line {line_no}: column {column!r} must be "
                         f"a non-negative integer of at most 2**53, got {token!r}")
    return value


_GRID_RS = ("rs00", "rs01", "rs10", "rs11")


def parse_table64(path, probabilities: bool = False, scale: int = 100,
                  delimiter: str = ",") -> DyadTable:
    """Read a 64-cell census, in long or grid form.

    With ``probabilities=True`` the values are per-row probabilities and are
    converted to counts via round(value * scale).  A missing, non-numeric
    or out-of-range value is an InputError naming the file, line and column.
    """
    path = Path(path)
    with _open_csv(path, delimiter) as reader:
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise InputError(f"{path}: empty file, expected a header row") from None
        rows = list(_numbered(reader))
    if all(c in header for c in ("x", "y", "p", "q", "r", "s", "value")):
        bit_columns, value_columns, unit = ("x", "y", "p", "q", "r", "s"), ("value",), "cell"
    elif all(c in header for c in ("x", "y", "p", "q") + _GRID_RS):
        bit_columns, value_columns, unit = ("x", "y", "p", "q"), _GRID_RS, "group"
    else:
        raise InputError(
            f"{path}: header must be either x,y,p,q,r,s,value or "
            f"x,y,p,q,{','.join(_GRID_RS)} (got {header})")
    idx = {h: header.index(h) for h in bit_columns + value_columns}
    values = np.zeros(64, dtype=float)
    filled = np.zeros(64, dtype=bool)
    for line_no, row in rows:
        for column in bit_columns + value_columns:
            if idx[column] >= len(row):
                raise InputError(f"{path}: line {line_no}: column {column!r} is "
                                 f"missing (got {len(row)} fields)")
        bits = [_parse_bit(row[idx[b]], line_no, b, path) for b in bit_columns]
        first = CELL_BITS.index(tuple(bits + [0] * (6 - len(bits))))  # a group's r = s = 0
        for code, column in enumerate(value_columns, start=first):
            if filled[code]:
                raise InputError(f"{path}: line {line_no}: duplicate {unit} "
                                 f"({','.join(bit_columns)})={tuple(bits)}")
            filled[code] = True
            values[code] = _parse_value(row[idx[column]], line_no, column, path,
                                        probabilities)
    if not filled.all():
        raise InputError(f"{path}: only {int(filled.sum())} of 64 cells provided")
    if probabilities:
        return probabilities_to_counts(values, scale)
    return DyadTable(values.astype(np.int64))


@dataclass(frozen=True)
class ItemReport:
    """Results and data-quality counters for one behavioral item."""

    item_id: str
    item_label: str
    results: tuple[TestResult, ...]
    dyads_used: int
    dyads_dropped: int
    error: str | None = None


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _run_tasks(fn: Callable, tasks: list) -> list:
    """``fn`` over ``tasks``, the outcomes in task order: inline, or with more
    than one task and CPU in ``jobs`` forked children, task i in child i mod
    jobs, each pickling its outcomes, or its error, to a pipe.  The parent
    raises a child's error (a RuntimeError for a child that sent nothing);
    no child outlives the call."""
    jobs = min(len(tasks), _worker_count())
    if jobs < 2 or not hasattr(os, "fork"):
        return [fn(task) for task in tasks]
    outcomes, children = [None] * len(tasks), []  # (pid, read end) by child
    try:
        for share in range(jobs):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    try:
                        outcome = [fn(task) for task in tasks[share::jobs]]
                    except BaseException as exc:
                        outcome = exc
                    with open(write, "wb") as pipe:
                        pipe.write(pickle.dumps(outcome))
                finally:
                    os._exit(0)  # no exit handler or buffer of the parent runs twice
            os.close(write)
            children.append((pid, read))
        for share, (pid, read) in enumerate(children):
            payload = b"".join(iter(partial(os.read, read, 1 << 16), b""))
            outcome = pickle.loads(payload) if payload else RuntimeError(
                f"worker process {pid} ended without sending its results")
            if isinstance(outcome, BaseException):
                raise outcome
            outcomes[share::jobs] = outcome
    finally:
        for pid, read in children:
            os.close(read)
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    return outcomes


def evaluate_items(items: Sequence[tuple[str, str, DyadTable, int]],
                   config: InferenceConfig) -> list[ItemReport]:
    """Null model -> all measures, for each (item id, label, census, dyads
    dropped) of ``items``.

    Item i draws from child i of the seed (an int or a ``SeedSequence``,
    left as it was; a ``Generator`` is an InputError), so results are
    reproducible and independent of which other items are present only
    when the item list is unchanged.  An item whose census cannot be tested
    (no dyads) produces a report carrying its error; other items still run.
    A ``NumericalIntegrityError`` is a fault of the engine, not of an item,
    and propagates.

    ``inference.run_items`` plans every item's run and splits it into tasks,
    and this module only runs them in up to one forked child per CPU
    (``_run_tasks``), so one item's bootstrap uses every CPU too; results do
    not depend on the worker count.  A child holds one chunk's null censuses
    at a time (16,384 x 64 int64 cell counts) plus running tail counts,
    whatever the trial count.
    """
    if isinstance(config.seed, np.random.Generator):
        raise InputError("a Generator seed cannot be split across items; "
                         "give an int or a SeedSequence")
    children = _seed_children(config.seed, range(len(items)))
    outcomes = run_items([(table, replace(config, seed=child), None)
                          for (_, _, table, _), child in zip(items, children)],
                         _worker_count(), _run_tasks)
    return [ItemReport(item_id, label, (), 0, 0, error=str(outcome))
            if isinstance(outcome, InputError)
            else ItemReport(item_id, label, tuple(outcome), dyads_used=table.total,
                            dyads_dropped=dropped)
            for (item_id, label, table, dropped), outcome in zip(items, outcomes)]


_CSV_FIELDS = ("item_id", "item_label", "measure", "measure_label", "method",
               "observed", "null_mean", "direction", "p_value", "p_value_addone",
               "significant", "alpha", "trials", "two_sided", "dyads_used",
               "dyads_dropped", "seed", "tool_version", "error")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _result_fields(res: TestResult) -> dict:
    """A result's report fields: its own, with the measure as id and label."""
    return {**{f.name: getattr(res, f.name) for f in fields(TestResult)},
            "measure": res.measure.value if res.measure is not None else None,
            "measure_label": res.measure.label if res.measure is not None else None}


def _result_row(report: ItemReport, res: TestResult, seed: int) -> dict:
    return {**_result_fields(res), "item_id": report.item_id,
            "item_label": report.item_label, "dyads_used": report.dyads_used,
            "dyads_dropped": report.dyads_dropped, "seed": seed,
            "tool_version": __version__, "error": report.error}


def emit_report(reports: Sequence[ItemReport], fmt: str, path, seed: int = 0) -> None:
    """Write results as CSV (one row per test) or JSON (round-trippable).

    Field order is fixed; floats use repr so integers and 17-significant-
    digit reals survive a round trip byte-identically.
    """
    if not reports:
        raise InputError("nothing to report")
    path = Path(path)
    if fmt == "csv":
        lines = [",".join(_CSV_FIELDS)]
        for report in reports:
            for res in report.results if report.error is None else (_EMPTY_RESULT,):
                row = _result_row(report, res, seed)
                lines.append(",".join(_csv_quote(_fmt(row[f])) for f in _CSV_FIELDS))
        _write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))
    elif fmt == "json":
        payload = {
            "tool": "dyadeval",
            "version": __version__,
            "seed": seed,
            "items": [
                {
                    "item_id": r.item_id,
                    "item_label": r.item_label,
                    "dyads_used": r.dyads_used,
                    "dyads_dropped": r.dyads_dropped,
                    "error": r.error,
                    "results": [_result_fields(res) for res in r.results],
                }
                for r in reports
            ],
        }
        _write_bytes(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n")
                     .encode("utf-8"))
    else:
        raise InputError(f"unknown report format {fmt!r}")


def _write_bytes(path: Path, payload: bytes) -> None:
    try:
        path.write_bytes(payload)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


_EMPTY_RESULT = TestResult(measure=None, observed=0, null_mean=0.0,
                           direction="none", p_value=1.0, method="",
                           alpha=0.05, significant=False)


def _csv_quote(text: str) -> str:
    """``text`` as a comma-separated field, quoted as csv.writer quotes it."""
    if any(ch in text for ch in ",\"\r\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


# The JSON values a report field may hold, and how to name them, by the
# names in its annotation; a bool is not taken for a number.
_JSON_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
               "str": ((str,), "a string"), "bool": ((bool,), "true or false"),
               "None": ((type(None),), "null"), "MeasureId": ((str,), "a measure id"),
               "tuple[TestResult, ...]": ((list,), "a list")}


# The values a report field may hold beyond its JSON type, but null, and their name.
_DOMAINS = {
    "direction": (lambda v: v in ("positive", "negative", "none"), "positive, negative or none"),
    "method": (lambda v: v in ("bootstrap", "exact"), "bootstrap or exact"),
    **dict.fromkeys(("p_value", "p_value_addone"), (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")),
    "alpha": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "trials": (lambda v: v >= 1, "at least 1"),
    **dict.fromkeys(("dyads_used", "dyads_dropped"), (lambda v: v >= 0, "at least 0"))}


def _report_fields(record: dict, cls, where: str) -> dict:
    """The fields of dataclass ``cls`` in ``record``, each of a JSON type
    its annotation allows and in its domain (``_DOMAINS``); any other is an
    InputError naming ``where``."""
    values = {f.name: record[f.name] for f in fields(cls)}
    for f in fields(cls):
        value = values[f.name]
        allowed = [_JSON_TYPES[name] for name in f.type.split(" | ")]
        if not any(type(value) in types for types, _ in allowed):
            wanted = " or ".join(text for _, text in allowed)
        elif value is not None and f.name in _DOMAINS and not _DOMAINS[f.name][0](value):
            wanted = _DOMAINS[f.name][1]
        else:
            continue
        raise InputError(f"{where}: field {f.name!r} must be {wanted}, got {json.dumps(value)}")
    return values


def load_report_json(path) -> list[ItemReport]:
    """Re-parse a JSON report into ItemReports (inverse of emit_report).  A
    payload that is not an object, a missing key, a value of the wrong type
    or out of its field's domain, or an unknown measure is an InputError
    naming the file."""
    path = Path(path)
    try:
        payload = json.loads("".join(_lines(path)))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    reports = []
    try:
        for i, item in enumerate(payload.get("items", [])):
            results = []
            for j, res in enumerate(item["results"]):
                result = _report_fields(res, TestResult, f"{path}: items[{i}].results[{j}]")
                result["measure"] = MeasureId(result["measure"]) if result["measure"] else None
                results.append(TestResult(**result))
            report = _report_fields(item, ItemReport, f"{path}: items[{i}]")
            reports.append(ItemReport(**{**report, "results": tuple(results)}))
    except KeyError as exc:
        raise InputError(f"{path}: report lacks key {exc}") from None
    except TypeError as exc:  # an item or result that is not an object
        raise InputError(f"{path}: malformed report: {exc}") from None
    except ValueError as exc:  # from MeasureId
        raise InputError(f"{path}: unknown measure: {exc}") from None
    return reports
