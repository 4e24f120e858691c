"""Bubble-chart SVG: an item-by-measure grid of significance glyphs.

One column per item, one row per measure.  A glyph appears only where the
result is significant at its alpha: a circle for direction "positive", a
triangle for "negative".  Glyph radius grows linearly with -log10(p),
capped at 4 (so p <= 1e-4 gets the maximum size); p is floored at 1e-16
before taking the log so bootstrap zeros still render.

Output bytes are a pure function of the reports: fixed float formatting,
no timestamps.
"""

from __future__ import annotations

import html
import math
from pathlib import Path
from typing import Sequence

from .errors import InputError
from .inference import TestResult
from .io import _write_bytes
from .measures import MeasureId

__all__ = ["emit_bubble_chart", "glyph_radius"]

_CELL = 26.0
_LEFT = 70.0
_TOP = 30.0
_BOTTOM = 70.0
_R_MIN = 2.0
_R_MAX = 10.0
_LOG_CAP = 4.0
_P_FLOOR = 1e-16


def glyph_radius(p_value: float) -> float:
    """Monotone size scale: r_min at p = 1 up to r_max at p <= 1e-4."""
    score = min(-math.log10(max(p_value, _P_FLOOR)), _LOG_CAP) / _LOG_CAP
    return _R_MIN + (_R_MAX - _R_MIN) * score


def _pick_method(reports) -> str:
    methods = {res.method for r in reports for res in r.results}
    return "exact" if "exact" in methods else "bootstrap"


def emit_bubble_chart(reports: Sequence, path, method: str | None = None,
                      alpha: float | None = None) -> None:
    """Write the grid SVG for one method's results.

    ``method`` defaults to exact when present, else bootstrap.  ``alpha``
    overrides the per-result significance level when given.
    """
    if not reports:
        raise InputError("nothing to chart")
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")
    use_method = method if method is not None else _pick_method(reports)
    measures = list(MeasureId)
    items = [(r.item_id, r) for r in reports]
    width = _LEFT + _CELL * len(items) + 10.0
    height = _TOP + _CELL * len(measures) + _BOTTOM

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.1f}" '
        f'height="{height:.1f}" viewBox="0 0 {width:.1f} {height:.1f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{_LEFT:.1f}" y="16" font-family="sans-serif" font-size="12" '
        f'fill="black">method: {use_method}</text>',
    ]
    for row, measure in enumerate(measures):
        cy = _TOP + _CELL * (row + 0.5)
        parts.append(
            f'<text x="{_LEFT - 8.0:.1f}" y="{cy + 4.0:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="black">{measure.value}</text>')
        parts.append(
            f'<line x1="{_LEFT:.1f}" y1="{cy:.1f}" x2="{width - 10.0:.1f}" '
            f'y2="{cy:.1f}" stroke="#dddddd" stroke-width="0.5"/>')
    for col, (item_id, _) in enumerate(items):
        cx = _LEFT + _CELL * (col + 0.5)
        label = html.escape(item_id if len(item_id) <= 12 else item_id[:11] + "~", quote=False)
        parts.append(
            f'<text x="{cx:.1f}" y="{height - _BOTTOM + 16.0:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10" fill="black" '
            f'transform="rotate(-60 {cx:.1f} {height - _BOTTOM + 16.0:.1f})">{label}</text>')

    glyphs = 0
    for col, (_, report) in enumerate(items):
        by_measure = {res.measure: res for res in report.results
                      if res.method == use_method}
        for row, measure in enumerate(measures):
            res: TestResult | None = by_measure.get(measure)
            if (res is None or res.direction not in ("positive", "negative")
                    or not res.p_value < (alpha if alpha is not None else res.alpha)):
                continue
            cx = _LEFT + _CELL * (col + 0.5)
            cy = _TOP + _CELL * (row + 0.5)
            r = glyph_radius(res.p_value)
            if res.direction == "positive":
                parts.append(
                    f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" '
                    f'fill="#2166ac" fill-opacity="0.85"/>')
            else:
                parts.append(
                    f'<polygon points="{cx:.2f},{cy - r:.2f} {cx - r:.2f},'
                    f'{cy + r:.2f} {cx + r:.2f},{cy + r:.2f}" '
                    f'fill="#b2182b" fill-opacity="0.85"/>')
            glyphs += 1
    parts.append(f'<!-- glyphs: {glyphs} -->')
    parts.append('</svg>')
    _write_bytes(Path(path), ("\n".join(parts) + "\n").encode("utf-8"))
