"""Tiny deterministic SVG line charts.

No timestamps, no randomness: the same series always serialize to the same
bytes, so chart output can be diffed across runs.  Titles and labels are
XML-escaped, so any text (trace file names among them) keeps the SVG well formed.
"""

import math
from html import escape  # xml.sax.saxutils would load urllib.request with it

_PALETTE = ("#1f6f8b", "#c0392b", "#27ae60", "#8e44ad", "#e67e22", "#2c3e50")

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 20, 36, 48


def _fmt(x):
    return f"{x:.2f}"


def _ticks(lo, hi, count=5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def line_chart(series, title="", xlabel="", ylabel="", log_y=False):
    """Render (label, xs, ys) series to an SVG string.

    Empty input still yields a valid axes-only chart.  With log_y the y
    axis is log10-scaled and every y must be positive.
    """
    title, xlabel, ylabel = (escape(t, quote=False) for t in (title, xlabel, ylabel))
    pts = []
    for _, xs, ys in series:
        if len(xs) != len(ys):
            raise ValueError("series x and y lengths differ")
        for x, y in zip(xs, ys):
            if log_y and y <= 0:
                raise ValueError("log-scale chart needs positive y values")
            pts.append((float(x), math.log10(float(y)) if log_y else float(y)))

    if pts:
        xlo = min(p[0] for p in pts)
        xhi = max(p[0] for p in pts)
        ylo = min(p[1] for p in pts)
        yhi = max(p[1] for p in pts)
    else:
        xlo, xhi, ylo, yhi = 0.0, 1.0, 0.0, 1.0
    if xhi <= xlo:
        xhi = xlo + 1.0
    if yhi <= ylo:
        yhi = ylo + 1.0

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def sx(x):
        return _ML + (x - xlo) / (xhi - xlo) * pw

    def sy(y):
        return _MT + ph - (y - ylo) / (yhi - ylo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{_W // 2}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )

    # axes box and ticks
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#444" stroke-width="1"/>'
    )
    for tx in _ticks(xlo, xhi):
        px = sx(tx)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_MT + ph}" x2="{_fmt(px)}" '
            f'y2="{_MT + ph + 5}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_MT + ph + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:.3g}</text>'
        )
    for ty in _ticks(ylo, yhi):
        py = sy(ty)
        label = 10.0**ty if log_y else ty
        out.append(
            f'<line x1="{_ML - 5}" y1="{_fmt(py)}" x2="{_ML}" '
            f'y2="{_fmt(py)}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label:.3g}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{_ML + pw // 2}" y="{_H - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{xlabel}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="16" y="{_MT + ph // 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {_MT + ph // 2})">{ylabel}</text>'
        )

    for k, (label, xs, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        coords = " ".join(
            f"{_fmt(sx(float(x)))},"
            f"{_fmt(sy(math.log10(float(y)) if log_y else float(y)))}"
            for x, y in zip(xs, ys)
        )
        if coords:
            out.append(
                f'<polyline points="{coords}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        ly = _MT + 16 + 16 * k
        out.append(
            f'<line x1="{_ML + pw - 130}" y1="{ly - 4}" x2="{_ML + pw - 108}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{_ML + pw - 102}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{escape(label, quote=False)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
