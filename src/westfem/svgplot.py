"""Minimal self-contained SVG charts for convergence plots: errors on a log
y axis against a log or a linear x axis.

Log-log plots carry dashed reference lines of prescribed slope so the
observed order can be read off against the expected one.  No plotting
dependency; files are plain SVG text.
"""

from __future__ import annotations

import math
from pathlib import Path

W, H = 640, 480
ML, MR, MT, MB = 78, 24, 42, 56
PALETTE = ["#1f5fa8", "#c03a2b", "#1e8449", "#8e44ad", "#b7950b"]


def _decades(lo: float, hi: float):
    return range(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1)


class _Axis:
    def __init__(self, lo, hi, px_lo, px_hi, log):
        self.log = log
        self.lo, self.hi = (math.log10(lo), math.log10(hi)) if log else (lo, hi)
        if self.hi - self.lo < 1e-12:
            self.lo, self.hi = self.lo - 0.5, self.hi + 0.5
        self.px_lo, self.px_hi = px_lo, px_hi

    def __call__(self, v: float) -> float:
        t = (math.log10(v) if self.log else v)
        frac = (t - self.lo) / (self.hi - self.lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo)


def _fmt_tick(e: int) -> str:
    return f"1e{e:+03d}" if e < -3 or e > 3 else f"{10.0 ** e:g}"


def _svg_header(title: str) -> list:
    return [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
            f'viewBox="0 0 {W} {H}" font-family="monospace" font-size="12">',
            f'<rect width="{W}" height="{H}" fill="white"/>',
            f'<text x="{W / 2:.0f}" y="24" text-anchor="middle" font-size="14">'
            f'{title}</text>']


def _axes_frame(out: list, xlabel: str):
    out.append(f'<rect x="{ML}" y="{MT}" width="{W - ML - MR}" '
               f'height="{H - MT - MB}" fill="none" stroke="black"/>')
    out.append(f'<text x="{(ML + W - MR) / 2:.0f}" y="{H - 14}" '
               f'text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="18" y="{(MT + H - MB) / 2:.0f}" text-anchor="middle" '
               f'transform="rotate(-90 18 {(MT + H - MB) / 2:.0f})">error</text>')


def _y_ticks(out: list, ay: _Axis, vals):
    for e in _decades(min(vals), max(vals)):
        y = ay(10.0 ** e)
        if not (MT - 1 <= y <= H - MB + 1):
            continue
        out.append(f'<line x1="{ML}" y1="{y:.1f}" x2="{W - MR}" y2="{y:.1f}" '
                   f'stroke="#dddddd"/>')
        out.append(f'<text x="{ML - 6}" y="{y + 4:.1f}" text-anchor="end">'
                   f'{_fmt_tick(e)}</text>')


def _series_and_legend(out: list, series, ax, ay):
    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{ax(x):.1f},{ay(y):.1f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.6"/>')
        for x, y in zip(xs, ys):
            out.append(f'<circle cx="{ax(x):.1f}" cy="{ay(y):.1f}" r="3" '
                       f'fill="{color}"/>')
        ly = MT + 16 + 16 * idx
        out.append(f'<line x1="{W - MR - 120}" y1="{ly}" x2="{W - MR - 96}" '
                   f'y2="{ly}" stroke="{color}" stroke-width="1.6"/>')
        out.append(f'<text x="{W - MR - 90}" y="{ly + 4}">{label}</text>')


def plot(path, series, xlog, guides=(), xlabel="", title="") -> bool:
    """series: list of (label, xs, ys) on a log y axis; x is log when xlog,
    linear otherwise.  guides: reference slopes, meaningful on log-log axes.
    A point with y <= 0 has no place on the log axis and is left out.
    Returns whether a chart was written (not when no y value is positive)."""
    series = [(label, [x for x, y in zip(xs, ys) if y > 0], [y for y in ys if y > 0])
              for label, xs, ys in series]
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not ys_all:
        return False
    ax = _Axis(min(xs_all), max(xs_all), ML, W - MR, log=xlog)
    ay = _Axis(min(ys_all), max(ys_all), H - MB, MT, log=True)

    out = _svg_header(title)
    _y_ticks(out, ay, ys_all)
    if xlog:
        for e in _decades(min(xs_all), max(xs_all)):
            x = ax(10.0 ** e)
            if ML - 1 <= x <= W - MR + 1:
                out.append(f'<line x1="{x:.1f}" y1="{MT}" x2="{x:.1f}" y2="{H - MB}" '
                           f'stroke="#dddddd"/>')
                out.append(f'<text x="{x:.1f}" y="{H - MB + 16}" text-anchor="middle">'
                           f'{_fmt_tick(e)}</text>')
    else:
        n_tick = 6
        for i in range(n_tick + 1):
            v = min(xs_all) + (max(xs_all) - min(xs_all)) * i / n_tick
            x = ax(v)
            out.append(f'<line x1="{x:.1f}" y1="{H - MB}" x2="{x:.1f}" '
                       f'y2="{H - MB + 5}" stroke="black"/>')
            out.append(f'<text x="{x:.1f}" y="{H - MB + 18}" text-anchor="middle">'
                       f'{v:.3g}</text>')
    _axes_frame(out, xlabel)

    # guide of slope m through a point slightly below the first drawn series
    if guides:
        _, xs0, ys0 = next(s for s in series if s[2])
        xa, xb = min(xs0), max(xs0)
        for m in guides:
            ya = 0.5 * min(ys0)
            yb = ya * (xb / xa) ** m
            out.append(f'<line x1="{ax(xa):.1f}" y1="{ay(ya):.1f}" '
                       f'x2="{ax(xb):.1f}" y2="{ay(yb):.1f}" stroke="#888888" '
                       f'stroke-dasharray="6 4"/>')
            out.append(f'<text x="{ax(xb) + 4:.1f}" y="{ay(yb) + 4:.1f}" '
                       f'fill="#555555">slope {m}</text>')

    _series_and_legend(out, series, ax, ay)
    out.append("</svg>")
    _write(path, out)
    return True


def _write(path, lines):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
