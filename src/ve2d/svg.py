"""A minimal SVG line-plot writer.

Only what the experiment drivers need: one panel, one polyline, linear or
log axes, a handful of tick labels.  CSV files remain the ground truth;
these plots are just quick visual artifacts.
"""

import math

import numpy as np

WIDTH, HEIGHT = 640, 440
MARGIN = 60
COLOR = "#1f77b4"


def _transform(vals, lo, hi, out_lo, out_hi, log):
    vals = np.asarray(vals, dtype=float)
    if log:
        vals, lo, hi = np.log10(vals), math.log10(lo), math.log10(hi)
    if hi == lo:
        hi = lo + 1.0
    return out_lo + (vals - lo) / (hi - lo) * (out_hi - out_lo)


def _ticks(lo, hi, log):
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        step = max(1, (hi_e - lo_e) // 5)
        return [10.0 ** e for e in range(lo_e, hi_e + 1, step)]
    span = hi - lo
    if span <= 0:
        return [lo]
    step = 10.0 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    return list(np.arange(first, hi + step / 2, step))


def _fmt(x):
    if x == 0:
        return "0"
    if abs(x) >= 1e4 or abs(x) < 1e-3:
        return f"{x:.0e}"
    return f"{x:g}"


def line_plot(path, xs, ys, label="", title="", xlabel="", ylabel="",
              logx=False, logy=False):
    """Write a line plot of the series ys over xs.  Non-finite points, and
    non-positive ones on a log axis, are dropped; nothing left is a
    ValueError."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = np.isfinite(xs) & np.isfinite(ys)
    if logx:
        keep &= xs > 0
    if logy:
        keep &= ys > 0
    if not np.any(keep):
        raise ValueError("nothing plottable in the given series")
    xs, ys = xs[keep], ys[keep]

    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if not logy and y_lo > 0 and y_lo / max(y_hi, 1e-300) > 0.5:
        y_lo = 0.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-size="16">{title}</text>',
    ]
    x0, x1p = MARGIN, WIDTH - 20
    y0, y1p = HEIGHT - MARGIN, 40
    parts.append(f'<rect x="{x0}" y="{y1p}" width="{x1p - x0}" '
                 f'height="{y0 - y1p}" fill="none" stroke="black"/>')

    for tick in _ticks(x_lo, x_hi, logx):
        px = float(_transform([tick], x_lo, x_hi, x0, x1p, logx)[0])
        if x0 - 1 <= px <= x1p + 1:
            parts.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" '
                         f'y2="{y0 + 5}" stroke="black"/>')
            parts.append(f'<text x="{px:.1f}" y="{y0 + 20}" '
                         f'text-anchor="middle" font-size="11">'
                         f'{_fmt(tick)}</text>')
    for tick in _ticks(y_lo, y_hi, logy):
        py = float(_transform([tick], y_lo, y_hi, y0, y1p, logy)[0])
        if y1p - 1 <= py <= y0 + 1:
            parts.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" '
                         f'y2="{py:.1f}" stroke="black"/>')
            parts.append(f'<text x="{x0 - 8}" y="{py + 4:.1f}" '
                         f'text-anchor="end" font-size="11">'
                         f'{_fmt(tick)}</text>')
    parts.append(f'<text x="{(x0 + x1p) // 2}" y="{HEIGHT - 12}" '
                 f'text-anchor="middle" font-size="13">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(y0 + y1p) // 2}" text-anchor="middle" '
                 f'font-size="13" transform="rotate(-90 16 '
                 f'{(y0 + y1p) // 2})">{ylabel}</text>')

    pxs = _transform(xs, x_lo, x_hi, x0, x1p, logx)
    pys = _transform(ys, y_lo, y_hi, y0, y1p, logy)
    points = " ".join(f"{px:.1f},{py:.1f}" for px, py in zip(pxs, pys))
    parts.append(f'<polyline points="{points}" fill="none" '
                 f'stroke="{COLOR}" stroke-width="1.5"/>')
    if label:
        parts.append(f'<text x="{x1p - 8}" y="{y1p + 16}" text-anchor="end" '
                     f'font-size="12" fill="{COLOR}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
