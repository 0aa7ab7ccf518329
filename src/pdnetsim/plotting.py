"""Hand-rolled SVG line charts for Gini-versus-iteration series.

No rendering dependency: the chart is assembled as an SVG string, so the
same inputs always produce the same bytes.
"""

from html import escape

from .errors import ConfigError

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

_WIDTH = 960
_HEIGHT = 540
_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 180.0
_MARGIN_TOP = 24.0
_MARGIN_BOTTOM = 52.0


def render_line_chart(series) -> str:
    """Render one polyline per (label, xs, ys) triple into an SVG document."""
    if not series:
        raise ConfigError("nothing to plot: no series given")
    for label, xs, ys in series:
        if not xs or len(xs) != len(ys):
            raise ConfigError(f"series {label!r} is empty or misaligned")

    x_max = max(max(xs) for _, xs, _ in series)
    y_max = max(max(ys) for _, _, ys in series)
    x_hi = x_max if x_max > 0 else 1.0
    y_hi = y_max * 1.05 if y_max > 0 else 1.0

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h  # plot origin (bottom-left)

    def px(x: float) -> float:
        return x0 + (x / x_hi) * plot_w

    def py(y: float) -> float:
        return y0 - (y / y_hi) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]

    def line(x1: float, y1: float, x2: float, y2: float, stroke: str) -> None:
        parts.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" {stroke}/>')

    def text(x: float, y: float, style: str, body: str) -> None:
        parts.append(f'<text x="{x:.2f}" y="{y:.2f}" {style}>{body}</text>')

    line(x0, y0, x0 + plot_w, y0, 'stroke="black" stroke-width="1"')
    line(x0, y0, x0, _MARGIN_TOP, 'stroke="black" stroke-width="1"')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        tx, ty = px(frac * x_hi), py(frac * y_hi)
        line(tx, y0, tx, y0 + 5, 'stroke="black"')
        text(tx, y0 + 20, 'font-size="12" text-anchor="middle"', f"{frac * x_hi:.3f}".rstrip("0").rstrip("."))
        line(x0 - 5, ty, x0, ty, 'stroke="black"')
        text(x0 - 9, ty + 4, 'font-size="12" text-anchor="end"', f"{frac * y_hi:.3f}")

    text(x0 + plot_w / 2, _HEIGHT - 12, 'font-size="14" text-anchor="middle"', "iteration")
    parts.append(
        f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:.2f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:.2f})">Gini Coefficient</text>'
    )

    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        ly = _MARGIN_TOP + 16 + idx * 18
        lx = x0 + plot_w + 14
        line(lx, ly - 4, lx + 22, ly - 4, f'stroke="{color}" stroke-width="2"')
        text(lx + 28, ly, 'font-size="12"', escape(str(label), quote=False))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
