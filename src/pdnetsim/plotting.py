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
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0 + plot_w:.2f}" y2="{y0:.2f}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{_MARGIN_TOP:.2f}" '
        'stroke="black" stroke-width="1"/>',
    ]

    for i in range(5):
        frac = i / 4
        tx = px(frac * x_hi)
        parts.append(
            f'<line x1="{tx:.2f}" y1="{y0:.2f}" x2="{tx:.2f}" y2="{y0 + 5:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{tx:.2f}" y="{y0 + 20:.2f}" font-size="12" text-anchor="middle">'
            f"{frac * x_hi:.0f}</text>"
        )
        ty = py(frac * y_hi)
        parts.append(
            f'<line x1="{x0 - 5:.2f}" y1="{ty:.2f}" x2="{x0:.2f}" y2="{ty:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0 - 9:.2f}" y="{ty + 4:.2f}" font-size="12" text-anchor="end">'
            f"{frac * y_hi:.3f}</text>"
        )

    parts.append(
        f'<text x="{x0 + plot_w / 2:.2f}" y="{_HEIGHT - 12:.2f}" font-size="14" '
        f'text-anchor="middle">iteration</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:.2f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:.2f})">Gini Coefficient</text>'
    )

    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        ly = _MARGIN_TOP + 16 + idx * 18
        lx = x0 + plot_w + 14
        parts.append(
            f'<line x1="{lx:.2f}" y1="{ly - 4:.2f}" x2="{lx + 22:.2f}" y2="{ly - 4:.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28:.2f}" y="{ly:.2f}" font-size="12">{escape(str(label), quote=False)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
