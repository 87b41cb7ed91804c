"""Minimal static SVG rendering for the explanation plot datasets.

Figures are artifacts, not an app: plain bars and waterfall bridges,
no interactivity.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

WIDTH = 640
HEIGHT = 420
MARGIN = 60


def _svg(elements: list[str]) -> str:
    body = "\n".join(elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n<rect width="100%" height="100%" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )


def _text(x, y, s, size=11, anchor="start"):
    return f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" font-family="sans-serif" text-anchor="{anchor}">{escape(str(s))}</text>'


def importance_bar_svg(ranking: list[tuple[str, float]], top: int = 20) -> str:
    rows = ranking[:top]
    if not rows:
        return _svg([_text(WIDTH / 2, HEIGHT / 2, "no data", anchor="middle")])
    vmax = max(v for _, v in rows) or 1.0
    bar_h = (HEIGHT - 2 * MARGIN) / len(rows)
    parts = [_text(WIDTH / 2, 24, "mean |SHAP value| per feature", 13, "middle")]
    for i, (name, v) in enumerate(rows):
        y = MARGIN + i * bar_h
        w = (WIDTH - MARGIN - 180) * v / vmax
        parts.append(
            f'<rect x="170" y="{y:.1f}" width="{w:.1f}" height="{max(bar_h - 4, 2):.1f}" fill="#1f77b4"/>'
        )
        parts.append(_text(165, y + bar_h / 2 + 3, name, 10, "end"))
        parts.append(_text(175 + w, y + bar_h / 2 + 3, f"{v:.4f}", 9))
    return _svg(parts)


def waterfall_svg(data: dict, top: int = 12) -> str:
    contribs = data["contributions"][:top]
    rest = sum(c["shap"] for c in data["contributions"][top:])
    steps = [(c["feature"], c["shap"]) for c in contribs]
    if data["contributions"][top:]:
        steps.append((f"{len(data['contributions']) - top} other features", rest))
    parts = [
        _text(
            WIDTH / 2,
            24,
            f"waterfall: p(bad) = {data['probability']:.3f} (baseline {data['baseline_probability']:.3f})",
            13,
            "middle",
        )
    ]
    positions = [data["baseline"]]
    for _, v in steps:
        positions.append(positions[-1] + v)
    lo, hi = min(positions), max(positions)
    span = (hi - lo) or 1.0

    def px(v):
        return MARGIN + 140 + (v - lo) / span * (WIDTH - 2 * MARGIN - 140)

    bar_h = (HEIGHT - 2 * MARGIN) / max(len(steps), 1)
    running = data["baseline"]
    for i, (name, v) in enumerate(steps):
        y = MARGIN + i * bar_h
        x_from, x_to = px(running), px(running + v)
        color = "#d62728" if v >= 0 else "#1f77b4"
        parts.append(
            f'<rect x="{min(x_from, x_to):.1f}" y="{y:.1f}" width="{max(abs(x_to - x_from), 1.0):.1f}" '
            f'height="{max(bar_h - 4, 2):.1f}" fill="{color}"/>'
        )
        parts.append(_text(MARGIN + 135, y + bar_h / 2 + 3, name, 9, "end"))
        running += v
    bx = px(data["baseline"])
    parts.append(f'<line x1="{bx:.1f}" y1="{MARGIN - 8}" x2="{bx:.1f}" y2="{HEIGHT - MARGIN + 8}" stroke="#888" stroke-dasharray="4 3"/>')
    parts.append(_text(bx, MARGIN - 14, "baseline", 9, "middle"))
    return _svg(parts)
