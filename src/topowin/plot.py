"""SVG rendering of persistence diagrams (birth/death scatter with the
diagonal), plus a lossless CSV twin of the plotted points."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from . import io

_SIZE = 480
_MARGIN = 48
_DIM_COLORS = {0: "#1f77b4", 1: "#d62728"}


def _scale(value: float, limit: float) -> float:
    inner = _SIZE - 2 * _MARGIN
    return _MARGIN + (value / limit) * inner


def render_diagram_svg(rows: Sequence[tuple[int, float, float]], title: str = "persistence diagram") -> str:
    limit = max([1e-9] + [max(b, d) for _, b, d in rows]) * 1.05
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<text x="{_SIZE / 2}" y="24" text-anchor="middle" font-size="14">{title}</text>',
    ]
    x0, y0 = _MARGIN, _SIZE - _MARGIN
    x1, y1 = _SIZE - _MARGIN, _MARGIN
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')  # x axis
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')  # y axis
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="#888" stroke-dasharray="4 3"/>'
    )
    parts.append(
        f'<text x="{x1}" y="{y0 + 18}" text-anchor="end" font-size="11">{limit:.4g}</text>'
    )
    parts.append(
        f'<text x="{x0 - 6}" y="{y1 + 4}" text-anchor="end" font-size="11">{limit:.4g}</text>'
    )
    parts.append(f'<text x="{(x0 + x1) / 2}" y="{_SIZE - 10}" text-anchor="middle" font-size="12">birth</text>')
    parts.append(
        f'<text x="14" y="{(y0 + y1) / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {(y0 + y1) / 2})">death</text>'
    )
    for dim, birth, death in rows:
        cx = _scale(birth, limit)
        cy = _SIZE - _scale(death, limit)
        color = _DIM_COLORS.get(dim, "#2ca02c")
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="{color}" fill-opacity="0.8">'
            f"<title>dim {dim}: ({birth!r}, {death!r})</title></circle>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_diagram_plot(
    rows: Sequence[tuple[int, float, float]],
    out_svg: Path,
    out_csv: Path,
    title: str = "persistence diagram",
) -> None:
    io.write_text(out_svg, render_diagram_svg(rows, title))
    lines = ["dim,birth,death\n"]
    lines += (f"{dim},{float(birth)!r},{float(death)!r}\n" for dim, birth, death in rows)
    io.write_text(Path(out_csv), "".join(lines))
