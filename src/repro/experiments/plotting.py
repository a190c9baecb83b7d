"""ASCII plotting helpers.

The offline environment this reproduction targets has no matplotlib, so the
figure benchmarks print their series both as tables and as simple ASCII
charts.  The charts are only meant for eyeballing the *shape* of a curve
(decay, crossover, plateau), which is exactly what the reproduction needs to
compare against the paper's figures.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: Symbols assigned to the successive series of a chart.
SERIES_MARKERS = "xo*#@+%&"


def ascii_chart(
    series: Dict[str, Sequence[Tuple[float, float]]],
    width: int = 70,
    height: int = 18,
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render one or more ``(x, y)`` series as a text scatter chart.

    Each series gets its own marker character; the legend at the bottom maps
    markers back to series names.  Values are scaled to the chart area using
    the global minima/maxima over all series.
    """
    points = [(x, y) for values in series.values() for x, y in values]
    if not points:
        return f"{title}\n(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span_x = max_x - min_x or 1.0
    span_y = max_y - min_y or 1.0

    canvas = [[" "] * width for _ in range(height)]
    for index, (name, values) in enumerate(series.items()):
        marker = SERIES_MARKERS[index % len(SERIES_MARKERS)]
        for x, y in values:
            column = int(round((x - min_x) / span_x * (width - 1)))
            row = int(round((y - min_y) / span_y * (height - 1)))
            canvas[height - 1 - row][column] = marker

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"{max_y:>12.2f} +" + "-" * width)
    for row in canvas:
        lines.append(" " * 13 + "|" + "".join(row))
    lines.append(f"{min_y:>12.2f} +" + "-" * width)
    lines.append(
        " " * 14 + f"{min_x:<12.1f}{x_label:^{max(1, width - 24)}}{max_x:>12.1f}"
    )
    legend = "   ".join(
        f"{SERIES_MARKERS[i % len(SERIES_MARKERS)]} = {name}"
        for i, name in enumerate(series)
    )
    lines.append("    legend: " + legend + f"   (y = {y_label})")
    return "\n".join(lines)

