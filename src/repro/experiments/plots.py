"""Terminal plotting: render figure series as ASCII charts."""
from __future__ import annotations


def line_plot(
    series: dict[str, list[float]],
    height: int = 12,
    title: str = "",
    y_label: str = "",
) -> str:
    """Multi-series ASCII line plot; all series share the x axis."""
    if not series:
        return title
    symbols = "*o+x#@"
    all_vals = [v for vs in series.values() for v in vs]
    lo, hi = min(all_vals), max(all_vals)
    span = hi - lo or 1.0
    width = max(len(vs) for vs in series.values())
    grid = [[" "] * width for _ in range(height)]
    for si, (name, vs) in enumerate(series.items()):
        sym = symbols[si % len(symbols)]
        for x, v in enumerate(vs):
            y = height - 1 - int((v - lo) / span * (height - 1))
            grid[y][x] = sym
    lines = []
    if title:
        lines.append(title)
    for yi, row in enumerate(grid):
        label = ""
        if yi == 0:
            label = f"{hi:8.3f} "
        elif yi == height - 1:
            label = f"{lo:8.3f} "
        else:
            label = " " * 9
        lines.append(label + "|" + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    legend = "  ".join(
        f"{symbols[i % len(symbols)]}={name}" for i, name in enumerate(series)
    )
    lines.append(" " * 10 + legend + (f"   [{y_label}]" if y_label else ""))
    return "\n".join(lines)
