"""ASCII rendering of the virtual grid.

matplotlib is deliberately not a dependency of this reproduction (the target
environment is offline), so the structural figures of the paper — the virtual
grid with per-cell node counts (Figure 1(a)), the directed Hamilton cycle
(Figure 1(b)) and the dual-path construction (Figure 4) — are rendered as
text.  Rows are printed with the largest ``y`` on top so the output matches
the paper's orientation (the origin cell ``(0, 0)`` is bottom-left).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.grid.virtual_grid import GridCoord, VirtualGrid

#: Arrows used to draw the direction towards the successor cell.
_ARROWS = {
    (0, 1): "^",
    (0, -1): "v",
    (1, 0): ">",
    (-1, 0): "<",
}


def _render_cells(
    grid: VirtualGrid, cell_text: Callable[[GridCoord], str], cell_width: int
) -> str:
    """Shared layout: one bordered row of cells per grid row, top row first."""
    horizontal = "+" + ("-" * cell_width + "+") * grid.columns
    lines: List[str] = [horizontal]
    for y in range(grid.rows - 1, -1, -1):
        row_cells = []
        for x in range(grid.columns):
            text = cell_text(GridCoord(x, y))
            row_cells.append(text[:cell_width].center(cell_width))
        lines.append("|" + "|".join(row_cells) + "|")
        lines.append(horizontal)
    return "\n".join(lines)


def render_occupancy(state, cell_width: int = 5) -> str:
    """Per-cell enabled-node counts, holes marked with ``.`` (Figure 1(a) style)."""
    occupancy = state.occupancy()

    def text(coord: GridCoord) -> str:
        """The label rendered inside one cell."""
        count = occupancy[coord]
        return "." if count == 0 else str(count)

    return _render_cells(state.grid, text, cell_width)


def render_roles(state, cell_width: int = 5) -> str:
    """Heads (``H``), spare counts (``+k``) and holes (``.``) per cell."""

    def text(coord: GridCoord) -> str:
        """The label rendered inside one cell."""
        if state.is_vacant(coord):
            return "."
        spares = state.member_count(coord) - 1
        return "H" if spares == 0 else f"H+{spares}"

    return _render_cells(state.grid, text, cell_width)


def render_cycle(cycle, cell_width: int = 5) -> str:
    """Directed Hamilton cycle: each cell shows its order index and the out-arrow.

    Reproduces the information content of the paper's Figure 1(b): the cell
    visiting order and the direction of node movement along the cycle.
    """
    order = cycle.order()
    position: Dict[GridCoord, int] = {coord: i for i, coord in enumerate(order)}

    def text(coord: GridCoord) -> str:
        """The label rendered inside one cell."""
        index = position[coord]
        successor = order[(index + 1) % len(order)]
        delta = (successor.x - coord.x, successor.y - coord.y)
        arrow = _ARROWS.get(delta, "*")
        return f"{index}{arrow}"

    return _render_cells(cycle.grid, text, cell_width)


def render_dual_paths(cycle, cell_width: int = 7) -> str:
    """The dual-path construction: role letters A/B/C/D plus chain order (Figure 4)."""
    roles = {
        cycle.cell_a: "A",
        cycle.cell_b: "B",
        cycle.cell_c: "C",
        cycle.cell_d: "D",
    }
    chain = cycle.shared_chain()
    chain_index = {coord: i for i, coord in enumerate(chain)}

    def text(coord: GridCoord) -> str:
        """The label rendered inside one cell."""
        label = roles.get(coord, "")
        if coord in chain_index:
            suffix = str(chain_index[coord])
            return f"{label}{suffix}" if label else suffix
        return label

    return _render_cells(cycle.grid, text, cell_width)


def render_path_overlay(
    grid: VirtualGrid, path: Sequence[GridCoord], cell_width: int = 5
) -> str:
    """Render an arbitrary cell path (e.g. one cascade) as order indices over the grid."""
    position = {coord: i for i, coord in enumerate(path)}

    def text(coord: GridCoord) -> str:
        """The label rendered inside one cell."""
        index = position.get(coord)
        return "" if index is None else str(index)

    return _render_cells(grid, text, cell_width)
