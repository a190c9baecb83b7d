"""Tabular experiment results with CSV export.

All experiment drivers return an :class:`ExperimentResult`: an ordered list
of column names plus one dictionary per row.  That is enough to print the
series a paper figure plots, dump them to CSV for external plotting, or feed
them to the ASCII chart renderer.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro._sums import sequential_sum


@dataclass
class ExperimentResult:
    """A named table of experiment measurements."""

    name: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    description: str = ""

    def add_row(self, **values: object) -> None:
        """Append a row; values for unknown columns raise immediately."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)}; declared {self.columns}")
        self.rows.append(dict(values))

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> List[object]:
        """All values of one column, in row order (missing values become ``None``)."""
        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}; declared {self.columns}")
        return [row.get(name) for row in self.rows]

    def series(self, x: str, y: str) -> List[Tuple[float, float]]:
        """``(x, y)`` pairs for plotting, skipping rows where either is missing."""
        pairs = []
        for row in self.rows:
            if row.get(x) is None or row.get(y) is None:
                continue
            pairs.append((float(row[x]), float(row[y])))
        return pairs

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write the table to ``path`` as CSV and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=self.columns)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({column: row.get(column, "") for column in self.columns})
        return path

    def format(self, float_digits: int = 2, max_rows: Optional[int] = None) -> str:
        """Fixed-width text rendering of the table (used by benches and examples)."""
        rows = self.rows if max_rows is None else self.rows[:max_rows]
        rendered: List[List[str]] = [list(self.columns)]
        for row in rows:
            rendered_row = []
            for column in self.columns:
                value = row.get(column, "")
                if isinstance(value, float):
                    rendered_row.append(f"{value:.{float_digits}f}")
                else:
                    rendered_row.append(str(value))
            rendered.append(rendered_row)
        widths = [
            max(len(rendered_row[i]) for rendered_row in rendered)
            for i in range(len(self.columns))
        ]
        lines = []
        header = "  ".join(cell.rjust(width) for cell, width in zip(rendered[0], widths))
        lines.append(header)
        lines.append("  ".join("-" * width for width in widths))
        for rendered_row in rendered[1:]:
            lines.append(
                "  ".join(cell.rjust(width) for cell, width in zip(rendered_row, widths))
            )
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        title = f"== {self.name} =="
        if self.description:
            title += f"  ({self.description})"
        return title + "\n" + "\n".join(lines)


def average_dicts(dicts: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Element-wise mean of numeric dictionaries (used to average repeated trials).

    Non-numeric values are taken from the first dictionary unchanged.
    """
    if not dicts:
        raise ValueError("average_dicts() requires at least one dictionary")
    result: Dict[str, float] = {}
    keys = dicts[0].keys()
    for other in dicts[1:]:
        if other.keys() != keys:
            raise ValueError("all dictionaries must share the same keys")
    for key in keys:
        values = [d[key] for d in dicts]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            result[key] = sequential_sum(values) / len(values)
        else:
            result[key] = values[0]
    return result
