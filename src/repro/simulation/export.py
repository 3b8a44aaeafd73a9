"""Result export: CSV and JSON writers for experiment rows."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.errors import ConfigurationError

PathLike = Union[str, Path]


def _collect_columns(rows: Sequence[Dict]) -> List[str]:
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def write_csv(rows: Sequence[Dict], path: PathLike) -> Path:
    """Write dict rows to ``path`` as CSV; returns the path written.

    Column order follows first appearance across the rows; missing
    cells are left empty.
    """
    if not rows:
        raise ConfigurationError("cannot export an empty row set")
    target = Path(path)
    columns = _collect_columns(rows)
    with target.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return target


def write_json(rows: Sequence[Dict], path: PathLike, indent: int = 2) -> Path:
    """Write dict rows to ``path`` as a JSON array."""
    if not rows:
        raise ConfigurationError("cannot export an empty row set")
    target = Path(path)
    with target.open("w") as handle:
        json.dump(list(rows), handle, indent=indent, default=_jsonable)
        handle.write("\n")
    return target


def _jsonable(value):
    if isinstance(value, Path):
        return str(value)
    if hasattr(value, "__dict__"):
        return vars(value)
    return str(value)
