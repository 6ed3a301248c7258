"""The package's two output formats, each written in one place.

CSV files use the csv module's default dialect (comma-separated, CRLF
row ends).  JSON files are indented by 2 with sorted keys and end in one
newline, so the same payload always gives the same bytes; a NaN or an
infinity, which JSON cannot hold, is a ValueError that leaves no file.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def write_json(path: str | Path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)  # refused before the file is opened
    with open(path, "w") as f:
        f.write(text + "\n")
