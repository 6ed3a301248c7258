"""Every output file goes through the one CSV and the one JSON writer in
`ric_cms.files`, so the format of each lives in one place."""

import math
import re
from pathlib import Path

import pytest

from ric_cms.files import write_json

SRC = Path(__file__).resolve().parents[1] / "src" / "ric_cms"

# json.dump (not dumps), a csv writer, open() with a write, append,
# create or update mode, and pathlib's write helpers.
WRITES = re.compile(r"json\.dump\(|csv\.writer|\bopen\([^)]*['\"][rbt]*[wax+][rbt+]*['\"]|\.write_(text|bytes)\(")


def test_only_the_files_module_writes_files():
    offenders = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "files.py"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if WRITES.search(line)
    ]
    assert offenders == []
    # the pattern still sees the writers' own two opens, csv.writer and json.dump
    writer_lines = [line for line in (SRC / "files.py").read_text().splitlines() if WRITES.search(line)]
    assert len(writer_lines) == 4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_json_refuses_what_json_cannot_hold(tmp_path, bad):
    with pytest.raises(ValueError, match="JSON compliant"):
        write_json(tmp_path / "x.json", {"median": bad})
