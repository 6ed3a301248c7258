"""Every output file goes through the one CSV and the one JSON writer in
`ric_cms.files`, so the format of each lives in one place."""

import math
import re
from pathlib import Path

import pytest

from ric_cms.files import write_json

SRC = Path(__file__).resolve().parents[1] / "src" / "ric_cms"

# json.dump or json.dumps, a csv writer, open() with a write, append,
# create or update mode, and pathlib's write helpers.
WRITES = re.compile(r"json\.dumps?\(|csv\.writer|\bopen\([^)]*['\"][rbt]*[wax+][rbt+]*['\"]|\.write_(text|bytes)\(")


def test_only_the_files_module_writes_files():
    offenders = [
        f"{path.name}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "files.py"
        for line in path.read_text().splitlines()
        if WRITES.search(line)
    ]
    # the one match outside files.py writes no file: the CLI's one-line JSON error on stderr
    assert offenders == ['cli.py: print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)']
    # the pattern still sees the writers' own two opens, csv.writer and json.dumps
    writer_lines = [line for line in (SRC / "files.py").read_text().splitlines() if WRITES.search(line)]
    assert len(writer_lines) == 4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_json_refuses_what_json_cannot_hold(tmp_path, bad):
    payload = {"a": 1, "median": bad}  # a key that would be written before the refusal
    with pytest.raises(ValueError, match="JSON compliant"):
        write_json(tmp_path / "x.json", payload)
    assert not (tmp_path / "x.json").exists()
    kept = tmp_path / "kept.json"
    write_json(kept, {"a": 1})
    before = kept.read_bytes()
    with pytest.raises(ValueError, match="JSON compliant"):
        write_json(kept, payload)
    assert kept.read_bytes() == before
