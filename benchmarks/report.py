"""The one writer of ``BENCH_perf.json``.

Every bench script owns one top-level section of the report and must
leave the others alone, whatever order the benches run in.
"""

from __future__ import annotations

import json
import pathlib


def merge_section(path: pathlib.Path, name: str, section: dict) -> None:
    """Set ``name`` to ``section`` in the JSON report at ``path``,
    keeping every other section.

    A missing file starts an empty report.  An unreadable or malformed
    one raises instead of being silently replaced, since replacing it
    would drop every other bench's measurements."""
    path = pathlib.Path(path)
    report = json.loads(path.read_text()) if path.exists() else {}
    if not isinstance(report, dict):
        raise ValueError(f"{path}: benchmark report is not a JSON object")
    report[name] = section
    path.write_text(json.dumps(report, indent=2) + "\n")
