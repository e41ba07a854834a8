"""Cross-process byte stability of the serialized format.

The store's content addressing only works if encoding the same
analysis always produces the same bytes — across processes, hash
seeds, and repeated runs.  This drives the 76-program golden corpus
(the suite, ``livc``, the perfsuite's ``relay``/``fanout`` and the
soundness-fuzz programs, which share the most rows) through
``encode_analysis_bytes`` in two separate interpreters with different
``PYTHONHASHSEED`` values and compares digests.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

DIGEST_SCRIPT = """
import hashlib, json, sys
from repro.core.analysis import analyze_source
from repro.service.serialize import encode_analysis_bytes
from tests.interp.test_golden_digests import corpus

digests = {}
for name, source in corpus().items():
    payload = encode_analysis_bytes(
        analyze_source(source, filename=name), name=name, source=source
    )
    digests[name] = hashlib.sha256(payload).hexdigest()
json.dump(digests, sys.stdout)
"""


def suite_digests(hash_seed: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", DIGEST_SCRIPT],
        capture_output=True,
        text=True,
        env={
            "PYTHONPATH": f"{ROOT / 'src'}:{ROOT}",
            "PYTHONHASHSEED": hash_seed,
            "PATH": "",
        },
        check=True,
    )
    return json.loads(proc.stdout)


def test_suite_encoding_stable_across_processes():
    first = suite_digests("0")
    second = suite_digests("424242")
    assert first == second
    assert len(first) == 76  # really covered the corpus


def test_repeated_encoding_in_one_process_stable():
    from repro.benchsuite import BENCHMARKS
    from repro.core.analysis import analyze_source
    from repro.service.serialize import encode_analysis_bytes

    name = "misr"
    source = BENCHMARKS[name].source
    digests = {
        hashlib.sha256(
            encode_analysis_bytes(
                analyze_source(source, filename=name),
                name=name,
                source=source,
            )
        ).hexdigest()
        for _ in range(3)
    }
    assert len(digests) == 1
