"""Make the benchmark's modules and the repository sources importable.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
