"""Put the benchmark modules and the iharalab sources on the import path.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))
