"""Self-tests of the benchmark: ``python -m pytest perfbench`` from the
repository root. The program is imported from ``src/`` as the benchmark
itself does."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
