"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload survey-f16 --seed 1 --seconds 30 --trace 0
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.driver import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
