"""Script entry point of the end-to-end benchmark (see cli.py)::

    python3 benchmarks/e2e/run.py --workload replay --seed 3 \
        --seconds 25 --trace 0
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
