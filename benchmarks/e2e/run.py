"""Script entry point: ``python3 benchmarks/e2e/run.py ...``.

``BENCHMARK.json`` names this file, so the command works from the root
of a bare checkout without ``PYTHONPATH``; ``python -m benchmarks.e2e``
is the same program.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
