"""The benchmark's own tests: ``python -m pytest bench/tests``.

The repository's tier-1 run collects only ``tests/``, so these stay out of
it; they need the program sources importable.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
for path in (str(REPO / "src"), str(REPO)):
    if path not in sys.path:
        sys.path.insert(0, path)
