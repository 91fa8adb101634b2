"""Golden outputs: every result the benchmark sees, checked bit for bit.

``bench/golden.json`` maps a catalogue identity (which input, not which
run produced it) to the program's output for that input, pinned from
the seed commit with ``python3 bench/run.py --pin``.  Floats go through
JSON's shortest round-trip repr, so equality here is float equality.
A change that claims a speed-up must never re-pin: a mismatch means the
program computes something else, and the benchmark exits 1.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, Tuple

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def digest(text: str) -> str:
    """Short content digest of a report's text."""
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def canonical(value: object) -> object:
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def load(path: Path = GOLDEN_PATH) -> Dict[str, object]:
    with open(path) as fh:
        return json.load(fh)


def write(entries: Dict[str, object], path: Path = GOLDEN_PATH) -> None:
    """One entry per line, keys sorted, so a re-pin diffs readably."""
    lines = [f"{json.dumps(k)}: {json.dumps(entries[k], sort_keys=True)}"
             for k in sorted(entries)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


class Checker:
    """Compares outputs with the golden file and counts mismatches."""

    def __init__(self, entries: Dict[str, object]):
        self.entries = entries
        self.checked = 0
        self.mismatches: Dict[str, Tuple[object, object]] = {}

    def check(self, key: str, value: object) -> bool:
        self.checked += 1
        got = canonical(value)
        want = self.entries.get(key, "<missing>")
        if got == want:
            return True
        self.mismatches.setdefault(key, (want, got))
        return False

    def matches(self, pairs: Iterable[Tuple[str, object]]) -> bool:
        """Check every (key, value) of one output; True if all match."""
        results = [self.check(key, value) for key, value in pairs]
        return all(results)
