"""The cross-run result database (repro.experiments.sweep.results).

The ledger is the durable artifact and its own index — append-only JSONL
that tolerates torn tails, where ``latest`` is an identity's last line.
Rows round-trip through the exact codec, so recorded experiment tables
decode bit-identically.
"""

import json
import math

import pytest

from repro.experiments.sweep import ResultDB, resolve_result_db
from repro.experiments.tab8_full_apps import Tab8Row


@pytest.fixture
def db(tmp_path):
    return ResultDB(tmp_path / "db")


class TestAppendLatest:
    def test_roundtrip_dataclass_rows(self, db):
        rows = [Tab8Row(app="lammps", algorithm="density", dram_limit_gb=14,
                        speedup=1.0724563341178921, paper_speedup=1.09,
                        swaps=3)]
        db.append("tab8", rows, seed=11, params={"apps": ("lammps",)},
                  elapsed_s=1.5)
        record = db.latest("tab8", seed=11)
        assert record["rows"] == rows
        assert isinstance(record["rows"][0], Tab8Row)
        assert record["params"] == {"apps": ("lammps",)}
        assert record["elapsed_s"] == 1.5

    def test_float_rows_bit_exact(self, db):
        rows = [0.1 + 0.2, math.pi, 5e-324, 1.0 / 3.0]
        db.append("floats", rows)
        back = db.latest("floats")["rows"]
        assert [v.hex() for v in back] == [v.hex() for v in rows]

    def test_missing_identity_returns_none(self, db):
        assert db.latest("nope") is None
        db.append("exp", [1], seed=1)
        assert db.latest("exp", seed=2) is None
        assert db.latest("exp", label="other", seed=1) is None

    def test_last_append_wins(self, db):
        db.append("exp", ["old"], seed=3)
        db.append("exp", ["new"], seed=3)
        assert db.latest("exp", seed=3)["rows"] == ["new"]

    def test_latest_any_picks_newest_across_seeds(self, db):
        db.append("exp", ["s1"], seed=1)
        db.append("exp", ["s2"], seed=2)
        db.append("other", ["x"])
        assert db.latest_any("exp")["rows"] == ["s2"]
        assert db.latest_any("exp", label="nolabel") is None

    def test_experiments_lists_identities(self, db):
        db.append("a", [1], seed=1)
        db.append("a", [2], seed=1)  # same identity, no duplicate
        db.append("b", [3], label="lammps", seed=2)
        assert db.experiments() == [("a", "default", 1),
                                    ("b", "lammps", 2)]

    def test_records_oldest_first(self, db):
        for i in range(4):
            db.append("exp", [i], seed=i)
        assert [r["seed"] for r in db.records()] == [0, 1, 2, 3]


class TestTornLedger:
    def test_torn_tail_skipped(self, db):
        db.append("exp", ["good"], seed=1)
        with db.ledger.open("a") as fh:
            fh.write('{"version": 1, "experiment": "exp", "rows"')
        assert [r["rows"] for r in db.records()] == [["good"]]
        assert db.latest("exp", seed=1)["rows"] == ["good"]

    def test_foreign_version_skipped(self, db):
        db.append("exp", [1], seed=1)
        with db.ledger.open("a") as fh:
            fh.write(json.dumps({"version": 99, "experiment": "exp"}) + "\n")
        assert len(list(db.records())) == 1

    def test_empty_db(self, db):
        assert list(db.records()) == []
        assert db.latest("x") is None
        assert db.latest_any("x") is None
        assert db.experiments() == []


class TestResolve:
    def test_resolve_precedence(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_DB", raising=False)
        assert resolve_result_db(None) is None
        monkeypatch.setenv("REPRO_RESULT_DB", str(tmp_path / "envdb"))
        via_env = resolve_result_db(None)
        assert isinstance(via_env, ResultDB)
        assert via_env.root == tmp_path / "envdb"
        explicit = ResultDB(tmp_path / "mine")
        assert resolve_result_db(explicit) is explicit
        assert resolve_result_db(tmp_path / "path").root == tmp_path / "path"


class TestConcurrentAppend:
    """Two processes appending at once must never tear the ledger.

    Each record is a single ``write(2)`` on an ``O_APPEND`` descriptor,
    so interleaved writers from separate processes leave every line
    intact and every record findable, and ``latest`` returns each
    identity's last ledger line.
    """

    WRITER = """
import sys
sys.path.insert(0, {src!r})
from repro.experiments.sweep import ResultDB

db = ResultDB({root!r})
writer = int(sys.argv[1])
for i in range(40):
    # shared identity: both writers append to the same identity;
    # private identity: each writer's own latest must survive the race
    db.append("shared", [writer, i], seed=7,
              label="contended", params={{"writer": writer, "i": i}})
    db.append(f"private-{{writer}}", [i] * 50, seed=writer)
print("done", writer)
"""

    def _run_writers(self, db, n=2):
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        script = self.WRITER.format(src=src, root=str(db.root))
        procs = [
            subprocess.Popen([sys.executable, "-c", script, str(w)],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
            for w in range(n)
        ]
        for p in procs:
            out, err = p.communicate(timeout=120)
            assert p.returncode == 0, err.decode()

    def test_two_writers_interleaved(self, db):
        self._run_writers(db)

        # every line parses: no torn/interleaved records anywhere
        with db.ledger.open() as fh:
            lines = fh.readlines()
        assert len(lines) == 2 * 2 * 40
        for line in lines:
            record = json.loads(line)
            assert record["version"] == 1

        records = list(db.records())
        assert len(records) == 160
        shared = [r for r in records if r["experiment"] == "shared"]
        assert len(shared) == 80
        # all 40 appends from each writer survived
        for writer in range(2):
            mine = [r for r in shared if r["params"]["writer"] == writer]
            assert sorted(r["params"]["i"] for r in mine) == list(range(40))

    def test_index_points_at_latest_after_race(self, db):
        """``latest`` scans the ledger, its only index, after the race."""
        self._run_writers(db)

        # the contended identity resolves to the ledger's last "shared"
        # line, whichever writer appended it
        last_shared = [r for r in db.records()
                       if r["experiment"] == "shared"][-1]
        latest = db.latest("shared", label="contended", seed=7)
        assert latest["params"] == last_shared["params"]
        assert latest["rows"] == last_shared["rows"]

        # each private identity resolves to that writer's final append
        for writer in range(2):
            latest = db.latest(f"private-{writer}", seed=writer)
            assert latest["rows"] == [39] * 50
