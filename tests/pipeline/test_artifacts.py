"""The content-addressed artifact store (repro.pipeline.artifacts).

The store is a cache with a crash-safety contract: publish is atomic
(tmpdir + rename, existence keyed off ``payload.json``), so a SIGKILL at
any point mid-publish leaves either the complete artifact or nothing —
never a torn payload visible to readers — and an entry that does not
read back is replaced by the next publish.
"""

import json
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import dataclass

import pytest

from repro.errors import ConfigError
from repro.pipeline.artifacts import (
    ArtifactStore,
    artifact_key,
    reset_default_artifact_store,
    resolve_artifact_store,
)


@dataclass(frozen=True)
class DemoSpec:
    name: str
    limit: int
    rate: float


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


class TestKeys:
    def test_key_is_stable_and_sharded(self, store):
        spec = DemoSpec(name="minife", limit=12, rate=100.0)
        key = artifact_key("profile", spec)
        assert key == artifact_key("profile", spec)
        assert len(key) == 32
        store.put(key, {"x": 1})
        assert (store.root / key[:2] / key / "payload.json").exists()

    def test_key_varies_with_stage_and_spec(self):
        spec = DemoSpec(name="minife", limit=12, rate=100.0)
        base = artifact_key("profile", spec)
        assert artifact_key("trace-profile", spec) != base
        assert artifact_key("profile", DemoSpec("minife", 13, 100.0)) != base

    def test_unencodable_spec_rejected(self):
        with pytest.raises(ConfigError):
            artifact_key("profile", object())


class TestRoundTrip:
    def test_payload_types_roundtrip_exactly(self, store):
        payload = {
            "floats": [0.1 + 0.2, math.pi, 5e-324, -0.0],
            "tuple": (1, ("a", 2.5)),
            "spec": DemoSpec(name="x", limit=1, rate=0.5),
            "none": None,
        }
        key = artifact_key("t", "spec")
        store.put(key, payload)
        back = store.get(key)
        assert back["tuple"] == (1, ("a", 2.5))
        assert isinstance(back["spec"], DemoSpec)
        assert [v.hex() for v in back["floats"]] == \
            [v.hex() for v in payload["floats"]]

    def test_missing_is_a_miss(self, store):
        assert store.get("ff" + "0" * 30) is None
        assert store.misses == 1
        assert not store.contains("ff" + "0" * 30)

    def test_duplicate_put_is_noop(self, store):
        key = artifact_key("t", 1)
        store.put(key, {"v": "first"})
        store.put(key, {"v": "second"})  # loser keeps the first bytes
        assert store.get(key) == {"v": "first"}
        assert store.puts == 1

    def test_hit_accounting(self, store):
        key = artifact_key("t", 2)
        assert store.get(key) is None
        store.put(key, [1, 2])
        assert store.get(key) == [1, 2]
        assert (store.hits, store.misses, store.puts) == (1, 1, 1)


class TestCorruption:
    def test_torn_payload_is_a_miss(self, store):
        key = artifact_key("t", 3)
        store.put(key, {"v": 1})
        path = store.root / key[:2] / key / "payload.json"
        path.write_text(path.read_text()[:10])
        assert store.get(key) is None

    def test_foreign_version_is_a_miss(self, store):
        key = artifact_key("t", 4)
        store.put(key, {"v": 1})
        path = store.root / key[:2] / key / "payload.json"
        path.write_text(json.dumps({"version": 99, "payload": {"v": 1}}))
        assert store.get(key) is None

    @pytest.mark.parametrize("damage", ["torn", "foreign-version"])
    def test_put_replaces_entry_that_does_not_read_back(self, store, damage):
        key = artifact_key("t", 6)
        store.put(key, {"v": 1})
        path = store.root / key[:2] / key / "payload.json"
        if damage == "torn":
            path.write_text(path.read_text()[:10])
        else:
            path.write_text(json.dumps({"version": 99, "payload": {"v": 1}}))
        assert store.get(key) is None
        store.put(key, {"v": 1})
        assert store.puts == 2
        assert store.get(key) == {"v": 1}
        # the damaged entry was moved aside and removed, not left as litter
        assert sorted(p.name for p in path.parent.parent.iterdir()) == [key]

    def test_unencodable_payload_raises(self, store):
        with pytest.raises(ConfigError):
            store.put(artifact_key("t", 5), object())


class TestCrashSafety:
    def test_sigkill_mid_publish_leaves_no_torn_artifact(self, tmp_path):
        """Kill -9 halfway through writing payload.json: readers must see
        nothing, and a later publish of the same key must succeed."""
        root = tmp_path / "artifacts"
        key = artifact_key("crash", {"spec": 1})
        script = textwrap.dedent(f"""
            import os
            from pathlib import Path
            from repro.pipeline.artifacts import ArtifactStore
            real_write = Path.write_text
            def dying_write(self, text, *a, **kw):
                real_write(self, text[: len(text) // 2])
                os.kill(os.getpid(), 9)
            Path.write_text = dying_write
            ArtifactStore({str(root)!r}).put({key!r}, {{"v": [1.5, 2.5]}})
        """)
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              cwd=os.path.dirname(os.path.dirname(
                                  os.path.dirname(os.path.abspath(__file__)))))
        assert proc.returncode == -9

        store = ArtifactStore(root)
        assert not store.contains(key)
        assert store.get(key) is None
        # no half-published directory is visible at the final path
        assert not (root / key[:2] / key).exists()
        # the orphaned tmpdir does not block a later publish
        store.put(key, {"v": [1.5, 2.5]})
        assert store.get(key) == {"v": [1.5, 2.5]}


class TestResolve:
    def test_resolve_precedence(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_ARTIFACT_DIR", raising=False)
        reset_default_artifact_store()
        assert resolve_artifact_store(None) is None
        explicit = ArtifactStore(tmp_path / "mine")
        assert resolve_artifact_store(explicit) is explicit
        assert resolve_artifact_store(tmp_path / "p").root == tmp_path / "p"
        # an empty explicit path would root the store at the cwd
        for empty in ("", "  "):
            with pytest.raises(ConfigError, match="empty path"):
                resolve_artifact_store(empty)
        # ...while an empty environment variable means off
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", "")
        assert resolve_artifact_store(None) is None
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "env"))
        via_env = resolve_artifact_store(None)
        assert via_env is not None
        assert via_env.root == tmp_path / "env"
        # same root -> same instance, counters accumulate across calls
        assert resolve_artifact_store(None) is via_env
        reset_default_artifact_store()
