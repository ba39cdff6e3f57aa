"""Crash recovery: kill-mid-commit differential and WAL corruption fuzzing.

The differential test hard-kills a child process (``os._exit`` via the
``REPRO_STORAGE_FAULT`` hook) at every interesting point inside
``WriteAheadLog.append`` and asserts the reopened store holds *exactly*
the pre-batch or the post-batch state — never a half-applied mixture.

The fuzz test truncates or flips bytes at seeded-random offsets of a
multi-record WAL and asserts reopen either replays a consistent prefix
of the committed batches or refuses cleanly with
:class:`StoreCorruptionError`.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro.db import Database
from repro.errors import StoreCorruptionError
from repro.storage import DurableStore, fsck_store
from repro.storage.wal import FAULT_ENV, FAULT_POINTS

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PRE_E = frozenset({("a", "p", "b")})
POST_E = frozenset({("a", "p", "b"), ("x", "q", "y")})
POST_R = frozenset({("r", "s", "t")})

_SETUP = """
import sys
from repro.db import Database
db = Database(path=sys.argv[1])
db.install("E", [("a", "p", "b")])
db.close()
"""

_MUTATE = """
import sys
from repro.db import Database
db = Database(path=sys.argv[1])
with db.batch():
    db.install("E", [("a", "p", "b"), ("x", "q", "y")])
    db.install("R", [("r", "s", "t")])
db.close()
"""


def _run(script: str, store: str, *, fault: str | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    env.pop(FAULT_ENV, None)
    if fault is not None:
        env[FAULT_ENV] = fault
    return subprocess.run(
        [sys.executable, "-c", script, store],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _observed_state(store_path: str) -> tuple[frozenset, frozenset | None]:
    ds = DurableStore(store_path)
    try:
        reopened = ds.open()
        names = set(reopened.relation_names)
        e = reopened.relation("E")
        r = reopened.relation("R") if "R" in names else None
        return e, r
    finally:
        ds.close()


class TestKillMidCommit:
    @pytest.mark.parametrize("fault", sorted(FAULT_POINTS))
    def test_reopen_sees_exactly_pre_or_post_batch(self, tmp_path, fault):
        store = str(tmp_path / "store")
        setup = _run(_SETUP, store)
        assert setup.returncode == 0, setup.stderr

        mutate = _run(_MUTATE, store, fault=fault)
        assert mutate.returncode == 137, (
            f"fault {fault} did not kill the child: rc={mutate.returncode} "
            f"stderr={mutate.stderr}"
        )

        e, r = _observed_state(store)
        if e == PRE_E and r is None:
            state = "PRE"
        elif e == POST_E and r == POST_R:
            state = "POST"
        else:
            pytest.fail(f"fault {fault} left a half-applied state: E={e!r} R={r!r}")

        # Faults before the record hits disk must lose the batch; faults
        # after the fsync must preserve it (the commit pointer is only an
        # acknowledgement — durable records past it are promoted).
        expected = "PRE" if fault in ("wal-before-record", "wal-mid-record") else "POST"
        assert state == expected, f"fault {fault}: expected {expected}, saw {state}"

    def test_no_fault_control_run(self, tmp_path):
        store = str(tmp_path / "store")
        assert _run(_SETUP, store).returncode == 0
        assert _run(_MUTATE, store).returncode == 0
        e, r = _observed_state(store)
        assert e == POST_E and r == POST_R


_SETUP_EF = """
import sys
from repro.db import Database
db = Database(path=sys.argv[1])
db.install("E", [("a", "p", "b")])
db.install("F", [("f", "g", "h")])
db.close()
"""

_INSTALL_AND_EXIT = """
import os, sys
from repro.db import Database
db = Database(path=sys.argv[1])
db.install("E", [("x", "q", "y")])
os._exit(0)
"""


class TestLostManifest:
    def test_a_store_whose_wal_committed_is_not_reinitialised(self, tmp_path):
        store = str(tmp_path / "store")
        assert _run(_SETUP_EF, store).returncode == 0
        assert _run(_INSTALL_AND_EXIT, store).returncode == 0
        manifest = os.path.join(store, "MANIFEST")
        os.remove(manifest)
        with pytest.raises(StoreCorruptionError, match="no MANIFEST"):
            Database(path=store)
        assert not os.path.exists(manifest)  # nothing was laid down over it
        assert [f.rule for f in fsck_store(store)] == ["STOR-MANIFEST"]

    def test_a_directory_that_never_committed_is_initialised(self, tmp_path):
        store = str(tmp_path / "store")
        ds = DurableStore(store)
        ds.open()
        ds.close()
        os.remove(os.path.join(store, "MANIFEST"))  # as a crash mid-initialisation
        with Database(path=store) as db:
            db.install("E", [("a", "p", "b")])
        assert fsck_store(store) == []


class TestWalFuzz:
    BATCHES = [
        {"E": (("a", "p", "b"),)},
        {"E": (("a", "p", "b"), ("b", "p", "c")), "R": (("r", "s", "t"),)},
        {"S": (("s1", "s2", "s3"),)},
        {"E": (("z", "z", "z"),)},
    ]

    def _build(self, root: str) -> list[dict[str, frozenset]]:
        """Write a store whose WAL holds all batches; return prefix states."""
        ds = DurableStore(root)
        ds.open()
        for batch in self.BATCHES:
            ds.commit({k: frozenset(v) for k, v in batch.items()})
        ds.close()
        states: list[dict[str, frozenset]] = [{}]
        acc: dict[str, frozenset] = {}
        for batch in self.BATCHES:
            acc = dict(acc)
            for name, triples in batch.items():
                acc[name] = frozenset(triples)
            states.append(acc)
        return states

    @staticmethod
    def _state_of(store) -> dict[str, frozenset]:
        return {name: store.relation(name) for name in store.relation_names}

    @pytest.mark.parametrize("seed", range(24))
    def test_random_truncate_or_corrupt_never_half_applies(self, tmp_path, seed):
        root = str(tmp_path / "store")
        prefix_states = self._build(root)
        wal_log = os.path.join(root, "wal", "wal.log")
        size = os.path.getsize(wal_log)
        assert size > 0

        rng = random.Random(seed)
        offset = rng.randrange(size)
        mode = rng.choice(("truncate", "flip"))
        if mode == "truncate":
            with open(wal_log, "r+b") as fp:
                fp.truncate(offset)
        else:
            with open(wal_log, "r+b") as fp:
                fp.seek(offset)
                byte = fp.read(1)
                fp.seek(offset)
                fp.write(bytes([byte[0] ^ 0xFF]))

        ds = DurableStore(root)
        try:
            store = ds.open()
        except StoreCorruptionError:
            return  # clean refusal is an accepted outcome
        try:
            state = self._state_of(store)
            assert state in prefix_states, (
                f"seed={seed} mode={mode} offset={offset}: state {state!r} "
                f"is not a consistent prefix of the committed batches"
            )
        finally:
            ds.close()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_garbage_tail_is_harmless(self, tmp_path, seed):
        root = str(tmp_path / "store")
        prefix_states = self._build(root)
        wal_log = os.path.join(root, "wal", "wal.log")
        rng = random.Random(1000 + seed)
        with open(wal_log, "ab") as fp:
            fp.write(bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64))))
        ds = DurableStore(root)
        try:
            store = ds.open()
            assert self._state_of(store) == prefix_states[-1]
        finally:
            ds.close()
