"""Kill-and-reopen smoke test for the durable store (the CI durability job).

Builds a durable store, then for every WAL fault point hard-kills a
child process mid-commit (``REPRO_STORAGE_FAULT`` → ``os._exit(137)``)
and reopens the store, asserting the surviving state is *exactly* the
pre-batch or post-batch state — never a half-applied mixture — and that
``repro fsck`` agrees the store is healthy.  Then a rejected install
followed by a kill must leave a store that reopens (the bad triples
never reached the WAL).  Finishes with a clean compact + warm-reopen
cycle and verifies nothing leaked (no ``*.tmp`` files, no stale
``segments/gen-*`` directories, no ``active.seg``).

Usage::

    PYTHONPATH=src python scripts/storage_smoke.py
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.db import Database  # noqa: E402
from repro.storage import fsck_store  # noqa: E402
from repro.storage.wal import FAULT_ENV, FAULT_POINTS  # noqa: E402

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

_REJECTED = """
import os, sys
from repro.db import Database
from repro.errors import TriplestoreError
db = Database(path=sys.argv[1])
try:
    db.install("F", [("a", "p")])
except TriplestoreError:
    os._exit(137)   # killed right after the rejection, nothing closed
"""


def _run(script: str, store: str, fault: str | None = None) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    env.pop(FAULT_ENV, None)
    if fault is not None:
        env[FAULT_ENV] = fault
    proc = subprocess.run(
        [sys.executable, "-c", script, store],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode not in (0, 137):
        print(proc.stderr, file=sys.stderr)
    return proc.returncode


def _classify(store: str) -> str:
    db = Database(path=store)
    try:
        names = set(db.store.relation_names)
        e = db.store.relation("E")
        r = db.store.relation("R") if "R" in names else None
    finally:
        db.close()
    if e == PRE_E and r is None:
        return "PRE"
    if e == POST_E and r == POST_R:
        return "POST"
    return f"HALF(E={sorted(e)!r}, R={r!r})"


def main() -> int:
    failures = 0

    for fault in sorted(FAULT_POINTS):
        with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
            store = os.path.join(tmp, "store")
            if _run(_SETUP, store) != 0:
                print(f"FAIL {fault}: setup did not complete")
                failures += 1
                continue
            rc = _run(_MUTATE, store, fault=fault)
            if rc != 137:
                print(f"FAIL {fault}: child survived the fault (rc={rc})")
                failures += 1
                continue
            state = _classify(store)
            findings = fsck_store(store)
            if state.startswith("HALF") or findings:
                print(f"FAIL {fault}: state={state} findings={findings}")
                failures += 1
            else:
                print(f"ok   {fault}: {state}, fsck clean")

    # A rejected install, then a kill: the store must still open.
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        store = os.path.join(tmp, "store")
        rc = _run(_SETUP, store) or _run(_REJECTED, store)
        try:
            state = _classify(store) if rc == 137 else f"rc={rc}"
        except Exception as exc:
            state = f"reopen failed: {exc}"
        findings = fsck_store(store)
        if state != "PRE" or findings:
            print(f"FAIL rejected-install: {state} findings={findings}")
            failures += 1
        else:
            print("ok   rejected-install: nothing logged, store reopens, fsck clean")

    # A clean lifecycle: install → compact → warm reopen, nothing leaked.
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        store = os.path.join(tmp, "store")
        db = Database(path=store)
        db.install("E", [("a", "p", "b"), ("b", "p", "c")])
        db.query("join[1,2,3'; 3=1'](E, E)")
        db.close()
        db2 = Database(path=store)
        db2.query("join[1,2,3'; 3=1'](E, E)")
        hits = db2.cache_info()["plans"].hits
        db2.close()
        leaked_tmp = glob.glob(os.path.join(store, "**", "*.tmp"), recursive=True)
        gens = glob.glob(os.path.join(store, "segments", "gen-*"))
        derivable = glob.glob(os.path.join(store, "segments", "*", "active.seg"))
        if hits < 1:
            print(f"FAIL warm-reopen: expected a plan-cache hit, saw {hits}")
            failures += 1
        elif leaked_tmp or len(gens) != 1 or derivable:
            print(
                f"FAIL lifecycle: leaked tmp={leaked_tmp} generations={gens} "
                f"derivable segments={derivable}"
            )
            failures += 1
        else:
            print("ok   lifecycle: warm reopen hit the plan cache, no leaks")

    if failures:
        print(f"{failures} failure(s)", file=sys.stderr)
        return 1
    print("storage smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
