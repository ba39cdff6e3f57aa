"""The persisted catalog: statistics and compiled plans for warm reopen.

Both files live under ``<store>/catalog/`` and are pure caches — they
make a reopened database *fast*, never *correct*.  A missing, stale or
unreadable catalog degrades to a cold start; it is never a reason to
refuse opening a store (``repro fsck`` still reports catalog corruption
so operators notice).

``stats.json`` holds the per-relation :class:`RelationStats` computed
during the closing session, each stamped with the relation's dependency
version.  On open, entries whose version still matches seed the new
store's lazy stats catalog — the cost-based planner starts with real
cardinalities instead of recounting.

``plans.bin`` holds a pickle of the plan-cache entries
``((canonical_expr, dep_token, backend), plan)`` stamped with
:data:`PLAN_FORMAT`.  It holds *live* plans only: a commit evicts the
plans it killed from the session cache, so what a close writes is what
can still be hit.  On open, entries are seeded only when the plan
format matches, the backend matches the session's, and the embedded
dependency token is *current* — i.e. equal to what
``Database._dep_token`` would produce now (after a clean close that is
every entry of the session's backend; the check is what keeps a file
written before a crash, or by an older build, safe).  Relation versions
are replayed deterministically from manifest + WAL, so a clean
close/reopen round-trip preserves the tokens and the first query of
the new process hits the plan cache.
"""

from __future__ import annotations

import json
import os
import pickle
from typing import TYPE_CHECKING, Any, Mapping

from repro.storage.fsutil import atomic_write_bytes
from repro.triplestore.stats import RelationStats

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, typing only
    from repro.db import Database

__all__ = [
    "CATALOG_DIR",
    "PLAN_FORMAT",
    "load_plans",
    "load_stats",
    "save_catalog",
    "verify_catalog",
]

CATALOG_DIR = "catalog"
_STATS = "stats.json"
_PLANS = "plans.bin"

#: Version of the compiled-plan representation this build emits.  Bump
#: whenever plan operators / specs change shape incompatibly — stale
#: ``plans.bin`` files are then ignored wholesale instead of unpickling
#: into nonsense.
PLAN_FORMAT = 2


def _stats_path(root: str) -> str:
    return os.path.join(root, CATALOG_DIR, _STATS)


def _plans_path(root: str) -> str:
    return os.path.join(root, CATALOG_DIR, _PLANS)


def _token_current(db: "Database", token: Any) -> bool:
    """Whether a persisted dependency token matches the live versions."""
    if not isinstance(token, tuple):
        return False
    if len(token) == 2 and token[0] == "U":
        return token[1] == db._store_version
    try:
        return all(db._rel_versions.get(name, 0) == ver for name, ver in token)
    except (TypeError, ValueError):
        return False


def save_catalog(root: str | os.PathLike, db: "Database") -> None:
    """Persist the session's statistics and plan cache beside the segments.

    Unpicklable plan entries (exotic engines) are skipped individually;
    a failure to persist is never an error — the catalog is a cache.
    """
    root = os.fspath(root)
    os.makedirs(os.path.join(root, CATALOG_DIR), exist_ok=True)
    computed = db.store.stats().computed()
    stats_doc = {
        "format": PLAN_FORMAT,
        "store_version": db._store_version,
        "relations": {
            s.name: {
                "cardinality": s.cardinality,
                "distinct": list(s.distinct),
                "version": db._rel_versions.get(s.name, 0),
            }
            for s in computed.values()
        },
    }
    atomic_write_bytes(
        _stats_path(root), json.dumps(stats_doc, indent=2, sort_keys=True).encode()
    )
    entries = []
    for key, plan in db._plans.snapshot():
        try:
            entries.append(pickle.dumps((key, plan), protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            continue  # plans are caches; an unpicklable one is just not saved
    # The session's own entries are all live — a commit evicts the plans
    # it killed.  Keep other backends' persisted plans that are too: a
    # columnar session closing must not evict the set session's warm
    # entries, nor carry its dead ones along.
    try:
        with open(_plans_path(root), "rb") as fp:
            old = pickle.loads(fp.read())
    except Exception:
        old = None
    if isinstance(old, dict) and old.get("format") == PLAN_FORMAT:
        for blob in old.get("entries", ()):
            try:
                key, _plan = pickle.loads(blob)
            except Exception:
                continue
            if (
                isinstance(key, tuple)
                and len(key) == 3
                and key[2] != db.backend
                and _token_current(db, key[1])
            ):
                entries.append(blob)
    payload = pickle.dumps(
        {"format": PLAN_FORMAT, "entries": entries},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    atomic_write_bytes(_plans_path(root), payload)


def load_stats(root: str | os.PathLike, db: "Database") -> int:
    """Seed the store's stats catalog from ``stats.json``; returns the
    number of relations seeded (0 on any staleness or damage)."""
    root = os.fspath(root)
    try:
        with open(_stats_path(root), "rb") as fp:
            doc = json.loads(fp.read())
    except (OSError, ValueError):
        return 0
    if not isinstance(doc, dict) or doc.get("format") != PLAN_FORMAT:
        return 0
    relations = doc.get("relations")
    if not isinstance(relations, dict):
        return 0
    seeded = []
    names = set(db.store.relation_names)
    for name, entry in relations.items():
        try:
            if name not in names:
                continue
            if entry["version"] != db._rel_versions.get(name, 0):
                continue
            distinct = tuple(int(d) for d in entry["distinct"])
            if len(distinct) != 3:
                continue
            seeded.append(RelationStats(name, int(entry["cardinality"]), distinct))
        except (KeyError, TypeError, ValueError):
            continue
    if seeded:
        db.store.stats().seed(seeded)
    return len(seeded)


def load_plans(root: str | os.PathLike, db: "Database") -> int:
    """Seed the session's plan cache from ``plans.bin``; returns the
    number of entries seeded (0 on any staleness or damage)."""
    root = os.fspath(root)
    try:
        with open(_plans_path(root), "rb") as fp:
            doc = pickle.loads(fp.read())
    except Exception:
        return 0
    if not isinstance(doc, dict) or doc.get("format") != PLAN_FORMAT:
        return 0
    count = 0
    for blob in doc.get("entries", ()):
        try:
            key, plan = pickle.loads(blob)
        except Exception:
            continue
        if not (isinstance(key, tuple) and len(key) == 3):
            continue
        canonical, token, backend = key
        if backend != db.backend or not _token_current(db, token):
            continue
        db._plans.get(key, lambda plan=plan: plan)
        count += 1
    return count


def verify_catalog(root: str | os.PathLike) -> list[str]:
    """Integrity problems in the catalog files (for ``repro fsck``).

    A *missing* catalog is healthy (cold store); an unreadable one is
    reported — it will be ignored at open time, but an operator should
    know it is being ignored.
    """
    root = os.fspath(root)
    problems: list[str] = []
    spath = _stats_path(root)
    if os.path.exists(spath):
        try:
            with open(spath, "rb") as fp:
                doc = json.loads(fp.read())
            if not isinstance(doc, dict):
                problems.append(f"{spath} does not hold a JSON object")
        except (OSError, ValueError) as exc:
            problems.append(f"{spath} is unreadable: {exc}")
    ppath = _plans_path(root)
    if os.path.exists(ppath):
        try:
            with open(ppath, "rb") as fp:
                doc = pickle.loads(fp.read())
            if not isinstance(doc, dict) or "entries" not in doc:
                problems.append(f"{ppath} does not hold a plan-cache document")
        except Exception as exc:
            problems.append(f"{ppath} is unreadable: {exc}")
    return problems
