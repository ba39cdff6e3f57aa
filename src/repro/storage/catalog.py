"""The persisted catalog: statistics and query texts for warm reopen.

``<store>/catalog/catalog.json`` is a pure cache — it makes a reopened
database *fast*, never *correct*.  A missing, stale or unreadable
catalog degrades to a cold start; it is never a reason to refuse
opening a store (``repro fsck`` still reports a damaged one so
operators notice).  It is data: nothing in it runs on load.

``relations`` holds the per-relation :class:`RelationStats` computed
during the closing session, each stamped with the relation's dependency
version.  On open, entries whose version still matches seed the new
store's lazy stats catalog — the cost-based planner starts with real
cardinalities instead of recounting.

``plans`` holds the text of each canonical expression in the closing
session's plan cache, in LRU order.  TriAL is closed under its textual
syntax (``parse(repr(e)) == e``), so on open each text is parsed and
planned through the session's own plan cache: the session's engine
builds every plan against the current store, and the first query of
the new process hits the cache.  A text that does not parse or plan is
skipped.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any

from repro.core.parser import parse as parse_expr
from repro.errors import ReproError
from repro.storage.fsutil import atomic_write_bytes
from repro.triplestore.stats import RelationStats

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, typing only
    from repro.db import Database

__all__ = [
    "CATALOG_DIR",
    "load_plans",
    "load_stats",
    "save_catalog",
    "verify_catalog",
]

CATALOG_DIR = "catalog"
_CATALOG = "catalog.json"


def _path(root: str | os.PathLike) -> str:
    return os.path.join(os.fspath(root), CATALOG_DIR, _CATALOG)


def save_catalog(root: str | os.PathLike, db: "Database") -> None:
    """Persist the session's statistics and plan-cache texts beside the
    segments; the files an older build kept there instead are removed."""
    directory = os.path.join(os.fspath(root), CATALOG_DIR)
    os.makedirs(directory, exist_ok=True)
    doc = {
        "relations": {
            s.name: {
                "cardinality": s.cardinality,
                "distinct": list(s.distinct),
                "version": db._rel_versions.get(s.name, 0),
            }
            for s in db.store.stats().computed().values()
        },
        "plans": [repr(expr) for (expr, _token), _plan in db._plans.snapshot()],
    }
    atomic_write_bytes(_path(root), json.dumps(doc, sort_keys=True).encode())
    with os.scandir(directory) as entries:
        for entry in entries:
            if entry.name != _CATALOG and entry.is_file():
                os.remove(entry.path)


def _count(value: Any) -> bool:
    return type(value) is int and 0 <= value < 2**63


def _is_stats(entry: Any) -> bool:
    return (
        isinstance(entry, dict)
        and _count(entry.get("cardinality"))
        and _count(entry.get("version"))
        and isinstance(entry.get("distinct"), list)
        and len(entry["distinct"]) == 3
        and all(map(_count, entry["distinct"]))
    )


def _read(root: str | os.PathLike) -> tuple[dict | None, str | None]:
    """``(document, None)``, or ``(None, why)`` for a damaged catalog;
    ``(None, None)`` when there is none."""
    path = _path(root)
    try:
        with open(path, "rb") as fp:
            doc = json.loads(fp.read())
    except FileNotFoundError:
        return None, None
    except (OSError, ValueError, RecursionError) as exc:
        return None, f"{path} is unreadable: {exc}"
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("relations"), dict)
        and all(map(_is_stats, doc["relations"].values()))
        and isinstance(doc.get("plans"), list)
        and all(isinstance(text, str) for text in doc["plans"])
    ):
        return None, (
            f"{path} does not hold a catalog: an object of per-relation "
            "statistics and a list of plan texts"
        )
    return doc, None


def load_stats(root: str | os.PathLike, db: "Database") -> int:
    """Seed the store's stats catalog; returns the number of relations
    seeded (0 on any staleness or damage)."""
    doc, _problem = _read(root)
    if doc is None:
        return 0
    names = set(db.store.relation_names)
    seeded = [
        RelationStats(name, entry["cardinality"], tuple(entry["distinct"]))
        for name, entry in doc["relations"].items()
        if name in names and entry["version"] == db._rel_versions.get(name, 0)
    ]
    if seeded:
        db.store.stats().seed(seeded)
    return len(seeded)


def load_plans(root: str | os.PathLike, db: "Database") -> int:
    """Plan every persisted text through the session's plan cache;
    returns the number planned (0 on damage)."""
    doc, _problem = _read(root)
    if doc is None:
        return 0
    count = 0
    for text in doc["plans"]:
        try:
            db._cached_plan(parse_expr(text))
        except (ReproError, RecursionError):
            continue  # a text this session cannot plan is only not warm
        count += 1
    return count


def verify_catalog(root: str | os.PathLike) -> list[str]:
    """Integrity problems in the catalog (for ``repro fsck``).

    A *missing* catalog is healthy (cold store); a damaged one is
    reported — open ignores it, but an operator should know it is
    being ignored.  Texts are not parsed here: one that no longer plans
    is skipped at open like a stale statistic.
    """
    _doc, problem = _read(root)
    return [problem] if problem else []
