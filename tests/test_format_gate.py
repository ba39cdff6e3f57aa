"""6.x reads manifest format 6 and nothing else, and reads no manifest
it has not checked.

* An older store is refused by an open, ``Database(path=)``, fsck,
  ``repro compact`` and ``repro info``: a :class:`StorageError` (for
  fsck one ``STOR-MANIFEST`` finding) that names the format and the
  upgrade (``repro upgrade``, :mod:`tests.test_upgrade`, after
  ``repro compact`` under the last 4.x build for a store older than
  format 5),
  raised before anything else under the store is read or written.  The
  inputs are ``tests/golden/store-v4`` — written by the last format-4
  build, never to be regenerated with a newer writer — with its
  manifest re-stamped to each of formats 1–5, and one pickled
  WAL record whose unpickling would write a marker file.  The marker
  never appears and every file stays byte-identical.
  An older store with a torn WAL tail keeps its tail: the refusal
  comes before the log's recovery, which would truncate it.
* A store of a newer format is refused as corruption by the same five
  surfaces, and left as it is.
* A manifest field of the wrong shape is a :class:`StoreCorruptionError`
  from an open and from ``store_footprint``, and one ``STOR-MANIFEST``
  finding from fsck — never another exception, and never a healthy
  store.
* No function under ``repro.storage`` takes a format or ``legacy``
  argument: there is one format, so there is nothing to choose.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pickle
import pkgutil
import shutil

import pytest

import repro.storage
from repro.cli import main as cli_main
from repro.db import Database
from repro.errors import StorageError, StoreCorruptionError
from repro.storage import DurableStore, fsck_store, snapshot, store_footprint
from tests.test_storage_generations import HERE, RHO, build_store, manifest_of
from tests.test_wal_format import rewrite_log


class WritesMarker:
    """Unpickling this creates the file at ``path``."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def write_manifest(root: str, manifest) -> None:
    with open(os.path.join(root, "MANIFEST"), "w") as fp:
        json.dump(manifest, fp)


def tree(root: str) -> dict[str, bytes | None]:
    """Every directory (``None``) and file (its bytes) under ``root``."""
    found: dict[str, bytes | None] = {}
    for base, dirs, names in os.walk(root):
        for name in dirs:
            found[os.path.relpath(os.path.join(base, name), root)] = None
        for name in names:
            with open(os.path.join(base, name), "rb") as fp:
                found[os.path.relpath(os.path.join(base, name), root)] = fp.read()
    return found


def refusal(surface: str, root: str, capsys) -> tuple[type, str]:
    """The error type and message ``surface`` refuses the store at
    ``root`` with."""
    if surface in ("open", "Database"):
        with pytest.raises(StorageError) as info:
            DurableStore(root).open() if surface == "open" else Database(path=root)
        return type(info.value), str(info.value)
    if surface == "fsck":
        findings = fsck_store(root)
        assert [f.rule for f in findings] == ["STOR-MANIFEST"]
        return StorageError, findings[0].message
    capsys.readouterr()
    assert cli_main([surface, root]) == 1
    return StorageError, capsys.readouterr().err


SURFACES = ("open", "Database", "fsck", "compact", "info")


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_an_older_store_is_refused_before_anything_is_read(tmp_path, capsys, version):
    root = str(tmp_path / "store")
    shutil.copytree(os.path.join(HERE, "golden", "store-v4"), root)
    write_manifest(root, dict(manifest_of(root), format=version))
    marker = str(tmp_path / "marker")
    record = pickle.dumps({"relations": {"E": WritesMarker(marker)}})
    rewrite_log(root, [(1, record)])
    before = tree(root)
    for surface in SURFACES:
        kind, message = refusal(surface, root, capsys)
        assert not os.path.exists(marker), surface
        assert tree(root) == before, surface
        assert kind is StorageError, surface  # the store is sound, only old
        assert f"manifest format {version};" in message, surface
        assert "`repro upgrade STORE`" in message, surface
        assert "`repro compact` under the last 4.x build" in message, surface


def torn(root: str) -> str:
    """``root`` with bytes past the log's last record, as a crash in the
    middle of an append leaves them."""
    with open(os.path.join(root, "wal", "wal.log"), "ab") as fp:
        fp.write(b"\x07torn")
    return root


def test_an_older_store_keeps_its_torn_wal_tail(tmp_path, capsys):
    # At the current format an open truncates the tail …
    current = torn(build_store(tmp_path / "current"))
    size = os.path.getsize(os.path.join(current, "wal", "wal.log"))
    ds = DurableStore(current)
    ds.open()
    ds.close()
    assert os.path.getsize(os.path.join(current, "wal", "wal.log")) < size
    # … an older store is refused before the log is recovered.
    root = torn(build_store(tmp_path / "older"))
    write_manifest(root, dict(manifest_of(root), format=5))
    before = tree(root)
    for surface in SURFACES:
        refusal(surface, root, capsys)
        assert tree(root) == before, surface


def test_a_newer_store_is_refused_everywhere_and_left_as_it_is(tmp_path, capsys):
    root = build_store(tmp_path / "s", RHO)
    newer = snapshot.MANIFEST_FORMAT + 1
    write_manifest(root, dict(manifest_of(root), format=newer))
    before = tree(root)
    for surface in SURFACES:
        if surface in ("open", "Database"):
            with pytest.raises(StoreCorruptionError, match=f"manifest format v{newer};"):
                DurableStore(root).open() if surface == "open" else Database(path=root)
        else:
            _, message = refusal(surface, root, capsys)
            assert f"manifest format v{newer};" in message, surface
        assert tree(root) == before, surface


def _segments(m: dict, **fields) -> dict:
    return {**m, "segments": {**m["segments"], **fields}}


def _relations(m: dict, **fields) -> dict:
    first, *rest = m["segments"]["relations"]
    return _segments(m, relations=[{**first, **fields}, *rest])


MALFORMED = {
    "format-str": lambda m: {**m, "format": "5"},
    "format-null": lambda m: {**m, "format": None},
    "format-list": lambda m: {**m, "format": [5]},
    "format-bool": lambda m: {**m, "format": True},
    "format-float": lambda m: {**m, "format": float(m["format"])},
    "format-missing": lambda m: {k: v for k, v in m.items() if k != "format"},
    "not-an-object": lambda m: [m],
    "segments-list": lambda m: {**m, "segments": []},
    "relations-not-a-list": lambda m: _segments(m, relations={}),
    "meta-missing": lambda m: {**m, "segments": {"relations": m["segments"]["relations"]}},
    "meta-without-file": lambda m: _segments(m, meta={"kind": 3}),
    "file-outside-the-generation": lambda m: _segments(
        m, meta={**m["segments"]["meta"], "file": "../../MANIFEST"}
    ),
    "relation-without-name": lambda m: _relations(m, name=None),
    "relation-named-twice": lambda m: _relations(m, name=m["segments"]["relations"][1]["name"]),
    "gen-dir-int": lambda m: {**m, "gen_dir": 5},
    "gen-dir-of-the-next-generation": lambda m: {**m, "gen_dir": "segments/gen-000003"},
    "generation-str": lambda m: {**m, "generation": "x"},
    "generation-negative": lambda m: {**m, "generation": -2},
    "store-version-bool": lambda m: {**m, "store_version": True},
    "wal-seq-list": lambda m: {**m, "wal_seq": [1]},
    "rel-versions-list": lambda m: {**m, "rel_versions": []},
    "rel-version-str": lambda m: {**m, "rel_versions": {"E": "1"}},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_manifest_is_corruption_everywhere(tmp_path, case):
    root = build_store(tmp_path / "s", RHO)
    write_manifest(root, MALFORMED[case](manifest_of(root)))
    with pytest.raises(StoreCorruptionError, match="manifest"):
        DurableStore(root).open()
    with pytest.raises(StoreCorruptionError, match="manifest"):
        store_footprint(root)
    findings = fsck_store(root)
    assert [f.rule for f in findings] == ["STOR-MANIFEST"], findings


def test_no_storage_function_takes_a_format_argument():
    taken = []
    for info in pkgutil.iter_modules(repro.storage.__path__, "repro.storage."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            members = vars(value).values() if inspect.isclass(value) else [value]
            for member in members:
                member = getattr(member, "__func__", member)
                if not inspect.isfunction(member) or member.__module__ != info.name:
                    continue
                for param in inspect.signature(member).parameters:
                    if param == "legacy" or "format" in param:
                        taken.append(f"{info.name}.{member.__qualname__}({param})")
    assert taken == []
