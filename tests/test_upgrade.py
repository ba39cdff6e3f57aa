"""``repro upgrade`` rewrites a manifest-format-5 store as format 6, exactly.

The input is ``tests/golden/store-v5``, written by the 5.0.0 build —
never to be regenerated with a newer writer.  Its generation 2 holds
``E`` and ``D`` below with ρ = ``RHO``, and its log two committed
version-1 records (zlib'd tails): ``E`` grown by three triples of new
objects, then ``D`` replaced.  The objects are the ones a text dump
changes: strings that read as numbers, ``True`` beside ``"True"``,
bytes beside their ``repr``, strings holding ``,()#"`` and spaces.

* Every surface refuses the format-5 store, naming ``repro upgrade``;
  after it, the store opens with every object of its exact type, the
  relation versions an open of the format-5 store would give, a clean
  fsck and an empty log; a second upgrade does nothing.
* A defect in what the upgrade reads — a damaged dictionary stream, a
  damaged or pickled log record — is :class:`StoreCorruptionError`
  before anything under the store is written (the pickle is never
  loaded); one the format-6 open finds in the staged generation leaves
  the format-5 manifest in place.
* A store older than format 5 is refused as every surface refuses it,
  untouched.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import struct
import zlib

import pytest

from repro.cli import main as cli_main
from repro.db import Database
from repro.errors import StorageError, StoreCorruptionError
from repro.storage import DurableStore, fsck_store
from repro.storage.segments import KIND_DICT, read_segment, write_segment
from repro.storage.upgrade import upgrade_store
from repro.storage.wal import scan_records
from tests.test_format_gate import SURFACES, WritesMarker, refusal, tree, write_manifest
from tests.test_storage_generations import HERE, manifest_of
from tests.test_wal_format import rewrite_log

E = [
    ("a", "p", "b"), ("b", "p", "1"), ("1", "q", 2), (2, "q", 2.5),
    (True, "r", None), (b"x", "r", ("t", 3)),
    ('a, (b) #c "q"', "s", "null"), (" spaced ", "s", "1.5"),
]
E_GROWN = E + [("b", "p", b"\x00\xff"), (-3, "p", ("n", ("a", None))), ("x,y(z)#", "q", 1e-300)]
D = [("a", "p", "True"), ("c", "p", "b'x'")]
RHO = {"a": 1, "b": "one", 2: b"\x01", ("t", 3): True}


def golden(tmp_path) -> str:
    root = str(tmp_path / "store")
    shutil.copytree(os.path.join(HERE, "golden", "store-v5"), root)
    return root


def typed(triples) -> list[str]:
    """``repr`` tells ``1`` from ``"1"``, ``True`` from ``"True"``."""
    return sorted(map(repr, triples))


def test_upgrade_keeps_every_object_of_its_type(tmp_path, capsys):
    root = golden(tmp_path)
    for surface in SURFACES:
        kind, message = refusal(surface, root, capsys)
        assert kind is StorageError and "manifest format 5;" in message, surface
        assert "`repro upgrade STORE`" in message, surface
    capsys.readouterr()
    assert cli_main(["upgrade", root]) == 0
    assert "2 WAL records folded" in capsys.readouterr().err
    assert manifest_of(root)["format"] == 6
    assert os.path.getsize(os.path.join(root, "wal", "wal.log")) == 0
    assert os.listdir(os.path.join(root, "segments")) == ["gen-000004"]
    assert fsck_store(root) == []
    ds = DurableStore(root)
    store = ds.open()
    ds.close()
    assert typed(store.relation("E")) == typed(E_GROWN)
    assert typed(store.relation("D")) == typed(D)
    assert {repr(o): store.rho(o) for o in store.objects if store.rho(o) is not None} == {
        repr(o): v for o, v in RHO.items()
    }
    assert type(store.rho(("t", 3))) is bool and type(store.rho("a")) is int
    # What an open of the format-5 store would count: one bump per record.
    assert ds.rel_versions == {"E": 2, "D": 2} and ds.store_version == 3
    db = Database(path=root)
    assert typed(db.query("E").to_set()) == typed(E_GROWN)
    db.close()
    before = tree(root)
    capsys.readouterr()
    assert cli_main(["upgrade", root]) == 0
    assert "manifest format 6 already" in capsys.readouterr().err
    assert upgrade_store(root) is None
    assert tree(root) == before


def restamped_meta(root: str, damage) -> None:
    """``meta.seg`` of the golden generation with ``damage`` applied to
    its payload, the segment's CRCs re-stamped so only the stream is
    wrong."""
    path = os.path.join(root, "segments", "gen-000002", "meta.seg")
    payload = damage(read_segment(path, expect_kind=KIND_DICT))
    os.remove(path)
    write_segment(path, KIND_DICT, payload)
    manifest = manifest_of(root)
    manifest["segments"]["meta"]["crc"] = zlib.crc32(payload)
    write_manifest(root, manifest)


def records(root: str) -> list[tuple[int, bytes]]:
    with open(os.path.join(root, "wal", "wal.log"), "rb") as fp:
        return scan_records(fp.read())[0]


def flip(payload: bytes, at: int) -> bytes:
    return payload[:at] + bytes([payload[at] ^ 0x10]) + payload[at + 1 :]


READ_DAMAGE = {
    "dictionary-truncated": lambda root, marker: restamped_meta(root, lambda p: p[:-3]),
    "dictionary-padded": lambda root, marker: restamped_meta(root, lambda p: p + b"\0"),
    "record-tail-flipped": lambda root, marker: rewrite_log(
        root, [(seq, flip(p, 32 + 20 + 2)) for seq, p in records(root)]
    ),
    "record-version-2": lambda root, marker: rewrite_log(
        root, [(seq, p[:4] + struct.pack("<I", 2) + p[8:]) for seq, p in records(root)]
    ),
    "record-pickled": lambda root, marker: rewrite_log(
        root, [(1, pickle.dumps({"relations": {"E": WritesMarker(marker)}}))]
    ),
}


@pytest.mark.parametrize("case", sorted(READ_DAMAGE))
def test_a_defect_it_reads_is_refused_before_anything_is_written(tmp_path, case):
    root = golden(tmp_path)
    marker = str(tmp_path / "marker")
    READ_DAMAGE[case](root, marker)
    before = tree(root)
    with pytest.raises(StoreCorruptionError):
        upgrade_store(root)
    assert tree(root) == before
    assert not os.path.exists(marker)


def test_a_dictionary_bomb_is_refused_before_inflating(tmp_path, monkeypatch):
    root = golden(tmp_path)
    rewrite_log(root, [])  # the log's records are inflated first
    # One byte past deflate's 1 032:1 bound.
    restamped_meta(root, lambda p: struct.pack("<Q", 1032 * (len(p) - 20) + 1) + p[8:])
    monkeypatch.setattr(zlib, "decompressobj", lambda: pytest.fail("inflated"))
    with pytest.raises(StoreCorruptionError, match="cannot inflate"):
        upgrade_store(root)


def test_a_defect_the_format_6_open_finds_leaves_the_format_5_manifest(tmp_path):
    root = golden(tmp_path)
    # A key past n³ in the first record: the tail converts, the replay
    # onto the staged generation refuses it.
    (seq, payload), *rest = records(root)
    rewrite_log(root, [(seq, payload[:-8] + struct.pack("<q", 1 << 60)), *rest])
    manifest = manifest_of(root)
    with pytest.raises(StoreCorruptionError, match="seq=1"):
        upgrade_store(root)
    assert manifest_of(root) == manifest
    with pytest.raises(StorageError, match="manifest format 5;"):
        DurableStore(root).open()


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_an_older_store_is_refused_untouched(tmp_path, capsys, version):
    root = str(tmp_path / "store")
    shutil.copytree(os.path.join(HERE, "golden", "store-v4"), root)
    write_manifest(root, dict(manifest_of(root), format=version))
    before = tree(root)
    with pytest.raises(StorageError, match=f"manifest format {version};.*4.x build"):
        upgrade_store(root)
    assert cli_main(["upgrade", root]) == 1
    assert tree(root) == before


def test_a_record_past_a_stale_pointer_is_folded_too(tmp_path):
    root = golden(tmp_path)
    with open(os.path.join(root, "wal", "COMMIT"), "w") as fp:
        json.dump({"offset": 0, "seq": 0}, fp)  # a crash before step 2 of both commits
    assert upgrade_store(root).records == 2
    assert manifest_of(root)["wal_seq"] == 2  # sequence numbers keep rising
    ds = DurableStore(root)
    assert typed(ds.open().relation("D")) == typed(D)
    ds.close()
