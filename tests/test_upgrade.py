"""``repro upgrade`` rewrites a manifest-format-6 store as format 7, exactly.

The input is ``tests/golden/store-v6``, written by the 6.0.0 build —
never to be regenerated with a newer writer.  Its generation 2 holds
``E`` and ``D[:1]`` below with ρ = ``RHO`` (so a ``dv_codes.seg``), and
its log two committed records past the manifest's ``wal_seq``: ``E``
grown by three triples of new objects, then ``D`` replaced.  The objects
are the ones a text dump used to change: strings that read as numbers,
``True`` beside ``"True"``, bytes beside their ``repr``, strings holding
``,()#"`` and spaces.

* Every surface refuses the format-6 store, naming ``repro upgrade``;
  after it, the store opens with every object of its exact type, the
  relation versions an open of the format-6 store would give (the log
  is replayed as it was), a clean fsck, and the same answer to every
  query as an in-memory session over the same triples; a second
  upgrade does nothing.
* A defect in what the upgrade reads — a damaged key segment or
  dictionary — is :class:`StoreCorruptionError` before anything under
  the store is written; one the format-7 open finds in the new
  generation leaves the format-6 manifest in place.
* A store of several key blocks upgrades to the very same arrays.
* A store older than format 6 is refused as every surface refuses it,
  untouched.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.db import Database
from repro.errors import StorageError, StoreCorruptionError
from repro.storage import DurableStore, fsck_store, segments
from repro.storage.segments import KIND_DICT, KIND_KEYS, read_segment, write_segment
from repro.storage.upgrade import _decode_v6, upgrade_store
from repro.triplestore.model import Triplestore
from tests.test_format_gate import SURFACES, refusal, tree, write_manifest
from tests.test_key_segments import big_store
from tests.test_storage_generations import HERE, manifest_of

E = [
    ("a", "p", "b"), ("b", "p", "1"), ("1", "q", 2), (2, "q", 2.5),
    (True, "r", None), (b"x", "r", ("t", 3)),
    ('a, (b) #c "q"', "s", "null"), (" spaced ", "s", "1.5"),
]
E_GROWN = E + [("b", "p", b"\x00\xff"), (-3, "p", ("n", ("a", None))), ("x,y(z)#", "q", 1e-300)]
D = [("a", "p", "True"), ("c", "p", "b'x'")]
RHO = {"a": 1, "b": "one", 2: b"\x01", ("t", 3): True}
QUERIES = (
    "E",
    "D",
    "join[1,2,3'; 3=1'](E, E)",
    "join[1,2,3'; 3=1' & rho(1)=rho(3')](E, E)",
    "star[1,2,3'; 3=1'](E)",
    "(E | D) - select[2='p'](E)",
)


def golden(tmp_path) -> str:
    root = str(tmp_path / "store")
    shutil.copytree(os.path.join(HERE, "golden", "store-v6"), root)
    return root


def typed(triples) -> list[str]:
    """``repr`` tells ``1`` from ``"1"``, ``True`` from ``"True"``."""
    return sorted(map(repr, triples))


def v6_payload(arr: np.ndarray) -> bytes:
    """A format-6 ``KIND_KEYS`` payload as 6.x wrote it: one zlib stream
    of the deltas, each block of 2¹⁵ as eight byte planes."""
    deflate, parts, prev = zlib.compressobj(6, zlib.DEFLATED, zlib.MAX_WBITS, 8, zlib.Z_RLE), [], 0
    for lo in range(0, len(arr), 2**15):
        block = arr[lo : lo + 2**15]
        planes = np.diff(block, prepend=prev).astype("<i8").view(np.uint8).reshape(len(block), 8)
        parts += [deflate.compress(np.ascontiguousarray(planes[:, j])) for j in range(8)]
        prev = block[-1]
    parts.append(deflate.flush())
    return b"".join(parts)


def entries(manifest: dict) -> list[dict]:
    block = manifest["segments"]
    return [block["dv_codes"], *block["relations"]] if "dv_codes" in block else block["relations"]


def test_the_golden_store_is_what_6x_wrote():
    root = os.path.join(HERE, "golden", "store-v6")
    manifest = manifest_of(root)
    assert manifest["format"] == 6 and manifest["wal_seq"] == 0
    for entry in entries(manifest):
        payload = read_segment(os.path.join(root, manifest["gen_dir"], entry["file"]))
        assert v6_payload(_decode_v6(payload, entry["count"])) == payload


def test_upgrade_keeps_every_object_of_its_type(tmp_path, capsys):
    root = golden(tmp_path)
    for surface in SURFACES:
        kind, message = refusal(surface, root, capsys)
        assert kind is StorageError and "manifest format 6;" in message, surface
        assert "`repro upgrade STORE`" in message, surface
    log = tree(root)["wal/wal.log"]
    capsys.readouterr()
    assert cli_main(["upgrade", root]) == 0
    assert "from manifest format 6 to 7 at generation 3" in capsys.readouterr().err
    manifest = manifest_of(root)
    assert manifest["format"] == 7 and manifest["wal_seq"] == 0
    assert tree(root)["wal/wal.log"] == log  # records as they were, for the open to replay
    assert os.listdir(os.path.join(root, "segments")) == ["gen-000003"]
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
    # What an open of the format-6 store would count: one bump per record.
    assert ds.rel_versions == {"E": 2, "D": 2} and ds.store_version == 3
    db = Database(path=root)
    memory = Database(Triplestore({"E": E_GROWN, "D": D}, rho=RHO))
    for query in QUERIES:
        assert typed(db.query(query).to_set()) == typed(memory.query(query).to_set()), query
    db.close()
    before = tree(root)
    capsys.readouterr()
    assert cli_main(["upgrade", root]) == 0
    assert "manifest format 7 already" in capsys.readouterr().err
    assert upgrade_store(root) is None
    assert tree(root) == before


def restamped(root: str, name: str, damage, **fields) -> None:
    """The golden generation's segment ``name`` with ``damage`` applied
    to its payload, its CRCs (and ``fields``) re-stamped in the header
    and the manifest, so only the payload is wrong."""
    manifest = manifest_of(root)
    entry = next(e for e in [manifest["segments"]["meta"], *entries(manifest)] if e["file"] == name)
    path = os.path.join(root, "segments", "gen-000002", name)
    kind = KIND_DICT if name == "meta.seg" else KIND_KEYS
    payload = damage(read_segment(path, expect_kind=kind))
    os.remove(path)  # a link of the golden file must not change it
    write_segment(path, kind, payload)
    entry.update(fields, crc=zlib.crc32(payload))
    write_manifest(root, manifest)


def swapped(payload: bytes) -> bytes:
    keys = _decode_v6(payload, 8).copy()
    keys[[3, 4]] = keys[[4, 3]]
    return v6_payload(keys)


READ_DAMAGE = {
    "keys-truncated": lambda root: restamped(root, "rel-000.seg", lambda p: p[:-3]),
    "keys-padded": lambda root: restamped(root, "rel-000.seg", lambda p: p + b"\0"),
    "keys-out-of-order": lambda root: restamped(root, "rel-000.seg", swapped),
    "keys-count-over": lambda root: restamped(root, "rel-000.seg", bytes, count=9),
    "keys-bomb": lambda root: restamped(
        root, "rel-001.seg", lambda p: zlib.compress(bytes(2**20), 9), count=2**40
    ),
    "codes-truncated": lambda root: restamped(root, "dv_codes.seg", lambda p: p[:-3]),
    "dictionary-truncated": lambda root: restamped(root, "meta.seg", lambda p: p[:-3]),
}


@pytest.mark.parametrize("case", sorted(READ_DAMAGE))
def test_a_defect_it_reads_is_refused_before_anything_is_written(tmp_path, case):
    root = golden(tmp_path)
    READ_DAMAGE[case](root)
    before = tree(root)
    with pytest.raises(StoreCorruptionError):
        upgrade_store(root)
    assert tree(root) == before


def test_a_defect_the_format_7_open_finds_leaves_the_format_6_manifest(tmp_path):
    root = golden(tmp_path)
    # A ρ code past the data values, inside the universe of 18 objects:
    # it converts, and the open of the new generation refuses it.
    restamped(root, "dv_codes.seg", lambda p: v6_payload(np.r_[_decode_v6(p, 18)[:-1], 17]))
    manifest = manifest_of(root)
    with pytest.raises(StoreCorruptionError, match="one code in"):
        upgrade_store(root)
    assert manifest_of(root) == manifest
    with pytest.raises(StorageError, match="manifest format 6;"):
        DurableStore(root).open()


def test_a_store_of_several_blocks_upgrades_to_the_same_arrays(tmp_path):
    root = str(tmp_path / "store")
    ds = DurableStore(root)
    ds.open()
    store = big_store()
    ds.snapshot(store, {name: 1 for name in store.relation_names}, 1)
    ds.close()
    # Re-stamp it as 6.x would have written it.
    manifest = manifest_of(root)
    n = store.columnar().n
    for entry in entries(manifest):
        path = os.path.join(root, manifest["gen_dir"], entry["file"])
        columns = 3 if "name" in entry else 1
        arr = segments.decode_keys(read_segment(path), entry["count"], n, columns)
        entry["crc"] = write_segment(path, KIND_KEYS, v6_payload(arr))
    write_manifest(root, dict(manifest, format=6))
    done = upgrade_store(root)
    assert done.generation == 3
    ds = DurableStore(root)
    view, fresh = ds.open().columnar(), store.columnar()
    ds.close()
    for name in ("E", "F"):
        assert view.relation_keys(name).tolist() == fresh.relation_keys(name).tolist()
    assert view.dv_codes.tolist() == fresh.dv_codes.tolist()


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_an_older_store_is_refused_untouched(tmp_path, capsys, version):
    root = str(tmp_path / "store")
    shutil.copytree(os.path.join(HERE, "golden", "store-v4"), root)
    write_manifest(root, dict(manifest_of(root), format=version))
    before = tree(root)
    with pytest.raises(StorageError, match=f"manifest format {version};.*6.x build"):
        upgrade_store(root)
    assert cli_main(["upgrade", root]) == 1
    assert tree(root) == before


def test_a_manifest_without_its_segment_map_is_refused(tmp_path):
    root = golden(tmp_path)
    manifest = manifest_of(root)
    del manifest["segments"]
    with open(os.path.join(root, "MANIFEST"), "w") as fp:
        json.dump(manifest, fp)
    before = tree(root)
    with pytest.raises(StoreCorruptionError, match="segment map"):
        upgrade_store(root)
    assert tree(root) == before
