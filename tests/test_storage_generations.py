"""Generations on disk: a snapshot links what a commit did not touch, and
the format holds nothing a reader can derive.  Clock-free throughout.
"""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.engines.naive import NaiveEngine
from repro.core.parser import parse
from repro.db import Database
from repro.errors import StoreCorruptionError, TriplestoreError
from repro.storage import DurableStore, fsck_store, manager, segments, snapshot
from repro.storage.manager import WAL_LIMIT_ENV
from repro.storage.snapshot import sweep_generations
from repro.storage.wal import FAULT_ENV, FAULT_POINTS
from repro.triplestore.model import Triplestore

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_SRC = os.path.join(os.path.dirname(HERE), "src")

E = [(f"n{i}", f"p{i % 3}", f"n{(i * 7 + 1) % 10}") for i in range(14)]
DK = [("n1", "k", "n2"), ("n2", "k", "n3"), ("n3", "k", "n1")]
RHO = {**{f"n{i}": i % 3 for i in range(10)}, "p0": "label"}

#: A replacement for ``Dk`` over objects the dictionary already holds
#: (``k`` drops out of every triple: the active set shrinks) …
DK_SAME_OBJECTS = [("n2", "p1", "n4"), ("n4", "p1", "n6")]
#: … and one that grows the dictionary, re-coding every key array.
DK_NEW_OBJECT = [("n1", "k", "a-fresh-object")]

ETA_JOIN = "join[1,2,3'; 3=1' & rho(1)=rho(3')](E, E)"
U_QUERY = "join[1,2,3'; 1=1'](Dk, U)"
QUERIES = (ETA_JOIN, U_QUERY, "E", "Dk")


def answers(db: Database) -> list[frozenset]:
    return [db.query(q).to_set() for q in QUERIES]


def oracle(store: Triplestore) -> list[frozenset]:
    naive = NaiveEngine()
    return [frozenset(naive.evaluate(parse(q), store)) for q in QUERIES]


def manifest_of(root) -> dict:
    with open(os.path.join(root, "MANIFEST"), "rb") as fp:
        return json.loads(fp.read())


def gen_dir_of(root) -> str:
    return os.path.join(root, *manifest_of(root)["gen_dir"].split("/"))


def gen_files(root) -> dict[str, os.stat_result]:
    gen = gen_dir_of(root)
    return {name: os.stat(os.path.join(gen, name)) for name in sorted(os.listdir(gen))}


def file_of(root, relation: str) -> str:
    block = manifest_of(root)["segments"]
    return next(e["file"] for e in block["relations"] if e["name"] == relation)


@pytest.fixture()
def written(monkeypatch) -> list[str]:
    """Names of the segment files ``write_segment`` is asked to write."""
    names: list[str] = []
    real = segments.write_segment

    def spy(path, kind, payload):
        names.append(os.path.basename(os.fspath(path)))
        return real(path, kind, payload)

    monkeypatch.setattr(segments, "write_segment", spy)
    return names


@pytest.fixture()
def compact_every_commit(monkeypatch) -> None:
    monkeypatch.setenv(WAL_LIMIT_ENV, "1")


def build_store(root, rho=None) -> str:
    """A closed store directory holding ``E`` and ``Dk`` in generation 2."""
    root = str(root)
    ds = DurableStore(root)
    ds.open()
    ds.snapshot(Triplestore({"E": E, "Dk": DK}, rho=rho), {"E": 1, "Dk": 1}, 1)
    ds.close()
    return root


# --------------------------------------------------------------------- #
# (b) (c) what a snapshot links and what it must rewrite
# --------------------------------------------------------------------- #


class TestLinking:
    def test_commit_replacing_one_relation_links_the_rest(
        self, tmp_path, written, compact_every_commit, monkeypatch
    ):
        root = build_store(tmp_path / "s", RHO)
        swept: list[tuple] = []
        monkeypatch.setattr(manager, "sweep_generations", lambda *a: swept.append(a))
        db = Database(path=root, backend="columnar")
        del written[:]
        previous = gen_files(root)
        db.install("Dk", DK_SAME_OBJECTS)  # WAL limit 1: compacts at once
        assert written == [file_of(root, "Dk")]
        current = gen_files(root)
        assert gen_dir_of(root).endswith("gen-000003")
        for name in ("meta.seg", "dv_codes.seg", file_of(root, "E")):
            assert current[name].st_ino == previous[name].st_ino, name
            assert current[name].st_nlink == 2, name
        assert current[file_of(root, "Dk")].st_ino != previous[file_of(root, "Dk")].st_ino
        # A second compaction links from the generation the first one made.
        del written[:]
        db.install("Dk", DK)
        assert written == [file_of(root, "Dk")]
        assert gen_files(root)[file_of(root, "E")].st_nlink == 3
        # The sweep (held back above) leaves one name per file.
        assert len(swept) == 2
        sweep_generations(*swept[-1])
        assert os.listdir(os.path.join(root, "segments")) == ["gen-000004"]
        assert all(st.st_nlink == 1 for st in gen_files(root).values())
        assert fsck_store(root) == []
        db.close()
        with Database(path=root, backend="columnar") as db:
            assert answers(db) == oracle(Triplestore({"E": E, "Dk": DK}, rho=RHO))

    def test_unchanged_store_links_everything(self, tmp_path, written):
        root = build_store(tmp_path / "s", RHO)
        del written[:]
        ds = DurableStore(root)
        store = ds.open()
        ds.snapshot(store, ds.rel_versions, ds.store_version)
        ds.close()
        assert written == []
        assert fsck_store(root) == []

    def test_dictionary_growth_rewrites_every_relation_and_meta(
        self, tmp_path, written, compact_every_commit
    ):
        root = build_store(tmp_path / "s", RHO)
        twin = Triplestore({"E": E, "Dk": DK}, rho=RHO).with_relation("Dk", DK_NEW_OBJECT)
        db = Database(path=root, backend="columnar")
        del written[:]
        db.install("Dk", DK_NEW_OBJECT)
        # Every key array was re-coded: no version number says so, identity does.
        assert sorted(written) == ["dv_codes.seg", "meta.seg", "rel-000.seg", "rel-001.seg"]
        assert db._rel_versions.get("E", 0) == 1
        assert answers(db) == oracle(twin)
        db.close()
        assert fsck_store(root) == []
        with Database(path=root, backend="columnar") as db:
            assert db.store == twin
            assert answers(db) == oracle(twin)

    def test_replaced_rho_rewrites_meta_and_dv_codes_only(self, tmp_path, written):
        root = build_store(tmp_path / "s", RHO)
        del written[:]
        ds = DurableStore(root)
        store = ds.open().with_rho({**RHO, "n1": 7})
        ds.snapshot(store, ds.rel_versions, ds.store_version)
        ds.close()
        assert sorted(written) == ["dv_codes.seg", "meta.seg"]
        reopened = DurableStore(root)
        assert reopened.open() == store
        reopened.close()

    # (d) a filesystem that cannot link gets the same bytes, written.
    @pytest.mark.parametrize("err", [errno.EXDEV, errno.EPERM, errno.EMLINK, errno.ENOENT])
    def test_failed_link_writes_a_byte_identical_generation(
        self, tmp_path, monkeypatch, compact_every_commit, err
    ):
        linked, copied = build_store(tmp_path / "a", RHO), build_store(tmp_path / "b", RHO)
        with Database(path=linked, backend="columnar") as db:
            db.install("Dk", DK_SAME_OBJECTS)

        def no_link(src, dst, **kwargs):
            raise OSError(err, os.strerror(err))

        monkeypatch.setattr(os, "link", no_link)
        names: list[str] = []
        real = segments.write_segment
        monkeypatch.setattr(
            segments,
            "write_segment",
            lambda path, *a: names.append(os.path.basename(path)) or real(path, *a),
        )
        with Database(path=copied, backend="columnar") as db:
            db.install("Dk", DK_SAME_OBJECTS)
        assert sorted(names) == ["dv_codes.seg", "meta.seg", "rel-000.seg", "rel-001.seg"]
        assert manifest_of(linked) == manifest_of(copied)
        assert list(gen_files(linked)) == list(gen_files(copied))
        for name in gen_files(linked):
            with open(os.path.join(gen_dir_of(linked), name), "rb") as a:
                with open(os.path.join(gen_dir_of(copied), name), "rb") as b:
                    assert a.read() == b.read(), name
        assert fsck_store(copied) == []


# --------------------------------------------------------------------- #
# (e) crashes around a linking snapshot
# --------------------------------------------------------------------- #

_LINK_THEN_DIE = """
import os, sys
from repro.db import Database
db = Database(path=sys.argv[1], backend="columnar")
db.install("Dk", [("n2", "p1", "n4"), ("n4", "p1", "n6")])   # compacts, linking E and meta
assert db._storage.generation == 3, db._storage.generation
os.environ["REPRO_STORAGE_FAULT"] = sys.argv[2]
db.install("Dk", [("n1", "k", "n2")])                         # dies inside the append
"""


class TestCrashes:
    @pytest.mark.parametrize("fault", FAULT_POINTS)
    def test_kill_after_a_linking_snapshot_reopens_healthy(self, tmp_path, fault):
        root = build_store(tmp_path / "s", RHO)
        env = dict(os.environ, PYTHONPATH=REPO_SRC, **{WAL_LIMIT_ENV: "1"})
        env.pop(FAULT_ENV, None)
        child = subprocess.run(
            [sys.executable, "-c", _LINK_THEN_DIE, root, fault],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 137, child.stderr
        assert fsck_store(root) == []
        assert all(st.st_nlink == 1 for st in gen_files(root).values())
        lost = fault in ("wal-before-record", "wal-mid-record")
        dk = DK_SAME_OBJECTS if lost else [("n1", "k", "n2")]
        with Database(path=root, backend="columnar") as db:
            assert answers(db) == oracle(Triplestore({"E": E, "Dk": dk}, rho=RHO))
        assert fsck_store(root) == []

    @pytest.mark.parametrize("step", ["rename", "manifest"])
    def test_snapshot_interrupted_before_the_manifest_swap(
        self, tmp_path, monkeypatch, written, step
    ):
        root = build_store(tmp_path / "s", RHO)
        ds = DurableStore(root)
        store = ds.open()
        ds.commit({"Dk": frozenset(DK_SAME_OBJECTS)})
        store = store.with_relation("Dk", DK_SAME_OBJECTS)

        def crash(*args, **kwargs):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            if step == "rename":
                patch.setattr(snapshot.os, "rename", crash)
            else:
                patch.setattr(snapshot, "atomic_write_bytes", crash)
            with pytest.raises(KeyboardInterrupt):
                ds.snapshot(store, {"E": 1, "Dk": 2}, 2)
        ds.close()
        # Links into the half-made generation did not disturb the live one.
        assert manifest_of(root)["generation"] == 2
        assert fsck_store(root) == []
        del written[:]
        with Database(path=root, backend="columnar") as db:  # replays the record
            assert db.store == store
            assert answers(db) == oracle(store)
        # The close folded the WAL over the debris, linking again.
        assert written == [file_of(root, "Dk")]
        assert os.listdir(os.path.join(root, "segments")) == ["gen-000003"]
        assert all(st.st_nlink == 1 for st in gen_files(root).values())
        assert fsck_store(root) == []


# --------------------------------------------------------------------- #
# (f) nothing derivable is stored
# --------------------------------------------------------------------- #


class TestNothingDerivableIsStored:
    def test_no_rho_generation_is_meta_and_relations(self, tmp_path):
        root = build_store(tmp_path / "s")
        assert list(gen_files(root)) == ["meta.seg", "rel-000.seg", "rel-001.seg"]
        manifest = manifest_of(root)
        assert manifest["format"] == snapshot.MANIFEST_FORMAT
        assert set(manifest["segments"]) == {"meta", "relations"}
        ds = DurableStore(root)
        cs = ds.open().columnar()
        ds.close()
        assert cs.dv_codes.dtype == np.int64 and not cs.dv_codes.any()
        assert len(cs.dv_codes) == cs.n
        assert cs._active is None  # derived on first use, like any in-memory view
        twin = Triplestore({"E": E, "Dk": DK}).columnar()
        assert cs.active_codes().tolist() == twin.active_codes().tolist()

    def test_constant_rho_needs_no_dv_codes(self, tmp_path):
        ds = DurableStore(str(tmp_path / "s"))
        ds.open()
        store = Triplestore([("a", "p", "b")], rho={"a": 1, "p": 1, "b": 1})
        ds.snapshot(store, {"E": 1}, 1)
        ds.close()
        assert list(gen_files(ds.root)) == ["meta.seg", "rel-000.seg"]
        reopened = DurableStore(ds.root)
        assert reopened.open() == store
        assert reopened.store.columnar().dv_values == [1]
        reopened.close()

    def test_rho_generation_adds_dv_codes(self, tmp_path):
        root = build_store(tmp_path / "s", RHO)
        assert list(gen_files(root)) == ["dv_codes.seg", "meta.seg", "rel-000.seg", "rel-001.seg"]
        ds = DurableStore(root)
        cs = ds.open().columnar()
        ds.close()
        assert cs.dv_codes.tolist() == Triplestore({"E": E, "Dk": DK}, rho=RHO).columnar().dv_codes.tolist()

    def test_empty_store_directory(self, tmp_path):
        ds = DurableStore(str(tmp_path / "s"))
        assert len(ds.open()) == 0
        ds.close()
        assert list(gen_files(ds.root)) == ["meta.seg", "rel-000.seg"]
        assert fsck_store(ds.root) == []

    def test_missing_dv_codes_with_several_values_is_corruption(self, tmp_path):
        root = build_store(tmp_path / "s", RHO)
        manifest = manifest_of(root)
        del manifest["segments"]["dv_codes"]
        with open(os.path.join(root, "MANIFEST"), "w") as fp:
            json.dump(manifest, fp)
        with pytest.raises(StoreCorruptionError, match="dv_codes"):
            DurableStore(root).open()

    def test_a_newer_manifest_is_refused(self, tmp_path):
        root = build_store(tmp_path / "s")
        manifest = dict(manifest_of(root), format=snapshot.MANIFEST_FORMAT + 1)
        with open(os.path.join(root, "MANIFEST"), "w") as fp:
            json.dump(manifest, fp)
        with pytest.raises(StoreCorruptionError, match=f"v{snapshot.MANIFEST_FORMAT + 1}"):
            DurableStore(root).open()
        assert [f.rule for f in fsck_store(root)] == ["STOR-MANIFEST"]


# --------------------------------------------------------------------- #
# (g) a rejected install leaves no durable record
# --------------------------------------------------------------------- #

_REJECTED_THEN_KILLED = """
import os, sys
from repro.db import Database
from repro.errors import TriplestoreError
db = Database(path=sys.argv[1])
db.install("E", [("a", "p", "b")])
try:
    db.install("F", [("a", "p")])
except TriplestoreError:
    pass
else:
    sys.exit("the bad install was accepted")
try:
    with db.batch():
        db.install("G", [("g", "g", "g")])
        db.install("F", [("a", "p", ["unhashable"])])
except TypeError:
    pass
else:
    sys.exit("the bad batch was accepted")
os._exit(0)   # no close: whatever the WAL holds is replayed on reopen
"""


class TestRejectedInstall:
    def test_kill_and_reopen_after_a_rejected_install(self, tmp_path):
        root = str(tmp_path / "s")
        child = subprocess.run(
            [sys.executable, "-c", _REJECTED_THEN_KILLED, root],
            env=dict(os.environ, PYTHONPATH=REPO_SRC),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr or child.stdout
        with Database(path=root) as db:
            assert db.store.relation_names == ("E",)
            assert db.store.relation("E") == {("a", "p", "b")}
        assert fsck_store(root) == []

    @pytest.mark.parametrize("bad", [[("a", "p")], [("a", "p", ["x"])], [5], [("a", "b", "c", "d")]])
    def test_nothing_is_logged_or_applied(self, tmp_path, bad):
        with Database(path=str(tmp_path / "s")) as db:
            db.install("E", [("a", "p", "b")])
            size, store = db._storage.wal.size, db.store
            with pytest.raises((TriplestoreError, TypeError)):
                db.install("F", bad)
            with pytest.raises((TriplestoreError, TypeError)):
                with db.batch():
                    db.install("G", [("g", "g", "g")])
                    db.install("F", bad)
            assert db._storage.wal.size == size
            assert db.store is store

    def test_in_memory_sessions_reject_alike(self):
        db = Database(Triplestore([("a", "p", "b")]))
        with pytest.raises(TriplestoreError):
            db.install("F", [("a", "p")])
        assert db.store.relation_names == ("E",)


# --------------------------------------------------------------------- #
# CLI: the footprint and the compaction report
# --------------------------------------------------------------------- #


class TestCli:
    def test_info_prints_the_footprint(self, tmp_path, capsys):
        root = build_store(tmp_path / "s", RHO)
        assert cli_main(["info", root]) == 0
        out = capsys.readouterr().out
        total = sum(
            os.path.getsize(os.path.join(base, name))
            for base, _dirs, names in os.walk(root)
            for name in names
        )
        files = gen_files(root)
        assert f"on disk:   {total} bytes, generation 2" in out
        assert f"({total / (len(E) + len(DK)):.2f} per live triple)" in out
        relations = files["rel-000.seg"].st_size + files["rel-001.seg"].st_size
        assert f"relation keys: {relations}\n" in out
        assert f"dictionary:    {files['meta.seg'].st_size + files['dv_codes.seg'].st_size} " in out
        assert "catalog:       0\n" in out
        assert f"wal:           {os.path.getsize(os.path.join(root, 'wal', 'COMMIT'))}\n" in out

    def test_info_on_a_text_store_prints_no_footprint(self, capsys):
        path = os.path.join(os.path.dirname(HERE), "data", "figure1.tstore")
        assert cli_main(["info", path]) == 0
        assert "on disk" not in capsys.readouterr().out

    def test_compact_reports_links_and_bytes(self, tmp_path, capsys):
        root = build_store(tmp_path / "s", RHO)
        ds = DurableStore(root)
        ds.open()
        ds.commit({"Dk": frozenset(DK_SAME_OBJECTS)})
        ds.close()
        assert cli_main(["compact", root]) == 0
        err = capsys.readouterr().err
        dk_bytes = gen_files(root)[file_of(root, "Dk")].st_size
        assert "compacted to generation 3" in err
        assert f"3 of 4 segments linked, {dk_bytes} bytes written" in err
        assert cli_main(["compact", root]) == 0
        assert "4 of 4 segments linked, 0 bytes written" in capsys.readouterr().err
        assert fsck_store(root) == []
