"""The durable storage layer: segments, WAL, snapshots, catalog, CLI."""

from __future__ import annotations

import glob
import json
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.engines.hashjoin import FastEngine, HashJoinEngine
from repro.core.plan import StarOp
from repro.db import Database
from repro.errors import FragmentError, ReproError, StorageError, StoreCorruptionError
from repro.rdf.datasets import figure1
from repro.storage import DurableStore, SegmentStore, WriteAheadLog, fsck_store
from repro.storage.fsutil import atomic_write_bytes
from repro.storage.wal import read_record
from repro.storage.segments import (
    KIND_DICT,
    KIND_KEYS,
    encode_keys,
    open_store_segments,
    read_segment,
    verify_segment,
    write_segment,
    write_store_segments,
)
from repro.triplestore.columnar import ColumnarStore
from repro.triplestore.model import Triplestore
from repro.triplestore.io import dumps as io_dumps, loads as io_loads

TRIPLES = (("a", "p", "b"), ("b", "p", "c"), ("c", "q", "d"))
Q = "join[1,2,3'; 3=1'](E, E)"


def make_store():
    return Triplestore(TRIPLES, rho={"a": 1, "b": None, "p": "label"})


# --------------------------------------------------------------------- #
# Segment files
# --------------------------------------------------------------------- #


class TestSegmentFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "x.seg"
        payload = b"\x01\x02\x03\x04" * 10
        crc = write_segment(path, KIND_DICT, payload)
        assert read_segment(path, expect_kind=KIND_DICT) == payload
        assert verify_segment(path) == []
        assert isinstance(crc, int)
        assert not os.path.exists(str(path) + ".tmp")

    def test_corrupt_payload_detected(self, tmp_path):
        path = tmp_path / "c.seg"
        write_segment(path, KIND_KEYS, encode_keys(np.arange(8, dtype=np.int64)))
        with open(path, "r+b") as fp:
            fp.seek(40)
            fp.write(b"\xff")
        assert verify_segment(path)
        with pytest.raises(StoreCorruptionError):
            read_segment(path)

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "t.seg"
        write_segment(path, KIND_KEYS, encode_keys(np.arange(8, dtype=np.int64)))
        with open(path, "r+b") as fp:
            fp.truncate(40)
        with pytest.raises(StoreCorruptionError, match="truncated"):
            read_segment(path)

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "m.seg"
        write_segment(path, KIND_DICT, b"")
        with open(path, "r+b") as fp:
            fp.write(b"NOTASEGM")
        with pytest.raises(StoreCorruptionError):
            read_segment(path)


class TestStoreSegments:
    def test_roundtrip_preserves_store(self, tmp_path):
        store = make_store().with_relation("R", ((("x", "y", "z"),)))
        block = write_store_segments(store, tmp_path / "gen")
        reopened = open_store_segments(tmp_path / "gen", block)
        assert isinstance(reopened, SegmentStore)
        assert reopened == store
        assert reopened.rho_map() == store.rho_map()
        assert reopened.relation_names == store.relation_names

    def test_figure1_roundtrip(self, tmp_path):
        store = figure1()
        block = write_store_segments(store, tmp_path / "gen")
        assert open_store_segments(tmp_path / "gen", block) == store

    def test_empty_store(self, tmp_path):
        store = Triplestore()
        block = write_store_segments(store, tmp_path / "gen")
        reopened = open_store_segments(tmp_path / "gen", block)
        assert reopened == store
        assert len(reopened) == 0

    def test_lazy_contains_and_len(self, tmp_path):
        store = make_store()
        block = write_store_segments(store, tmp_path / "gen")
        reopened = open_store_segments(tmp_path / "gen", block)
        # __len__ and __contains__ work off the arrays, no decode
        assert len(reopened) == len(TRIPLES)
        assert ("a", "p", "b") in reopened
        assert ("a", "p", "zzz") not in reopened
        assert reopened._relations["E"] is None  # still undecoded
        assert reopened.relation("E") == store.relation("E")

    def test_columnar_view_holds_the_decoded_keys(self, tmp_path):
        store = make_store()
        block = write_store_segments(store, tmp_path / "gen")
        reopened = open_store_segments(tmp_path / "gen", block)
        cs = reopened.columnar()
        assert isinstance(cs, ColumnarStore)
        keys = cs.relation_keys("E")
        assert keys is cs.relation_keys("E") and not keys.flags.writeable
        assert keys.tolist() == store.columnar().relation_keys("E").tolist()

    def test_mutation_stays_lazy_over_the_same_arrays(self, tmp_path):
        store = make_store()
        block = write_store_segments(store, tmp_path / "gen")
        reopened = open_store_segments(tmp_path / "gen", block)
        grown = reopened.with_relation("N", (("n", "m", "o"),))
        assert type(grown) is SegmentStore
        assert grown._relations["E"] is None  # nothing was decoded
        assert grown.relation("N") == frozenset({("n", "m", "o")})
        assert grown == store.with_relation("N", (("n", "m", "o"),))


# --------------------------------------------------------------------- #
# WAL
# --------------------------------------------------------------------- #


def batch_of(relations: dict) -> object:
    """``relations`` encoded against an empty dictionary: a WAL record."""
    return Triplestore().columnar().encode({n: frozenset(t) for n, t in relations.items()})


class TestWal:
    def test_append_recover_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(batch_of({"E": TRIPLES}))
        wal.append(batch_of({"R": (("x", "y", "z"),)}))
        wal.close()
        records = WriteAheadLog(tmp_path / "wal").recover()
        assert [seq for seq, _ in records] == [1, 2]
        record = read_record(records[0][1], where="seq=1")
        assert record.base == 0 and record.fresh == sorted({*"abcdpq"}, key=repr)
        view = Triplestore().columnar()
        grown = view.apply(Triplestore({"E": ()}), view.logged(*record), False)
        assert grown.decode_triples(grown.relation_keys("E")) == frozenset(TRIPLES)

    def test_min_seq_filters_folded_records(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(batch_of({"E": TRIPLES}))
        wal.append(batch_of({"R": ()}))
        wal.close()
        records = WriteAheadLog(tmp_path / "wal").recover(min_seq=1)
        assert [seq for seq, _ in records] == [2]

    def test_torn_tail_truncated(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(batch_of({"E": TRIPLES}))
        wal.close()
        with open(wal.log_path, "ab") as fp:
            fp.write(b"torn-half-record")
        fresh = WriteAheadLog(tmp_path / "wal")
        assert [s for s, _ in fresh.recover()] == [1]
        assert os.path.getsize(fresh.log_path) == fresh.offset

    def test_corruption_inside_committed_region_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(batch_of({"E": TRIPLES}))
        wal.close()
        with open(wal.log_path, "r+b") as fp:
            fp.seek(30)
            fp.write(b"\xff\xff")
        with pytest.raises(StoreCorruptionError):
            WriteAheadLog(tmp_path / "wal").recover()

    def test_durable_record_past_stale_pointer_promoted(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(batch_of({"E": TRIPLES}))
        pointer = json.loads(open(wal.commit_path, "rb").read())
        wal.append(batch_of({"R": ()}))
        wal.close()
        # Roll the pointer back to simulate a crash between record fsync
        # and pointer replace: the second record must be promoted.
        atomic_write_bytes(wal.commit_path, json.dumps(pointer).encode())
        fresh = WriteAheadLog(tmp_path / "wal")
        assert [s for s, _ in fresh.recover()] == [1, 2]
        assert fresh.next_seq == 3

    def test_reset_preserves_sequence(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(batch_of({"E": TRIPLES}))
        wal.append(batch_of({"R": ()}))
        wal.reset(2)
        assert wal.size == 0
        assert wal.append(batch_of({"S": ()})) == 3
        wal.close()


# --------------------------------------------------------------------- #
# DurableStore manager
# --------------------------------------------------------------------- #


class TestDurableStore:
    def test_fresh_directory_initialised(self, tmp_path):
        ds = DurableStore(tmp_path / "s")
        store = ds.open()
        assert store == Triplestore()
        assert os.path.exists(ds.manifest_path)
        assert fsck_store(ds.root) == []
        ds.close()

    def test_wal_replay_on_open(self, tmp_path):
        ds = DurableStore(tmp_path / "s")
        ds.open()
        ds.commit({"E": TRIPLES})
        ds.close()
        ds2 = DurableStore(tmp_path / "s")
        store = ds2.open()
        assert store.relation("E") == frozenset(TRIPLES)
        assert ds2.rel_versions == {"E": 1}
        assert ds2.store_version == 1
        ds2.close()

    def test_snapshot_folds_and_sweeps(self, tmp_path):
        ds = DurableStore(tmp_path / "s")
        store = ds.open()
        ds.commit({"E": TRIPLES})
        store = store.with_relation("E", TRIPLES)
        ds.snapshot(store, {"E": 1}, 1)
        assert ds.wal.size == 0
        gens = glob.glob(str(tmp_path / "s" / "segments" / "gen-*"))
        assert len(gens) == 1  # the old generation was swept
        ds.close()
        ds2 = DurableStore(tmp_path / "s")
        reopened = ds2.open()
        assert isinstance(reopened, SegmentStore)
        assert reopened == store
        assert ds2.rel_versions == {"E": 1}
        ds2.close()

    def test_missing_segment_is_corruption(self, tmp_path):
        ds = DurableStore(tmp_path / "s")
        ds.open()
        ds.close()
        seg = glob.glob(str(tmp_path / "s" / "segments" / "gen-*" / "meta.seg"))[0]
        os.unlink(seg)
        with pytest.raises(StoreCorruptionError):
            DurableStore(tmp_path / "s").open()

    def test_bad_manifest_is_corruption(self, tmp_path):
        ds = DurableStore(tmp_path / "s")
        ds.open()
        ds.close()
        with open(ds.manifest_path, "w") as fp:
            fp.write("{not json")
        with pytest.raises(StoreCorruptionError):
            DurableStore(tmp_path / "s").open()


# --------------------------------------------------------------------- #
# Database integration
# --------------------------------------------------------------------- #


class TestDatabasePath:
    def test_batch_commit_and_reopen(self, tmp_path):
        db = Database(path=tmp_path / "s")
        with db.batch():
            db.install("E", TRIPLES)
        expected = db.query(Q).to_set()
        db.close()
        db2 = Database(path=tmp_path / "s")
        assert db2.query(Q).to_set() == expected
        assert isinstance(db2.store, SegmentStore)
        db2.close()

    def test_store_and_path_are_exclusive(self, tmp_path):
        with pytest.raises(ReproError):
            Database(Triplestore(), path=tmp_path / "s")
        with pytest.raises(ReproError):
            Database()

    def test_warm_plan_cache_hits_on_first_query(self, tmp_path):
        db = Database(path=tmp_path / "s")
        db.install("E", TRIPLES)
        db.query(Q).to_set()
        assert db.cache_info()["plans"].hits == 0
        db.close()
        db2 = Database(path=tmp_path / "s")
        db2.query(Q).to_set()
        assert db2.cache_info()["plans"].hits == 1
        db2.close()

    def test_warm_stats_on_reopen(self, tmp_path):
        db = Database(path=tmp_path / "s")
        db.install("E", TRIPLES)
        db.store.stats().relation("E")  # compute so close persists it
        db.close()
        db2 = Database(path=tmp_path / "s")
        computed = db2.store.stats().computed()
        assert computed["E"].cardinality == len(TRIPLES)
        db2.close()

    def test_mutation_invalidates_persisted_plans(self, tmp_path):
        db = Database(path=tmp_path / "s")
        db.install("E", TRIPLES)
        db.query(Q).to_set()
        db.close()
        db2 = Database(path=tmp_path / "s")
        db2.install("E", TRIPLES + (("d", "p", "e"),))
        db2.query(Q).to_set()
        assert db2.cache_info()["plans"].hits == 0  # token aged out
        assert ("c", "p", "e") not in db2.query(Q).to_set()
        db2.close()

    def test_all_backends_serve_from_segments(self, tmp_path):
        db = Database(path=tmp_path / "s")
        db.install("E", TRIPLES)
        expected = db.query(Q).to_set()
        db.close()
        for backend in ("set", "columnar", "sharded"):
            db2 = Database(path=tmp_path / "s", backend=backend)
            assert db2.query(Q).to_set() == expected, backend
            db2.close()

    def test_open_classmethod_detects_directories(self, tmp_path):
        db = Database(path=tmp_path / "s")
        db.install("E", TRIPLES)
        db.close()
        db2 = Database.open(str(tmp_path / "s"))
        assert db2._storage is not None
        assert db2.query(Q).to_set()
        db2.close()

    def test_auto_compaction_on_wal_limit(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORAGE_WAL_LIMIT", "64")
        db = Database(path=tmp_path / "s")
        db.install("E", TRIPLES)
        db.install("R", (("x", "y", "z"),))
        assert db._storage.wal.size == 0  # folded automatically
        assert db._storage.generation > 1
        db.close()

    @pytest.mark.parametrize("value", ["16MiB", "-1"])
    def test_bad_wal_limit_is_refused_at_open(self, tmp_path, monkeypatch, value):
        """Not a non-negative integer: the open names the variable; the
        limit is read there once, so a commit never reads it."""
        monkeypatch.setenv("REPRO_STORAGE_WAL_LIMIT", value)
        with pytest.raises(StorageError, match="REPRO_STORAGE_WAL_LIMIT"):
            Database(path=tmp_path / "s")
        monkeypatch.delenv("REPRO_STORAGE_WAL_LIMIT")
        db = Database(path=tmp_path / "s")
        monkeypatch.setenv("REPRO_STORAGE_WAL_LIMIT", value)
        db.install("E", TRIPLES)  # logged; maybe_compact does not raise
        assert db._storage.wal.size > 0
        db.close()

    def test_close_is_idempotent(self, tmp_path):
        db = Database(path=tmp_path / "s")
        db.install("E", TRIPLES)
        db.close()
        db.close()  # second close is a no-op
        # still queryable afterwards, and durable commits still work
        db.install("R", (("x", "y", "z"),))
        db.close()
        db2 = Database(path=tmp_path / "s")
        assert "R" in db2.store.relation_names
        db2.close()

    def test_close_after_failed_open_is_noop(self, tmp_path):
        store_file = tmp_path / "s"
        db = Database(path=store_file)
        db.close()
        # Engine/backend contradiction raises *after* the durable open;
        # __del__ then closes the partially-constructed object.
        with pytest.raises(ReproError):
            Database(path=store_file, backend="nope")
        # The store stays healthy and reopenable.
        assert fsck_store(str(store_file)) == []
        db2 = Database(path=store_file)
        db2.close()


# --------------------------------------------------------------------- #
# Catalog
# --------------------------------------------------------------------- #


class TestCatalog:
    def test_corrupt_catalog_is_ignored_at_open(self, tmp_path):
        db = Database(path=tmp_path / "s")
        db.install("E", TRIPLES)
        db.query(Q).to_set()
        db.close()
        with open(tmp_path / "s" / "catalog" / "catalog.json", "wb") as fp:
            fp.write(b"\x00garbage")
        findings = fsck_store(tmp_path / "s")
        assert {f.rule for f in findings} == {"STOR-CATALOG"}
        db2 = Database(path=tmp_path / "s")  # opens cold, not an error
        assert db2.cache_info()["plans"].size == 0
        assert db2.query(Q).to_set()
        db2.close()

    def test_other_backend_plans_survive_a_close(self, tmp_path):
        db = Database(path=tmp_path / "s")
        db.install("E", TRIPLES)
        db.query(Q).to_set()
        db.close()
        dbc = Database(path=tmp_path / "s", backend="columnar")
        dbc.query(Q).to_set()
        dbc.close()
        dbs = Database(path=tmp_path / "s")
        dbs.query(Q).to_set()
        assert dbs.cache_info()["plans"].hits == 1
        dbs.close()

    def test_the_catalog_is_query_text(self, tmp_path):
        db = Database(path=tmp_path / "s")
        db.install("E", TRIPLES)
        db.query(Q).to_set()
        db.close()
        doc = json.loads((tmp_path / "s" / "catalog" / "catalog.json").read_bytes())
        assert doc["plans"] == [Q]
        assert doc["relations"]["E"]["cardinality"] == len(TRIPLES)

    def test_a_close_removes_what_an_older_build_kept_there(self, tmp_path):
        db = Database(path=tmp_path / "s")
        db.install("E", TRIPLES)
        db.close()
        catalog = tmp_path / "s" / "catalog"
        for name in ("stats.json", "plans.bin"):
            (catalog / name).write_bytes(b"\x80\x05older build")
        db2 = Database(path=tmp_path / "s")
        assert db2.query(Q).to_set()
        db2.close()
        assert os.listdir(catalog) == ["catalog.json"]
        assert fsck_store(tmp_path / "s") == []

    def test_a_warm_reopen_plans_with_the_sessions_own_engine(self, tmp_path):
        """The cached plan is the reopening engine's, not the closer's."""
        star = "star[1,2,3'; 3=1'](E)"
        db = Database(path=tmp_path / "s", backend="set")
        db.install("E", TRIPLES)
        db.query("select[1!=3](E)").to_set()
        db.plan(star)
        db.close()
        strict = Database(path=tmp_path / "s", engine=FastEngine(strict=True))
        with pytest.raises(FragmentError):
            strict.query("select[1!=3](E)")
        strict.close()
        semi_naive = Database(path=tmp_path / "s", engine=HashJoinEngine())
        assert isinstance(semi_naive.plan(star), StarOp)
        semi_naive.close()


# --------------------------------------------------------------------- #
# fsck + CLI
# --------------------------------------------------------------------- #


@pytest.fixture()
def durable_store(tmp_path):
    root = tmp_path / "store"
    db = Database(path=root)
    db.install("E", TRIPLES)
    db.close()
    return str(root)


class TestFsckCli:
    def test_fsck_healthy_exit_zero(self, durable_store, capsys):
        assert cli_main(["fsck", durable_store]) == 0
        assert "healthy" in capsys.readouterr().out

    def test_fsck_corrupt_exit_nonzero_with_report(self, durable_store, capsys):
        seg = glob.glob(os.path.join(durable_store, "segments", "gen-*", "rel-*.seg"))[0]
        with open(seg, "r+b") as fp:
            fp.seek(36)
            fp.write(b"\xde\xad")
        assert cli_main(["fsck", durable_store]) == 1
        assert "STOR-SEGMENT" in capsys.readouterr().out

    def test_fsck_json_is_structured(self, durable_store, capsys):
        seg = glob.glob(os.path.join(durable_store, "segments", "gen-*", "rel-*.seg"))[0]
        with open(seg, "r+b") as fp:
            fp.seek(36)
            fp.write(b"\xde\xad")
        assert cli_main(["fsck", durable_store, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report and report[0]["rule"] == "STOR-SEGMENT"
        assert report[0]["path"].endswith(".seg")

    def test_fsck_non_store_directory(self, tmp_path, capsys):
        assert cli_main(["fsck", str(tmp_path)]) == 1
        assert "STOR-MANIFEST" in capsys.readouterr().out

    def test_compact_subcommand(self, durable_store):
        db = Database(path=durable_store)
        db.install("R", (("x", "y", "z"),))
        db.close()
        assert cli_main(["compact", durable_store]) == 0
        assert cli_main(["fsck", durable_store]) == 0

    def test_info_reads_durable_directories(self, durable_store, capsys):
        assert cli_main(["info", durable_store]) == 0
        assert "triples:   3" in capsys.readouterr().out


class TestDumpCli:
    def test_dump_roundtrips_through_io_format(self, durable_store, capsys):
        assert cli_main(["dump", durable_store]) == 0
        text = capsys.readouterr().out
        reloaded = io_loads(text)
        db = Database(path=durable_store)
        assert reloaded == db.store
        db.close()

    def test_dump_to_file_and_back(self, durable_store, tmp_path, capsys):
        out = tmp_path / "export.tstore"
        assert cli_main(["dump", durable_store, "-o", str(out)]) == 0
        reloaded = io_loads(out.read_text())
        assert reloaded.relation("E") == frozenset(TRIPLES)

    def test_dump_reads_text_stores_too(self, tmp_path, capsys):
        src = tmp_path / "plain.tstore"
        src.write_text(io_dumps(make_store()))
        assert cli_main(["dump", str(src)]) == 0
        # The text format drops None-valued rho entries, so compare
        # against the io-normalized form of the same store.
        assert io_loads(capsys.readouterr().out) == io_loads(io_dumps(make_store()))


class TestServeStorePath:
    def test_serve_requires_some_store(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["serve"])
        assert exc.value.code == 2
        assert "store" in capsys.readouterr().err

    @pytest.mark.parametrize("failure", ["busy-port", "bad-tenant"])
    def test_failed_start_closes_every_opened_session(
        self, durable_store, tmp_path, monkeypatch, failure, capsys
    ):
        """A start-up that fails after the default tenant opened — a later
        ``--tenant`` that will not open, a port already taken — exits 1
        with every opened session closed: the WAL folded, not left to GC.
        The SIGINT and SIGTERM handlers serve replaced are back."""
        import socket

        ds = DurableStore(durable_store)
        ds.open()
        ds.commit({"F": TRIPLES})  # one unfolded WAL record
        ds.close()
        wal = os.path.join(durable_store, "wal", "wal.log")
        assert os.path.getsize(wal) > 0
        opened, closed = [], []
        real_open = Database.open.__func__

        def spy(cls, path, **kwargs):
            db = real_open(cls, path, **kwargs)
            opened.append(db)
            db.add_close_hook(closed.append)
            return db

        monkeypatch.setattr(Database, "open", classmethod(spy))
        handlers = [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)]
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            argv = ["serve", durable_store, "--port", str(busy.getsockname()[1])]
            if failure == "bad-tenant":
                argv += ["--tenant", f"bad={tmp_path / 'missing.tstore'}"]
            assert cli_main(argv) == 1
        assert "error:" in capsys.readouterr().err
        assert len(opened) == 1 and closed == opened
        assert os.path.getsize(wal) == 0
        assert [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)] == handlers

    def test_serve_without_backend_opens_columnar_sessions(
        self, durable_store, tmp_path
    ):
        import argparse

        from repro.cli import _serve_tenants
        from repro.core import VectorEngine

        args = argparse.Namespace(
            store=durable_store, backend=None,
            tenant=[f"extra={tmp_path / 'extra'}{os.sep}"],
        )
        tenants = _serve_tenants(args)
        try:
            for db in tenants.values():
                assert db.backend == "columnar"
                assert isinstance(db.engine, VectorEngine)
        finally:
            for db in tenants.values():
                db.close()

    def test_sigterm_closes_sessions_like_sigint(self, tmp_path):
        """SIGTERM is a clean way down: exit 0, WAL folded, catalog written."""
        from repro.service import ServiceClient

        root = str(tmp_path / "s")
        ds = DurableStore(root)
        ds.open()
        ds.commit({"E": TRIPLES})  # one unfolded WAL record
        ds.close()
        assert os.path.getsize(os.path.join(root, "wal", "wal.log")) > 0
        log_path = tmp_path / "serve.log"
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", root, "--port", "0"],
                env=dict(os.environ, PYTHONPATH=src),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
            )
        try:
            deadline = time.monotonic() + 60.0
            banner = None
            while banner is None:
                assert proc.poll() is None, log_path.read_text()
                assert time.monotonic() < deadline, "no banner from repro serve"
                banner = re.search(r"serving .* on (http://\S+)", log_path.read_text())
                time.sleep(0.01)
            with ServiceClient(banner.group(1)) as client:
                assert client.query(Q)["total"] == 2
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert "shutting down" in log_path.read_text()
        assert os.path.getsize(os.path.join(root, "wal", "wal.log")) == 0
        assert os.path.exists(os.path.join(root, "catalog", "catalog.json"))
        assert fsck_store(root) == []
        reopened = DurableStore(root)
        assert reopened.open().relation("E") == frozenset(TRIPLES)
        assert reopened.generation == 2  # the fold wrote a new snapshot
        reopened.close()
