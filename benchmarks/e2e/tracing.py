"""The traced run: per-layer numbers from spans around layer calls.

End-to-end numbers never come from here.  ``--trace 1`` replays the
first pass of the workload's op list *in process*, calling each layer's
public functions one by one from this file — parse → optimize →
canonicalize → plan → bind → execute → decode → render → frame for a
read; stage → WAL append → store rebuild → encode → first read for a
write — with a span around every call.  Around that it times the same
ops through the public API untraced (the tracing overhead is the
difference), runs the write cycles against the store, and sends the ops
through a real ``repro serve`` subprocess for the service-edge numbers.

A span is ``{id, parent, op, name, start, end}``; a layer's self time
is its span minus the part its children cover.  Spans are kept in
memory and written to ``out/trace-<workload>.spans.json`` at the end.

Every workload emits every per-layer metric: where a stage is not on
the workload's own op path (a write cycle under ``svc_point``), the
number comes from the same probe run against that workload's store.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import socket
from time import perf_counter

from statistics import median

from inputs import DURABLE_WAL_LIMIT
from measure import percentile, proc_status_kb
from session import (
    InprocTarget,
    ServiceTarget,
    Verifier,
    load_deltas,
    op_key,
    parse_cache_counts,
)

#: Ops sent through the real server for the service-edge numbers.
SERVICE_OPS = 32
STREAM_OPS = 8
HEALTH_PROBES = 30
#: One op per prepared template runs on the other backends.
ENGINE_FAMILIES = 8
REPLAY_RECORDS = 20


class Tracer:
    """Spans in memory; ``with tracer.span(name, op):`` nests by call order."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, op=None) -> "_Span":
        return _Span(self, name, op)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, *names: str) -> float:
        return sum(
            s["end"] - s["start"] for s in self.spans if s["name"] in names
        )

    def self_time(self, name: str) -> float:
        """Time inside ``name`` spans that no child span covers."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + (
                    s["end"] - s["start"]
                )
        return sum(
            s["end"] - s["start"] - covered.get(s["id"], 0.0)
            for s in self.spans
            if s["name"] == name
        )


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str, op) -> None:
        self.tracer = tracer
        stack = tracer._stack
        self.record = {
            "id": len(tracer.spans),
            "parent": stack[-1] if stack else None,
            "op": op,
            "name": name,
            "start": 0.0,
            "end": 0.0,
        }

    def __enter__(self) -> dict:
        tracer, record = self.tracer, self.record
        tracer.spans.append(record)
        tracer._stack.append(record["id"])
        record["start"] = perf_counter()
        return record

    def __exit__(self, *exc) -> bool:
        self.record["end"] = perf_counter()
        self.tracer._stack.pop()
        return False


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _p50_ms(values) -> float:
    return _ms(median(values)) if values else 0.0


# --------------------------------------------------------------------- #
# The traced session
# --------------------------------------------------------------------- #


class TraceSession:
    def __init__(self, plan: dict) -> None:
        self.plan = plan
        self.store_dir = plan["store_dir"]
        self.limit = plan["limit"]
        self.by_id = {s["id"]: s for s in plan["statements"]}
        self.reads = [op for op in plan["ops"] if "commit" not in op]
        self.deltas = load_deltas(plan)
        self.tracer = Tracer()
        self.verifier = Verifier(plan["oracle"])
        self.metrics: dict = {}
        self.details: dict = {}
        self.nonces = 0
        # Delta relations start at variant 1 where the store holds them.
        self.variant = {rel: 1 for rel in self.deltas}

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, samples)

    def nonce(self) -> str:
        self.nonces += 1
        return f"~t{self.nonces}"

    def key_of(self, op: dict) -> str:
        statement = self.by_id[op["stmt"]]
        return op_key(statement, op, self.variant.get(statement.get("rel")))

    # ------------------------------------------------------------------ #
    # Phase 1: reads, in process
    # ------------------------------------------------------------------ #

    def compile_statements(self, db) -> dict:
        """Front-end stages per statement, one span per layer call."""
        from repro.api import get_language
        from repro.core.optimizer import optimize
        from repro.core.params import canonicalize_constants
        from repro.core.parser import parse as parse_expr

        tracer = self.tracer
        compiled = {}
        for s in self.plan["statements"]:
            tag = f"prepare:{s['id']}"
            if s["lang"] == "trial":
                with tracer.span("core.parser.parse", tag):
                    expr = parse_expr(s["text"])
            else:
                with tracer.span("translations.compile", tag):
                    expr = get_language(s["lang"]).compile(db, s["text"])
            with tracer.span("service.analyze", tag):
                db.analyze(s["text"], s["lang"])
            with tracer.span("core.optimizer.optimize", tag):
                logical = optimize(expr)
            with tracer.span("core.params.canonicalize", tag):
                canonical, consts = canonicalize_constants(logical)
            with tracer.span("core.plan.compile", tag):
                plan = db.engine.compile(canonical, db.store)
            compiled[s["id"]] = (canonical, consts, plan)
        return compiled

    def public_pass(self, target: InprocTarget, timed: bool) -> list[float]:
        """The ops through the public API, untraced; verified."""
        walls = []
        qerrors = []
        for op in self.reads:
            self.verifier.attempted += 1
            t0 = perf_counter()
            total, rows = target.run(op, self.nonce())
            walls.append(perf_counter() - t0)
            self.verifier.check(
                self.key_of(op),
                total,
                rows,
                lambda: target.run(op, self.nonce(), full=True),
            )
            stmt = target.prepared.get(op["stmt"])
            if timed and stmt is not None:
                est = max(stmt.plan().est_rows, 1.0)
                actual = max(total, 1)
                qerrors.append(max(est / actual, actual / est))
        if timed:
            self.put("core.plan.root_qerror_p50", median(qerrors), "ratio", len(qerrors))
        return walls

    def staged_pass(self, db, compiled) -> None:
        """The ops stage by stage, a span per layer call."""
        from repro.api import ResultSet
        from repro.api import get_language
        from repro.core.optimizer import optimize
        from repro.core.params import bind_plan, canonicalize_constants
        from repro.core.parser import parse as parse_expr
        from repro.service import ws as wsproto
        from repro.service.protocol import jsonable_row

        tracer = self.tracer
        engine, store = db.engine, db.store
        transport = self.plan["transport"]
        page_size = self.plan.get("page_size")
        left, right = _socketpair() if transport == "ws" else (None, None)
        rows_out = 0
        try:
            for i, op in enumerate(self.reads):
                s = self.by_id[op["stmt"]]
                self.verifier.attempted += 1
                with tracer.span("op", i):
                    if s["nonce"]:
                        canonical, consts, plan = compiled[s["id"]]
                        bindings = {**consts, **op["params"], "x": self.nonce()}
                    else:
                        # Text queries pay the front end on every execution.
                        if s["lang"] == "trial":
                            with tracer.span("core.parser.parse", i):
                                expr = parse_expr(s["text"])
                        else:
                            with tracer.span("translations.compile", i):
                                expr = get_language(s["lang"]).compile(db, s["text"])
                        with tracer.span("core.optimizer.optimize", i):
                            logical = optimize(expr)
                        with tracer.span("core.params.canonicalize", i):
                            canonical, bindings = canonicalize_constants(logical)
                        plan = compiled[s["id"]][2]  # the plan-cache hit
                    with tracer.span("db.bind", i):
                        bound = bind_plan(plan, bindings)
                    with tracer.span("core.engines.execute", i):
                        cs, keys = engine.execute_plan_keys(bound, store)
                    with tracer.span("db.decode", i):
                        rs = ResultSet.from_keys(cs, keys)
                        total = rs.total
                        rows = (
                            rs.to_list()
                            if self.limit is None
                            else rs.limit(self.limit).to_list()
                        )
                    if transport == "http":
                        with tracer.span("service.render", i):
                            json.dumps(
                                {
                                    "rows": [jsonable_row(r) for r in rows],
                                    "total": total,
                                    "returned": len(rows),
                                }
                            ).encode()
                    elif transport == "ws":
                        for start in range(0, len(rows), page_size):
                            with tracer.span("service.render", i):
                                message = json.dumps(
                                    {
                                        "id": "q1",
                                        "seq": start // page_size,
                                        "rows": [
                                            jsonable_row(r)
                                            for r in rows[start : start + page_size]
                                        ],
                                    }
                                ).encode()
                            with tracer.span("service.frame", i):
                                wsproto.send_frame(
                                    left, wsproto.OP_TEXT, message, mask=False
                                )
                                wsproto.read_frame(
                                    right, max_payload=1 << 30, require_mask=False
                                )
                rows_out += total
                self.verifier.check(self.key_of(op), total, rows, lambda: (total, rows))
        finally:
            for sock in (left, right):
                if sock is not None:
                    sock.close()
        self.rows_out = rows_out

    def engine_comparison(self, db, compiled) -> None:
        """One op per prepared template on the three backends."""
        from repro import Database
        from repro.core.params import bind_plan

        families = {}
        for op in self.reads:
            if self.by_id[op["stmt"]]["nonce"] and op["stmt"] not in families:
                families[op["stmt"]] = op
            if len(families) == ENGINE_FAMILIES:
                break
        others = {
            "set": Database(db.store, backend="set"),
            "sharded2": Database(
                db.store, backend="sharded", shards=2, executor="thread"
            ),
        }
        times = {"columnar": [], "set": [], "sharded2": []}
        try:
            for sid, op in families.items():
                canonical, consts, plan = compiled[sid]
                bindings = {**consts, **op["params"], "x": self.nonce()}
                bound = bind_plan(plan, bindings)
                t0 = perf_counter()
                _cs, keys = db.engine.execute_plan_keys(bound, db.store)
                times["columnar"].append(perf_counter() - t0)
                for name, other in others.items():
                    engine = other.engine
                    other_bound = bind_plan(engine.compile(canonical, other.store), bindings)
                    run = getattr(engine, "execute_plan_keys", engine.execute_plan)
                    # Once untimed: the backend's own encoding of the store.
                    if not times[name]:
                        run(other_bound, other.store)
                    t0 = perf_counter()
                    result = run(other_bound, other.store)
                    times[name].append(perf_counter() - t0)
                    size = len(result[1]) if isinstance(result, tuple) else len(result)
                    if size != len(keys):
                        self.verifier.fail(
                            f"{sid}: {name} backend returns {size} rows, "
                            f"columnar {len(keys)}"
                        )
        finally:
            for other in others.values():
                other.close()
        for name, values in times.items():
            self.put(f"core.engines.execute_ms.{name}", _p50_ms(values), "ms", len(values))

    def row_probes(self, db) -> None:
        """Decode, render and frame cost per 1000 rows of relation E."""
        from repro.api import ResultSet
        from repro.service import ws as wsproto
        from repro.service.protocol import jsonable_row

        cs = db.store.columnar()
        keys = cs.relation_keys("E")[:1000]
        krows = len(keys) / 1000.0
        tracer = self.tracer
        reps = 5
        for _ in range(reps):
            with tracer.span("triplestore.decode", "probe"):
                cs.decode_list(keys)
            with tracer.span("db.decode_krow", "probe"):
                rows = ResultSet.from_keys(cs, keys).to_list()
            with tracer.span("service.render_krow", "probe"):
                body = json.dumps({"rows": [jsonable_row(r) for r in rows]}).encode()
        self.put(
            "triplestore.decode_ms_per_krow",
            _p50_ms(tracer.durations("triplestore.decode")) / krows,
            "ms",
            reps,
        )
        self.put(
            "db.decode_ms_per_krow",
            _p50_ms(tracer.durations("db.decode_krow")) / krows,
            "ms",
            reps,
        )
        self.put(
            "service.render_ms_per_krow",
            _p50_ms(tracer.durations("service.render_krow")) / krows,
            "ms",
            reps,
        )
        self.put("service.bytes_per_row", len(body) / max(len(rows), 1), "B", len(rows))
        page = json.dumps({"rows": [jsonable_row(r) for r in rows[:512]]}).encode()
        left, right = _socketpair()
        try:
            for _ in range(20):
                with tracer.span("service.frame_page", "probe"):
                    wsproto.send_frame(left, wsproto.OP_TEXT, page, mask=False)
                    wsproto.read_frame(right, max_payload=1 << 30, require_mask=False)
        finally:
            left.close()
            right.close()
        self.put(
            "service.ws_frame_ms_per_page",
            _p50_ms(tracer.durations("service.frame_page")),
            "ms",
            20,
        )

    def service_microprobes(self, db) -> None:
        from repro.api import get_language
        from repro.service.admission import AdmissionController
        from repro.service.protocol import parse_request

        tracer = self.tracer
        payload = {
            "statement": "stmt-1",
            "params": {"s": "n00001", "x": "~1"},
            "limit": 50,
            "tenant": "default",
        }
        for _ in range(200):
            with tracer.span("service.parse_request", "probe"):
                parse_request(payload, require_query=False)
        admission = AdmissionController(8, 32, 10.0)
        for _ in range(200):
            with tracer.span("service.admit", "probe"):
                with admission.admit():
                    pass
        # The graph-language front ends, on fixed texts over E's labels.
        from inputs import LANGUAGE_FORMS, label

        for _form, lang, text in LANGUAGE_FORMS:
            source = text.format(a=label(0), b=label(1))
            for _ in range(5):
                with tracer.span("translations.compile", "probe"):
                    get_language(lang).compile(db, source)
        for name in ("service.parse_request", "service.admit"):
            values = tracer.durations(name)
            self.put(f"{name}_ms", _p50_ms(values), "ms", len(values))

    def read_phase(self) -> None:
        from repro.storage import catalog

        tracer = self.tracer
        target = InprocTarget(self.plan)
        t0 = perf_counter()
        target.open(self.plan["statements"])
        self.details["db_open_prepare_ms"] = _ms(perf_counter() - t0)
        db = target.db
        try:
            with tracer.span("storage.load_warm", "probe"):
                catalog.load_stats(self.store_dir, db)
                catalog.load_plans(self.store_dir, db)
            compiled = self.compile_statements(db)
            self.public_pass(target, timed=False)  # warm-up
            walls = self.public_pass(target, timed=True)
            self.public_walls = walls
            self.staged_pass(db, compiled)
            self.engine_comparison(db, compiled)
            self.row_probes(db)
            self.service_microprobes(db)
        finally:
            with tracer.span("storage.close_flush", "probe"):
                target.close()
        n = len(walls)
        self.put("db.execute_ms", _p50_ms(walls), "ms", n)
        self.put("db.bind_ms", _p50_ms(tracer.durations("db.bind")), "ms", n)
        engine_s = tracer.durations("core.engines.execute")
        self.put("core.engines.rows_per_s.columnar", self.rows_out / sum(engine_s), "1/s", n)
        for name, span in (
            ("core.parser.parse_ms", "core.parser.parse"),
            ("translations.compile_ms", "translations.compile"),
            ("core.optimizer.optimize_ms", "core.optimizer.optimize"),
            ("core.params.canonicalize_ms", "core.params.canonicalize"),
            ("core.plan.compile_ms", "core.plan.compile"),
            ("service.analyze_ms", "service.analyze"),
            ("storage.load_warm_ms", "storage.load_warm"),
            ("storage.close_flush_ms", "storage.close_flush"),
        ):
            values = tracer.durations(span)
            self.put(name, _p50_ms(values), "ms", len(values))
        # Staged (traced) against public (untraced) wall of the same ops;
        # render/frame have no public in-process counterpart.
        op_wall = tracer.total("op") - tracer.total("service.render", "service.frame")
        self.put(
            "trace.overhead_pct", 100.0 * (op_wall - sum(walls)) / sum(walls), "%", n
        )

    # ------------------------------------------------------------------ #
    # Phase 2: writes
    # ------------------------------------------------------------------ #

    def public_write_cycles(self) -> None:
        """``with db.batch()`` + first and steady read, through the public API."""
        from repro import Database
        from repro.storage import DurableStore

        os.environ["REPRO_STORAGE_WAL_LIMIT"] = str(DURABLE_WAL_LIMIT)
        fsyncs = _CountingCall(os, "fsync")
        snapshots = _CountingCall(DurableStore, "snapshot")
        text = "join[1,2,3'; 3=1'](select[1!=$x]({d}), E)"
        commits, compacted, plain, first, steady, fsync_counts = [], [], [], [], [], []
        staged_bytes = 0
        db = Database.open(self.store_dir, backend="columnar")
        try:
            db.query("select[1=$s](E)", s="~warm").total  # the store's encoding
            rss0 = proc_status_kb("self", "VmRSS")
            io0 = _write_chars()
            cycles = [(rel, v) for v in (0, 1) for rel in sorted(self.deltas)]
            for rel, variant in cycles:
                triples = self.deltas[rel][variant]
                staged_bytes += len(pickle.dumps({rel: frozenset(triples)}))
                f0, s0 = fsyncs.count, snapshots.count
                t0 = perf_counter()
                with db.batch():
                    db.install(rel, triples)
                wall = perf_counter() - t0
                commits.append(wall)
                (compacted if snapshots.count > s0 else plain).append(wall)
                if snapshots.count == s0:
                    fsync_counts.append(fsyncs.count - f0)
                self.variant[rel] = variant
                stmt = db.prepare(text.format(d=rel))
                for sink in (first, steady):
                    t0 = perf_counter()
                    rs = stmt.execute(x=self.nonce())
                    rs.limit(100).to_list()
                    sink.append(perf_counter() - t0)
            written = _write_chars() - io0
            rss1 = proc_status_kb("self", "VmRSS")
        finally:
            db.close()
            fsyncs.restore()
            snapshots.restore()
        n = len(commits)
        self.put("db.commit_ms", _p50_ms(commits), "ms", n)
        self.put("db.commit_p95_ms", _ms(percentile(sorted(commits), 95)), "ms", n)
        self.put("db.read_after_write_ms", _p50_ms(first), "ms", n)
        self.put("db.read_steady_ms", _p50_ms(steady), "ms", n)
        self.put(
            "db.rss_growth_mb_per_100_commits", (rss1 - rss0) / 1024.0 * 100.0 / n, "MB", n
        )
        self.put("storage.fsyncs_per_commit", median(fsync_counts), "count", len(fsync_counts))
        self.put("storage.write_amp", written / staged_bytes, "ratio", n)
        self.put("storage.compactions", len(compacted), "count", n)
        stall = _p50_ms(compacted) - _p50_ms(plain) if compacted else 0.0
        self.put("storage.compact_stall_ms", stall, "ms", len(compacted))

    def staged_write_cycles(self) -> None:
        """The write cycle layer by layer, with no ``Database`` in between."""
        from repro.core.engines.vectorized import VectorEngine
        from repro.core.optimizer import optimize
        from repro.core.params import bind_plan, canonicalize_constants
        from repro.core.parser import parse as parse_expr
        from repro.storage import DurableStore

        tracer = self.tracer
        engine = VectorEngine()
        storage = DurableStore(self.store_dir)
        with tracer.span("storage.open", "probe"):
            store = storage.open()
        try:
            versions = dict(storage.rel_versions)
            store_version = storage.store_version
            store.columnar()
            for cycle, rel in enumerate(sorted(self.deltas)):
                triples = self.deltas[rel][0]
                canonical, consts = canonicalize_constants(
                    optimize(parse_expr(f"join[1,2,3'; 3=1'](select[1!=$x]({rel}), E)"))
                )
                tag = f"cycle:{cycle}"
                with tracer.span("cycle", tag):
                    with tracer.span("db.stage", tag):
                        staged = {rel: frozenset(triples)}
                    with tracer.span("storage.wal_append", tag):
                        storage.commit(staged)
                    with tracer.span("triplestore.rebuild", tag):
                        store = store.with_relation(rel, staged[rel])
                        versions[rel] = versions.get(rel, 0) + 1
                        store_version += 1
                    if storage.wal.size > DURABLE_WAL_LIMIT:
                        with tracer.span("storage.compact", tag):
                            storage.snapshot(store, versions, store_version)
                    # The first read after a commit: re-encode, re-plan, run.
                    with tracer.span("triplestore.encode", tag):
                        store.columnar()
                    with tracer.span("core.plan.compile", tag):
                        plan = engine.compile(canonical, store)
                    with tracer.span("db.bind", tag):
                        bound = bind_plan(plan, {**consts, "x": self.nonce()})
                    with tracer.span("core.engines.execute", tag):
                        cs, keys = engine.execute_plan_keys(bound, store)
                    with tracer.span("db.decode", tag):
                        cs.decode_list(keys[:100])
                self.variant[rel] = 0
        finally:
            # Leave the directory as a clean close would: WAL folded.
            if storage.wal is not None and storage.wal.size > 0:
                storage.snapshot(store, versions, store_version)
            storage.close()
        cycles = tracer.durations("cycle")
        self.put("storage.wal_append_ms", _p50_ms(tracer.durations("storage.wal_append")), "ms", len(cycles))
        self.put("triplestore.encode_ms", _p50_ms(tracer.durations("triplestore.encode")), "ms", len(cycles))
        self.put("triplestore.rebuild_ms", _p50_ms(tracer.durations("triplestore.rebuild")), "ms", len(cycles))
        self.put("storage.open_ms", _p50_ms(tracer.durations("storage.open")), "ms", 1)

    def wal_replay(self) -> None:
        """Open a copy of the directory holding unfolded WAL records."""
        from repro.storage import DurableStore

        os.environ["REPRO_STORAGE_WAL_LIMIT"] = str(1 << 40)
        copy_dir = os.path.join(self.plan["work_dir"], "replay-copy")
        storage = DurableStore(self.store_dir)
        storage.open()
        try:
            rels = sorted(self.deltas)
            for i in range(REPLAY_RECORDS):
                rel = rels[i % len(rels)]
                variant = (i // len(rels) + 1) % 2
                storage.commit({rel: frozenset(self.deltas[rel][variant])})
                self.variant[rel] = variant
            storage.close()
            shutil.copytree(self.store_dir, copy_dir)
        finally:
            storage.close()
        replayed = DurableStore(copy_dir)
        try:
            t0 = perf_counter()
            replayed.open()
            self.put("storage.wal_replay_ms", _ms(perf_counter() - t0), "ms", REPLAY_RECORDS)
        finally:
            replayed.close()
            shutil.rmtree(copy_dir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # Phase 3: the real server
    # ------------------------------------------------------------------ #

    def service_phase(self) -> None:
        # HTTP replies carry what the op consumes in process (everything,
        # for the streaming workload), so the two walls compare like work.
        plan = dict(self.plan, transport="http")
        target = ServiceTarget(plan)
        prepared = [s for s in self.plan["statements"] if s["nonce"]]
        ops = [op for op in self.reads if self.by_id[op["stmt"]]["nonce"]]
        if self.plan["transport"] == "ws":
            http_ops, ws_ops = ops[:STREAM_OPS], ops[: SERVICE_OPS // 2]
        else:
            http_ops, ws_ops = ops[:SERVICE_OPS], ops[:STREAM_OPS]
        # The store now holds variant 0 of every delta relation.
        try:
            target.open(prepared)
            client = target.client
            edge = []
            for _ in range(HEALTH_PROBES):
                t0 = perf_counter()
                client.health()
                edge.append(perf_counter() - t0)
            self.put("service.edge_ms", _p50_ms(edge), "ms", len(edge))
            # warm-up of the server's store encoding, then the measured ops
            target.run(http_ops[0], self.nonce())
            before = client.metrics()
            http_walls = []
            for op in http_ops:
                self.verifier.attempted += 1
                t0 = perf_counter()
                total, rows = target.run(op, self.nonce())
                http_walls.append(perf_counter() - t0)
                self.verifier.check(self.key_of(op), total, rows, lambda: (total, rows))
            mid = client.metrics()
            ws_walls, first_page = [], []
            for op in ws_ops:
                self.verifier.attempted += 1
                t0 = perf_counter()
                total, rows, first = _stream(target, op, self.nonce())
                ws_walls.append(perf_counter() - t0)
                first_page.append(first - t0)
                if total != len(rows):
                    self.verifier.fail(f"{op['key']}: streamed {len(rows)} of {total} rows")
            after = client.metrics()
        finally:
            target.close()
        server_http = _histogram_delta(before, mid)
        pages = _counter(after, "repro_ws_pages_total") - _counter(mid, "repro_ws_pages_total")
        rejected = _counter(after, "repro_admission_rejections_total") - _counter(
            before, "repro_admission_rejections_total"
        )
        counts0, counts1 = parse_cache_counts(before), parse_cache_counts(after)
        delta = {k: counts1[k] - counts0.get(k, 0) for k in counts1}
        own_walls = ws_walls if self.plan["transport"] == "ws" else http_walls
        self.service_wall = sum(own_walls) / len(own_walls)
        self.put("service.server_ms", _ms(server_http), "ms", len(http_ops))
        inproc = self.public_walls[: len(http_ops)]
        self.put(
            "service.request_overhead_ms",
            _ms(server_http - sum(inproc) / len(inproc)),
            "ms",
            len(http_ops),
        )
        self.put("service.first_page_ms", _p50_ms(first_page), "ms", len(first_page))
        self.put("service.ws_pages", pages, "count", len(ws_ops))
        self.put("service.rejected_ops", rejected, "count", len(http_ops) + len(ws_ops))
        lookups = delta["results_hit"] + delta["results_miss"]
        self.put("db.result_cache_hit_ratio", delta["results_hit"] / lookups, "ratio", lookups)
        lookups = delta["plans_hit"] + delta["plans_miss"]
        self.put("db.plan_cache_hit_ratio", delta["plans_hit"] / lookups, "ratio", lookups)
        self.details["service_http_p50_ms"] = _p50_ms(http_walls)
        self.details["service_ws_p50_ms"] = _p50_ms(ws_walls)

    # ------------------------------------------------------------------ #
    # Shares of op time per layer
    # ------------------------------------------------------------------ #

    def shares(self) -> None:
        tracer = self.tracer
        reads = [s for s in tracer.spans if s["name"] == "op"]
        n = len(reads)

        def per_read(*names: str) -> float:
            ids = {s["id"] for s in reads}
            return (
                sum(
                    s["end"] - s["start"]
                    for s in tracer.spans
                    if s["parent"] in ids and s["name"] in names
                )
                / n
            )

        engines = per_read("core.engines.execute")
        frontend = per_read(
            "core.parser.parse",
            "translations.compile",
            "core.optimizer.optimize",
            "core.params.canonicalize",
        )
        db_time = per_read("db.bind", "db.decode")
        staged_wall = sum(s["end"] - s["start"] for s in reads) / n
        inproc = engines + frontend + db_time
        if self.plan["transport"] == "inproc":
            wall = staged_wall
            service = 0.0
        else:
            # Over the wire the op costs what the client saw; whatever the
            # in-process stages do not explain is the service layer's.
            wall = self.service_wall
            service = max(wall - inproc, 0.0)
        # A write cycle is stage -> WAL append -> store rebuild (-> compact)
        # -> re-encode -> first read; in durable_mixed one cycle per 8 reads
        # belongs to the op mix, elsewhere the cycles are a probe.
        cycles = len(tracer.durations("cycle"))
        cycle_wall = tracer.total("cycle")
        in_cycle = {s["id"] for s in tracer.spans if s["name"] == "cycle"}

        def per_cycle(*names: str) -> float:
            return sum(
                s["end"] - s["start"]
                for s in tracer.spans
                if s["parent"] in in_cycle and s["name"] in names
            )

        storage_write = per_cycle("storage.wal_append", "storage.compact")
        triplestore_write = per_cycle("triplestore.rebuild", "triplestore.encode")
        commits = sum("commit" in op for op in self.plan["ops"])
        per_read = commits / cycles / len(self.reads)
        wall += cycle_wall * per_read
        unattributed = tracer.self_time("op") + tracer.self_time("cycle")
        self.put(
            "trace.unattributed_pct",
            100.0 * unattributed / (tracer.total("op") + cycle_wall),
            "%",
            n + cycles,
        )
        for name, value in (
            ("share.service_pct", service),
            ("share.core_engines_pct", engines),
            ("share.core_frontend_pct", frontend),
            ("share.db_pct", db_time),
            ("share.triplestore_pct", triplestore_write * per_read),
            ("share.storage_pct", storage_write * per_read),
        ):
            self.put(name, 100.0 * value / wall, "%", n)
        self.put(
            "share.write_cycle_storage_pct",
            100.0 * (storage_write + triplestore_write) / cycle_wall,
            "%",
            cycles,
        )

    def run(self) -> dict:
        self.read_phase()
        self.public_write_cycles()
        self.staged_write_cycles()
        self.wal_replay()
        self.service_phase()
        self.shares()
        out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, f"trace-{self.plan['workload']}.spans.json"), "w") as fp:
            json.dump(self.tracer.spans, fp)
        return {
            "metrics": self.metrics,
            "details": self.details,
            "attempted": self.verifier.attempted,
            "failed": self.verifier.failed,
            "errors": self.verifier.errors,
        }


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #


def _socketpair():
    left, right = socket.socketpair()
    for sock in (left, right):
        # A whole page must fit: sender and reader share this thread.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 22)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
    return left, right


class _CountingCall:
    """Counts calls of ``owner.name`` (``os.fsync``); ``restore`` undoes it."""

    def __init__(self, owner, name: str) -> None:
        self.owner, self.name = owner, name
        self.original = getattr(owner, name)
        self.count = 0
        original = self.original

        def counted(*args, **kwargs):
            self.count += 1
            return original(*args, **kwargs)

        setattr(owner, name, counted)

    def restore(self) -> None:
        setattr(self.owner, self.name, self.original)


def _write_chars() -> int:
    """Bytes this process has passed to write calls (``/proc/self/io``)."""
    with open("/proc/self/io") as fp:
        for line in fp:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


def _counter(exposition: str, name: str) -> float:
    total = 0.0
    for line in exposition.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            total += float(line.rsplit(" ", 1)[1])
    return total


def _histogram_delta(before: str, after: str) -> float:
    """Mean of ``repro_query_seconds`` observations between two scrapes."""
    count = _counter(after, "repro_query_seconds_count") - _counter(
        before, "repro_query_seconds_count"
    )
    total = _counter(after, "repro_query_seconds_sum") - _counter(
        before, "repro_query_seconds_sum"
    )
    return total / count if count else 0.0


def _stream(target: ServiceTarget, op: dict, nonce: str):
    """One streamed op; also when its first page arrived."""
    rows: list = []
    total, first = None, None
    for message in target.client.stream(
        statement=target.sids[op["stmt"]],
        params={**op["params"], "x": nonce},
        page_size=512,
    ):
        if first is None:
            first = perf_counter()
        if message.get("done"):
            total = message["total"]
        else:
            rows.extend(message["rows"])
    return total, rows, first


def trace_session(plan: dict) -> dict:
    return TraceSession(plan).run()
