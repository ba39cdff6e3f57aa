"""The measured child process of one workload.

One session either hosts the ``Database`` itself (``db_analytic``,
``durable_mixed``) or is the single closed-loop client of a ``repro
serve`` subprocess it starts (``svc_*``).  It reads the plan the
orchestrator wrote, sets up (open or start server, prepare, one untimed
warm-up pass), reports ``ready``, then — in ``measure`` mode — replays
whole passes of the op list for the time floor, closes cleanly and
times the cold sessions.  Wall and CPU are taken around each op and
nothing else, so verification never shows in a reported time.
Nothing heavy happens here before the timed
phase: inputs, the store build and the oracle belong to the
orchestrator, so ``VmHWM`` of an in-process session is the program's.

Protocol: one JSON object per line on stdout, ``{"event": "ready"}``
and ``{"event": "result", ...}``.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
import time
from statistics import median
from time import perf_counter

from measure import (
    dir_bytes,
    percentile,
    proc_cpu_seconds,
    proc_status_kb,
    rows_crc,
)

#: Peak RSS is read at the end of this timed pass — after a fixed number
#: of ops, so a faster program (more passes in the same time) does not
#: read as a bigger one.  It is also the minimum number of timed passes.
RSS_PASS = 3
#: A 95th percentile is reported only from this many latency samples;
#: a full-scale timed phase goes on until it has them.
P95_MIN_SAMPLES = 200


def _emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


# --------------------------------------------------------------------- #
# Targets: where the ops go
# --------------------------------------------------------------------- #


class InprocTarget:
    """Ops run against a ``Database`` in this process."""

    def __init__(self, plan: dict) -> None:
        self.plan = plan
        self.limit = plan["limit"]
        self.db = None
        self.prepared: dict = {}
        self.texts: dict = {}

    def open(self, statements) -> None:
        from repro import Database

        self.db = Database.open(self.plan["store_dir"], backend="columnar")
        for s in statements:
            if s["nonce"]:
                self.prepared[s["id"]] = self.db.prepare(s["text"], lang=s["lang"])
            else:
                self.texts[s["id"]] = s

    def run(self, op: dict, nonce: str, full: bool = False):
        stmt = self.prepared.get(op["stmt"])
        if stmt is not None:
            rs = stmt.execute(**op["params"], x=nonce)
        else:
            s = self.texts[op["stmt"]]
            rs = self.db.query(s["text"], lang=s["lang"])
        total = rs.total
        if full or self.limit is None:
            return total, rs.to_list()
        return total, rs.limit(self.limit).to_list()

    def commit(self, relation: str, triples) -> None:
        with self.db.batch():
            self.db.install(relation, triples)

    def cpu_seconds(self) -> float:
        return time.process_time()

    def peak_rss_kb(self) -> int:
        return proc_status_kb("self", "VmHWM")

    def cache_counts(self) -> dict:
        info = self.db.cache_info()
        return {
            "results_hit": info["results"].hits,
            "results_miss": info["results"].misses,
            "plans_hit": info["plans"].hits,
            "plans_miss": info["plans"].misses,
        }

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None
        self.prepared.clear()


_CACHE_LINE = re.compile(
    r'^repro_cache_events_total\{([^}]*)\} (\S+)$', re.MULTILINE
)


def parse_cache_counts(exposition: str) -> dict:
    """``repro_cache_events_total`` of the default tenant, by cache/event."""
    counts = {}
    for labels, value in _CACHE_LINE.findall(exposition):
        fields = dict(re.findall(r'(\w+)="([^"]*)"', labels))
        if fields.get("tenant") == "default" and fields.get("cache") in (
            "results",
            "plans",
        ):
            counts[f"{fields['cache']}_{fields['event']}"] = int(float(value))
    return counts


class ServiceTarget:
    """Ops go over one kept-alive connection to a ``repro serve`` child."""

    def __init__(self, plan: dict) -> None:
        self.plan = plan
        self.limit = plan["limit"]
        self.stream = plan["transport"] == "ws"
        self.server = None
        self.client = None
        self.sids: dict = {}
        self._starts = 0

    def open(self, statements) -> None:
        from repro.service.client import ServiceClient
        from serverproc import ServerProcess

        self._starts += 1
        log = os.path.join(
            self.plan["work_dir"], f"server-{os.getpid()}-{self._starts}.log"
        )
        env = dict(os.environ)
        self.server = ServerProcess(self.plan["store_dir"], env, log).start()
        self.client = ServiceClient(self.server.url, timeout=120.0)
        for s in statements:
            body = self.client.prepare(s["text"], lang=s["lang"])
            self.sids[s["id"]] = body["statement"]

    def run(self, op: dict, nonce: str, full: bool = False):
        params = {**op["params"], "x": nonce}
        sid = self.sids[op["stmt"]]
        if not self.stream:
            limit = None if full else self.limit
            body = self.client.execute(sid, params, limit=limit)
            return body["total"], body["rows"]
        rows: list = []
        total = None
        for message in self.client.stream(
            statement=sid, params=params, page_size=self.plan["page_size"]
        ):
            if message.get("done"):
                total = message["total"]
            else:
                rows.extend(message["rows"])
        return total, rows

    def cpu_seconds(self) -> float:
        return proc_cpu_seconds(self.server.pid)

    def peak_rss_kb(self) -> int:
        return proc_status_kb(self.server.pid, "VmHWM")

    def cache_counts(self) -> dict:
        return parse_cache_counts(self.client.metrics())

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None
        self.sids.clear()


def make_target(plan: dict):
    return InprocTarget(plan) if plan["transport"] == "inproc" else ServiceTarget(plan)


# --------------------------------------------------------------------- #
# Verification (always outside the timed span)
# --------------------------------------------------------------------- #


class Verifier:
    """Checks every op: ``total`` + CRC of the consumed rows.

    ``oracle`` maps op keys to the ``[total, crc]`` of the *full* result
    computed on the independent ``set`` backend; the first execution of
    such a key is repeated untimed with the whole result consumed and
    compared to it.  For every key the first-seen ``(total, crc of the
    consumed window)`` pins all later executions.
    """

    def __init__(self, oracle: dict) -> None:
        self.oracle = oracle
        self.pinned: dict = {}
        self.attempted = 0
        self.failed = 0
        self.oracle_checked = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)
            print(f"FAILED op: {message}", file=sys.stderr, flush=True)

    def check(self, key: str, total, rows, rerun_full) -> bool:
        seen = (total, rows_crc(rows))
        pinned = self.pinned.get(key)
        if pinned is None:
            self.pinned[key] = seen
            expected = self.oracle.get(key)
            if expected is not None:
                self.oracle_checked += 1
                full_total, full_rows = rerun_full()
                got = [full_total, rows_crc(full_rows)]
                if got != expected or full_total != total:
                    self.fail(f"{key}: oracle expects {expected}, got {got}")
                    return False
            return True
        if seen != pinned:
            self.fail(f"{key}: first seen {pinned}, now {seen}")
            return False
        return True


# --------------------------------------------------------------------- #
# The session
# --------------------------------------------------------------------- #


def load_deltas(plan: dict) -> dict:
    """The plan's delta relations; JSON turned their triples into lists,
    the store wants tuples."""
    return {
        rel: [[tuple(t) for t in variant] for variant in variants]
        for rel, variants in plan["deltas"].items()
    }


def op_key(statement: dict, op: dict, variant: int) -> str:
    """The expectation key of a read: ops over a delta relation give a
    different result per installed variant."""
    return f"{op['key']}@v{variant}" if statement.get("rel") else op["key"]


class Session:
    def __init__(self, plan: dict) -> None:
        self.plan = plan
        self.ops = plan["ops"]
        self.statements = plan["statements"]
        self.by_id = {s["id"]: s for s in self.statements}
        self.deltas = load_deltas(plan)
        self.target = make_target(plan)
        self.verifier = Verifier(plan["oracle"])
        self.nonces = 0

    def nonce(self) -> str:
        self.nonces += 1
        return f"~{os.getpid()}.{self.nonces}"

    def run_pass(self, index: int) -> tuple[list[float], float]:
        """One whole pass of the op list; pass ``index`` installs delta
        variant ``index % 2``.

        Returns the wall of every verified op and the CPU the
        ``Database``-hosting process spent inside the op spans.  Nonce,
        verification and oracle reruns happen between the spans, so
        neither number holds any harness work.
        """
        target, verifier = self.target, self.verifier
        cpu_seconds = target.cpu_seconds
        variant = index % 2
        walls: list[float] = []
        busy = 0.0
        for op in self.ops:
            verifier.attempted += 1
            try:
                if "commit" in op:
                    triples = self.deltas[op["commit"]][variant]
                    c0 = cpu_seconds()
                    t0 = perf_counter()
                    target.commit(op["commit"], triples)
                    elapsed = perf_counter() - t0
                    busy += cpu_seconds() - c0
                    ok = True
                else:
                    nonce = self.nonce()
                    c0 = cpu_seconds()
                    t0 = perf_counter()
                    total, rows = target.run(op, nonce)
                    elapsed = perf_counter() - t0
                    busy += cpu_seconds() - c0
                    ok = verifier.check(
                        op_key(self.by_id[op["stmt"]], op, variant),
                        total,
                        rows,
                        lambda: target.run(op, self.nonce(), full=True),
                    )
            except Exception as exc:  # a failed or refused op is a failed op
                verifier.fail(f"{op.get('key')}: {type(exc).__name__}: {exc}")
                continue
            if ok:
                walls.append(elapsed)
        return walls, busy

    def set_up(self) -> None:
        self.target.open(self.statements)
        self.run_pass(0)

    def measure(self, seconds: float) -> dict:
        """Whole passes until ``seconds`` have gone by, ``RSS_PASS`` passes
        are done and (at full scale) a p95 has its samples."""
        target = self.target
        min_samples = 0 if self.plan["quick"] else P95_MIN_SAMPLES
        gc.collect()
        gc.freeze()
        counts0 = target.cache_counts()
        start = perf_counter()
        passes = 0
        peak_rss_kb = None
        latencies: list[float] = []
        pass_walls = []  # sum of the op spans of each pass
        pass_rates = []
        cpu = 0.0
        while (
            passes < RSS_PASS
            or perf_counter() - start < seconds
            or len(latencies) < min_samples
        ):
            passes += 1
            walls, busy = self.run_pass(passes)
            if walls:
                latencies += walls
                pass_walls.append(sum(walls))
                pass_rates.append(len(walls) / sum(walls))
                cpu += busy
            # Between passes, outside every op span: cyclic garbage
            # (replaced store versions) is otherwise freed whenever the
            # allocation counters happen to trigger a collection, which
            # made peak RSS differ by 15 % from seed to seed.
            gc.collect()
            if passes == RSS_PASS:
                peak_rss_kb = target.peak_rss_kb()
        self.last_pass = passes
        counts1 = target.cache_counts()
        delta = {k: counts1.get(k, 0) - counts0.get(k, 0) for k in counts1}
        n = len(latencies)
        if n == 0:
            raise RuntimeError("no op succeeded in the timed phase")
        latencies.sort()
        result_lookups = delta["results_hit"] + delta["results_miss"]
        plan_lookups = delta["plans_hit"] + delta["plans_miss"]
        return {
            # Median over the passes (each the same op mix): a burst of
            # host noise shorter than half the phase drops out.
            "ops_per_s": median(pass_rates),
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p95_ms": (
                percentile(latencies, 95) * 1e3 if n >= P95_MIN_SAMPLES else None
            ),
            # Total, not per pass: /proc counts a server's CPU in 10 ms ticks.
            "cpu_ms_per_op": cpu * 1e3 / n,
            "peak_rss_mb": peak_rss_kb / 1024.0,
            "samples": n,
            "passes": passes,
            "timed_wall_s": perf_counter() - start,
            "pass_walls": [round(wall, 3) for wall in pass_walls],
            "result_cache_hits": delta["results_hit"],
            "result_cache_hit_ratio": (
                delta["results_hit"] / result_lookups if result_lookups else 0.0
            ),
            "plan_cache_hit_ratio": (
                delta["plans_hit"] / plan_lookups if plan_lookups else 0.0
            ),
        }

    def cold_sessions(self, count: int) -> list[float]:
        """Open → first verified result of the first read op, ``count`` times."""
        op = next(o for o in self.ops if "commit" not in o)
        statement = [self.by_id[op["stmt"]]]
        # The timed phase ended on an odd or even pass; its delta variant
        # is what the reopened store holds.
        variant = self.last_pass % 2
        times = []
        for _ in range(count):
            target = make_target(self.plan)
            try:
                self.verifier.attempted += 1
                t0 = perf_counter()
                target.open(statement)
                total, rows = target.run(op, self.nonce())
                elapsed = perf_counter() - t0
                ok = self.verifier.check(
                    op_key(statement[0], op, variant),
                    total,
                    rows,
                    lambda: target.run(op, self.nonce(), full=True),
                )
                if ok:
                    times.append(elapsed)
            except Exception as exc:
                self.verifier.fail(f"cold session: {type(exc).__name__}: {exc}")
            finally:
                target.close()
        return times


def main(argv: list[str]) -> int:
    plan_path, mode = argv
    with open(plan_path) as fp:
        plan = json.load(fp)
    if mode == "trace":
        from tracing import trace_session

        result = trace_session(plan)
        _emit("result", **result)
        return 0
    session = Session(plan)
    try:
        session.set_up()
        _emit("ready")
        if mode == "setup":
            return 0
        metrics = session.measure(plan["seconds"])
        session.target.close()
        disk = dir_bytes(plan["store_dir"])
        cold = session.cold_sessions(plan["cold_sessions"])
        if not cold:
            raise RuntimeError("no cold session succeeded")
        metrics["cold_first_ms"] = median(cold) * 1e3
        metrics["cold_samples"] = len(cold)
        metrics["disk_bytes"] = disk
        verifier = session.verifier
        _emit(
            "result",
            metrics=metrics,
            attempted=verifier.attempted,
            failed=verifier.failed,
            oracle_checked=verifier.oracle_checked,
            errors=verifier.errors,
        )
        return 0
    finally:
        session.target.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
