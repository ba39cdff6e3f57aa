#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the whole stack (see README.md).

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload svc_point  # one (the driver's form)
    python3 benchmarks/e2e/run.py --workload db_analytic --trace 1
    python3 benchmarks/e2e/run.py --selfcheck            # A/A repeatability (40 min)
    python3 benchmarks/e2e/run.py --quick                # smoke-test scale

Process layout of one workload run::

    run.py (this file; re-executes itself once under the clean child
      │     environment: PYTHONHASHSEED=0, every REPRO_* stripped)
      │     generates the inputs from --seed, builds the durable store,
      │     computes the oracle, aggregates, prints the result line
      └─ session.py    the measured child: hosts the Database, or is the
           │            one closed-loop client of
           └─ python -m repro.cli serve   (svc_* workloads only)

The last stdout line is one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import sys

# Never write bytecode next to the sources (some .pyc files are tracked);
# children cache theirs under out/pycache via PYTHONPYCACHEPREFIX.
sys.dont_write_bytecode = True

import argparse
import glob
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import threading
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPS = 3
#: Runs per set of ``--selfcheck``: what the driver makes per workload.
SELFCHECK_RUNS = 10
#: Share of the distinct ops whose full result the oracle computes.
ORACLE_SHARE = 0.1
#: Triples per relation the naive engine sees at ``--quick`` scale.
NAIVE_ROWS = 300
#: Fresh sessions timed for ``cold_first_ms``: a server restart costs
#: ~0.6 s, an in-process reopen 15-60 ms; the latter get enough of them
#: to span seconds, so one burst of host noise cannot cover them all.
COLD_SESSIONS = {"http": 9, "ws": 9, "inproc": 60}
#: A run must end well inside the driver's 180 s limit.
RUN_DEADLINE_S = 170.0

_CHILD_FLAG = "E2E_CLEAN_ENV"


def clean_env(extra: dict | None = None) -> dict:
    """The environment every child runs in.

    Hash randomisation off, every ``REPRO_*`` variable stripped (a
    workload states the ones it needs), imports resolved from this
    checkout only, bytecode cached under ``out/`` instead of ``src/``.
    """
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join((SRC, HERE))
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    env["PYTHONUNBUFFERED"] = "1"
    env[_CHILD_FLAG] = "1"
    env.update(extra or {})
    return env


# --------------------------------------------------------------------- #
# Store build and oracle (orchestrator side, never timed as ops)
# --------------------------------------------------------------------- #


def build_store(store_dir: str, relations: dict) -> None:
    """A durable columnar store holding ``relations``, cleanly closed."""
    from repro import Database

    db = Database(path=store_dir, backend="columnar")
    try:
        with db.batch():
            for name, triples in relations.items():
                db.install(name, triples)
    finally:
        db.close()


def _plan_keys(plan: dict) -> dict:
    """Every distinct op key of the plan → (statement, params, variant)."""
    by_id = {s["id"]: s for s in plan["statements"]}
    keys = {}
    for op in plan["ops"]:
        if "commit" in op:
            continue
        statement = by_id[op["stmt"]]
        if statement.get("rel"):
            for variant in (0, 1):
                keys[f"{op['key']}@v{variant}"] = (statement, op["params"], variant)
        else:
            keys[op["key"]] = (statement, op["params"], None)
    return keys


def compute_oracle(plan: dict, relations: dict) -> dict:
    """``[total, crc]`` of a seeded ``ORACLE_SHARE`` of the distinct ops, computed
    on the independent ``set`` backend over an in-memory store."""
    from measure import rows_crc
    from repro import Database
    from repro.triplestore.model import Triplestore

    keys = _plan_keys(plan)
    rng = random.Random(f"oracle/{plan['workload']}/{plan['seed']}")
    sample = rng.sample(sorted(keys), max(1, math.ceil(ORACLE_SHARE * len(keys))))
    base = Triplestore(relations)
    sessions: dict = {}
    oracle = {}
    for key in sample:
        statement, params, variant = keys[key]
        which = (statement.get("rel"), variant)
        db = sessions.get(which)
        if db is None:
            store = base
            if variant is not None:
                rel = statement["rel"]
                store = base.with_relation(rel, plan["deltas"][rel][variant])
            db = sessions[which] = Database(store, backend="set")
        bindings = dict(params)
        if statement["nonce"]:
            bindings["x"] = "~oracle"
        rs = db.query(statement["text"], lang=statement["lang"], **bindings)
        oracle[key] = [rs.total, rows_crc(rs)]
    return oracle


def naive_check(plan: dict, relations: dict) -> list[str]:
    """Every template against ``NaiveEngine`` on a tiny slice of the data.

    Returns the ids of the statements that disagree (none, one hopes).
    Run at ``--quick`` scale only: the naive engine is quadratic.
    """
    from repro import Database
    from repro.api import get_language
    from repro.core.engines.naive import NaiveEngine
    from repro.core.params import substitute_params
    from repro.triplestore.model import Triplestore

    tiny = Triplestore({name: triples[:NAIVE_ROWS] for name, triples in relations.items()})
    db = Database(tiny, backend="columnar")
    naive = NaiveEngine()
    first_subject = relations["E"][0][0]
    bad = []
    seen = set()
    for op in plan["ops"]:
        if "commit" in op or op["stmt"] in seen:
            continue
        seen.add(op["stmt"])
        statement = next(s for s in plan["statements"] if s["id"] == op["stmt"])
        bindings = dict(op["params"])
        if "s" in bindings:
            bindings["s"] = first_subject
        if statement["nonce"]:
            bindings["x"] = "~naive"
        expr = get_language(statement["lang"]).compile(db, statement["text"])
        expected = naive.evaluate(substitute_params(expr, bindings), tiny)
        got = db.query(statement["text"], lang=statement["lang"], **bindings).to_set()
        if got != expected:
            bad.append(op["stmt"])
    return bad


# --------------------------------------------------------------------- #
# Session children
# --------------------------------------------------------------------- #


class SessionProcess:
    """One ``session.py`` child; killed with its whole process group."""

    def __init__(self, plan_path: str, mode: str, env: dict, deadline: float) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "session.py"), plan_path, mode],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self._watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), self.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def wait_event(self, name: str) -> dict:
        for line in self.proc.stdout:
            line = line.strip()
            if not line.startswith("{"):
                continue
            event = json.loads(line)
            if event.get("event") == name:
                return event
        code = self.proc.wait()
        raise RuntimeError(f"session exited with {code} before reporting {name!r}")

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def finish(self) -> int:
        """Wait for a clean exit; whatever happens, nothing survives."""
        try:
            return self.proc.wait()
        finally:
            self._watchdog.cancel()
            self.kill()  # the server, should the session have died first
            self.proc.stdout.close()


# --------------------------------------------------------------------- #
# One workload run
# --------------------------------------------------------------------- #


def _sweep_shm(before: set) -> None:
    for path in set(glob.glob("/dev/shm/repro-*")) - before:
        try:
            os.unlink(path)
        except OSError:
            pass


def run_workload(workload: str, seed: int, seconds: float, quick: bool, trace: bool) -> dict:
    """Set up, measure (and, with ``trace``, trace) and tear down one workload.

    Every set-up builds its own store from freshly generated inputs.  A
    plain run sets up ``SETUP_REPS`` times and measures in the last
    session; a traced run measures in one session and replays the ops
    layer by layer in a second one.
    """
    from inputs import FULL, QUICK, build_plan
    from measure import host_metadata

    deadline = time.monotonic() + RUN_DEADLINE_S
    scale = QUICK if quick else FULL
    if trace:
        modes = ["measure", "trace"]
    elif quick:
        modes = ["measure"]
    else:
        modes = ["setup"] * (SETUP_REPS - 1) + ["measure"]
    work_dir = os.path.join(OUT, f"work-{workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    shm_before = set(glob.glob("/dev/shm/repro-*"))
    live: SessionProcess | None = None
    try:
        setup_times = []
        results = {}
        oracle = None
        naive_bad = []
        for rep, mode in enumerate(modes):
            store_dir = os.path.join(work_dir, f"store-{rep}")
            started = perf_counter()
            plan = build_plan(workload, seed, scale)
            relations = plan.pop("relations")
            build_store(store_dir, relations)
            built = perf_counter() - started
            env = clean_env(plan["env"])
            if mode != "setup" and oracle is None:
                oracle = compute_oracle(plan, relations)
                if quick:
                    naive_bad = naive_check(plan, relations)
            plan.update(
                store_dir=store_dir,
                work_dir=work_dir,
                seconds=seconds,
                quick=quick,
                cold_sessions=2 if quick else COLD_SESSIONS[plan["transport"]],
                live_triples=sum(len(t) for t in relations.values()),
                oracle=oracle or {},
            )
            del relations
            plan_path = os.path.join(work_dir, f"plan-{rep}.json")
            with open(plan_path, "w") as fp:
                json.dump(plan, fp)
            started = perf_counter()
            live = SessionProcess(plan_path, mode, env, deadline)
            if mode != "trace":
                live.wait_event("ready")
                setup_times.append(built + perf_counter() - started)
            if mode != "setup":
                results[mode] = live.wait_event("result")
            code = live.finish()
            live = None
            if code != 0:
                raise RuntimeError(f"session ({mode}) exited with {code}")
            shutil.rmtree(store_dir, ignore_errors=True)
        measured = results["measure"]
        m = measured["metrics"]
        errors = [e for r in results.values() for e in r.get("errors", [])]
        failed = sum(r["failed"] for r in results.values()) + len(naive_bad)
        # A result-cache hit means an op did not run, a plan-cache miss
        # that it was planned again: the numbers would describe the
        # caches, not the program.
        if m["result_cache_hits"]:
            failed += m["result_cache_hits"]
            errors.append(f"{m['result_cache_hits']} timed ops hit the result cache")
        if m["plan_cache_hit_ratio"] < plan["plan_hit_floor"]:
            failed += 1
            errors.append(
                f"plan-cache hit ratio {m['plan_cache_hit_ratio']:.3f} "
                f"is below {plan['plan_hit_floor']}"
            )
        metrics = {
            "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
            "peak_rss_mb": (m["peak_rss_mb"], "MB", 1),
            "disk_bytes_per_triple": (m["disk_bytes"] / plan["live_triples"], "B", 1),
            "ops_per_s": (m["ops_per_s"], "1/s", m["passes"]),
            "latency_p50_ms": (m["latency_p50_ms"], "ms", m["samples"]),
            # None below 200 samples, which only --quick allows.
            "latency_p95_ms": (m["latency_p95_ms"], "ms", m["samples"]),
            "cpu_ms_per_op": (m["cpu_ms_per_op"], "ms", m["samples"]),
            "cold_first_ms": (m["cold_first_ms"], "ms", m["cold_samples"]),
        }
        details = {
            "setup_times_s": setup_times,
            "oracle_checked": measured["oracle_checked"],
            **{
                k: m[k]
                for k in (
                    "passes",
                    "timed_wall_s",
                    "pass_walls",
                    "result_cache_hit_ratio",
                    "plan_cache_hit_ratio",
                )
            },
        }
        if trace:
            metrics.update(results["trace"]["metrics"])
            details.update(results["trace"].get("details", {}))
        return {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "quick": quick,
            "trace": trace,
            "host": host_metadata(ROOT, work_dir),
            "env": {
                k: v
                for k, v in env.items()
                if k == "PYTHONHASHSEED" or k.startswith("REPRO_")
            },
            "ops_per_pass": len(plan["ops"]),
            "live_triples": plan["live_triples"],
            "oracle_keys": len(oracle),
            "naive_mismatches": naive_bad,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": failed,
            "correct": failed == 0,
            "errors": errors,
            "metrics": metrics,
            "details": details,
        }
    finally:
        if live is not None:
            live.kill()
            live.finish()
        shutil.rmtree(work_dir, ignore_errors=True)
        _sweep_shm(shm_before)


def print_report(report: dict) -> None:
    host = report["host"]
    print(
        f"== {report['workload']}  seed={report['seed']} seconds={report['seconds']} "
        f"trace={int(report['trace'])} quick={int(report['quick'])}"
    )
    print(
        f"   host: cpus={host['cpu_count']} python={host['python']} "
        f"numpy={host['numpy']} fs={host['store_fs']} commit={host['git_commit'][:12]}"
    )
    print(f"   env: {json.dumps(report['env'], sort_keys=True)}")
    print(
        f"   ops/pass={report['ops_per_pass']} live_triples={report['live_triples']} "
        f"attempted={report['attempted']} failed={report['failed']} "
        f"oracle_keys={report['oracle_keys']}"
    )
    for name, (value, unit, samples) in report["metrics"].items():
        shown = "withheld" if value is None else f"{value:.4f}"
        print(f"   {name:<40} {shown:>14} {unit:<6} n={samples}")
    for key, value in report["details"].items():
        if not isinstance(value, dict):
            print(f"   . {key} = {value}")
    for error in report["errors"]:
        print(f"   ! {error}")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        return json.load(fp)


def result_line(report: dict) -> str:
    """The driver's line: the ``end_to_end`` metrics of ``BENCHMARK.json``
    for a plain run, the ``per_layer`` ones for a traced run."""
    listed = load_spec()["per_layer" if report["trace"] else "end_to_end"]
    metrics = {}
    for name in (m["name"] for m in listed):
        value, unit, _n = report["metrics"][name]
        if value is not None:
            metrics[name] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


def save_report(report: dict) -> None:
    os.makedirs(OUT, exist_ok=True)
    kind = "trace" if report["trace"] else "result"
    with open(os.path.join(OUT, f"{kind}-{report['workload']}.json"), "w") as fp:
        json.dump(report, fp, indent=1)


# --------------------------------------------------------------------- #
# Self check: the same tree against itself
# --------------------------------------------------------------------- #


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def selfcheck(seed: int, seconds: float, quick: bool) -> int:
    """Two sets of ``SELFCHECK_RUNS`` runs of every workload on the same tree.

    The sets are interleaved — for each seed one run of A and one of B,
    taking turns to go first — so that a slow stretch of the host falls
    on both.  Prints, per (workload, metric): the two medians, how much
    worse the second is than the first, and each set's quartile spread.
    A bounded metric breaches when the worsening or a spread exceeds its
    bound (``setup_s`` is held to the worsening only, as the driver does);
    the timing metrics carry no bound and are listed for the record.
    """
    from inputs import WORKLOADS

    bounds = {m["name"]: m for m in load_spec()["end_to_end"]}
    worse_when = {m["name"]: m["better"] for m in load_spec()["per_layer"]}
    sets: list[dict] = [{}, {}]
    for workload in WORKLOADS:
        for i in range(SELFCHECK_RUNS):
            for which in ((0, 1), (1, 0))[i % 2]:
                report = run_workload(workload, seed + i, seconds, quick, False)
                if not report["correct"]:
                    print_report(report)
                    print(f"selfcheck: {workload} failed ops", file=sys.stderr)
                    return 1
                shown = []
                for name, (value, _unit, _n) in report["metrics"].items():
                    if value is not None:
                        sets[which].setdefault((workload, name), []).append(value)
                        shown.append(f"{name}={value:.4g}")
                print(f"# set {'AB'[which]} {workload} seed={seed + i} " + " ".join(shown), flush=True)
    breaches = bounded = 0
    print("| workload | metric | median A | median B | B worse by | spread A | spread B | bound | ok |")
    print("|---|---|---|---|---|---|---|---|---|")
    for (workload, name), a in sets[0].items():
        b = sets[1].get((workload, name), [])
        if len(a) < 2 or len(b) < 2:  # a quick run withheld its p95
            continue
        med_a, med_b = statistics.median(a), statistics.median(b)
        better = bounds[name]["better"] if name in bounds else worse_when[name]
        sign = 1.0 if better == "lower" else -1.0
        worse = sign * (med_b - med_a) / med_a
        spreads = (spread(a), spread(b))
        if name in bounds:
            bound = bounds[name]["bound"]
            ok = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            bounded += 1
            breaches += not ok
            verdict = f"{bound} | {'yes' if ok else 'NO'}"
        else:
            verdict = "none | -"
        print(
            f"| {workload} | {name} | {med_a:.4g} | {med_b:.4g} | {worse:+.3f} | "
            f"{spreads[0]:.3f} | {spreads[1]:.3f} | {verdict} |"
        )
    print(f"selfcheck: {breaches} of {bounded} bounded pairs breach their bound")
    return 1 if breaches else 0


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=None, help="time floor of the timed phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="2 %% scale, 2 s floor (smoke test)")
    parser.add_argument("--selfcheck", action="store_true", help="A/A run: same tree twice")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2 if args.quick else load_spec()["run_seconds"]
    return args


def main(argv: list[str]) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    if os.environ.get(_CHILD_FLAG) != "1":
        # Re-execute under the clean environment (PYTHONHASHSEED must be
        # set before the interpreter starts).
        proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), *argv], env=clean_env())
        try:
            return proc.wait()
        except KeyboardInterrupt:
            proc.send_signal(signal.SIGINT)
            return proc.wait()
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    from inputs import WORKLOADS

    if args.selfcheck:
        return selfcheck(args.seed, args.seconds, args.quick)
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    reports = []
    for workload in [args.workload] if args.workload else WORKLOADS:
        report = run_workload(workload, args.seed, args.seconds, args.quick, bool(args.trace))
        save_report(report)
        print_report(report)
        reports.append(report)
    if args.workload:
        print(result_line(reports[0]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in reports),
                    "attempted": sum(r["attempted"] for r in reports),
                    "failed": sum(r["failed"] for r in reports),
                    "metrics": {
                        f"{r['workload']}/{name}": {"value": value, "unit": unit}
                        for r in reports
                        for name, (value, unit, _n) in r["metrics"].items()
                    },
                }
            )
        )
    return 0 if all(r["correct"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
