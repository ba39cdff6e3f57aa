"""Command-line interface: query triplestore files from the shell.

All commands route through the :class:`repro.db.Database` facade —
parse → logical optimizer → cost-based physical planner → executor —
and its v2 query API (prepared statements, streaming cursors,
structured explain).

Usage (after installation, or via ``python -m repro.cli``)::

    # TriAL / TriAL* queries in the text syntax
    python -m repro.cli query store.tstore "star[1,2,3'; 3=1'](E)"
    python -m repro.cli query store.tstore "join[1,3',3; 2=1'](E, E)" --engine naive
    python -m repro.cli query store.tstore "join[1,3',3; 2=1'](E, E)" --explain

    # Parameterized queries: $name placeholders bound with --param
    python -m repro.cli query store.tstore "select[2=$label](E)" --param label=part_of

    # Other registered languages through the same front door
    python -m repro.cli query store.tstore "a/b-" --lang gxpath

    # The same plan on another engine (default: vector, the columnar
    # backend): tuple-at-a-time sets, or shard-parallel arrays
    python -m repro.cli query store.tstore "star[1,2,3'; 3=1'](E)" --engine fast
    python -m repro.cli query store.tstore "join[1,2,3'; 3=1'](E, E)" --engine sharded

    # Fragment, physical plan with cost estimates, plan violations and
    # semantic findings (store optional: anchors stats); exit 1 on any
    python -m repro.cli explain "star[1,2,3'; 3=1'](E)" --store store.tstore
    python -m repro.cli explain "join[1,2,3'; 3=1'](E, E)" --json

    # Datalog programs (translated to TriAL(*) and planned when possible)
    python -m repro.cli datalog store.tstore program.dl --validate ReachTripleDatalog

    # Store statistics
    python -m repro.cli info store.tstore

    # Durable store directories: check, compact, export
    python -m repro.cli fsck /var/lib/repro/default
    python -m repro.cli compact /var/lib/repro/default
    python -m repro.cli dump /var/lib/repro/default -o export.tstore

    # Serve a store over HTTP/WebSocket, then query it remotely
    python -m repro.cli serve store.tstore --port 8377 --backend sharded
    python -m repro.cli serve /var/lib/repro/default --tenant eu=/var/lib/repro/eu
    python -m repro.cli connect http://127.0.0.1:8377 "star[1,2,3'; 3=1'](E)"
    python -m repro.cli connect http://127.0.0.1:8377 "E" --stream
    python -m repro.cli connect http://127.0.0.1:8377 --metrics

Store files use the :mod:`repro.triplestore.io` text format.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from typing import Sequence

from repro.api import ResultSet, explain_report
from repro.core import ENGINE_REGISTRY
from repro.core.parser import parse as parse_expr
from repro.datalog import parse_program, validate_fragment
from repro.db import BACKENDS, Database
from repro.errors import ReproError
from repro.triplestore import load_path

ENGINES = ENGINE_REGISTRY


def _row_limit(raw: str) -> int | None:
    """The ``--limit`` type: a row count >= 0; ``None`` (all rows) for 0."""
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a row count >= 0, got {raw!r}")
    return value or None


def _print_result(result: ResultSet, limit: int | None) -> None:
    """Stream a result to stdout, decoding only the rows shown.

    ``result.limit(...)`` slices the backing packed-key array *before*
    dictionary decode on the columnar/sharded backends — ``--limit 20``
    on a million-row result decodes 20 triples, not a million.
    """
    total = result.total
    shown = result if limit is None else result.limit(limit)
    for s, p, o in shown:
        print(f"{s!r}\t{p!r}\t{o!r}")
    if limit is not None and total > limit:
        print(f"... ({total - limit} more; use --limit 0 for all)")
    print(f"# {total} triples")


def _print_pairs(pairs: frozenset, limit: int | None) -> None:
    rows = sorted(pairs, key=repr)
    shown = rows if limit is None else rows[:limit]
    for s, o in shown:
        print(f"{s!r}\t{o!r}")
    if limit is not None and len(rows) > limit:
        print(f"... ({len(rows) - limit} more; use --limit 0 for all)")
    print(f"# {len(rows)} pairs")


def _parse_bindings(raw_params: Sequence[str] | None) -> dict:
    bindings: dict[str, str] = {}
    for raw in raw_params or ():
        name, sep, value = raw.partition("=")
        if not sep or not name:
            raise ReproError(f"--param expects name=value, got {raw!r}")
        bindings[name] = value
    return bindings


def _cmd_query(args: argparse.Namespace) -> int:
    db = Database.open(args.store, engine=ENGINES[args.engine]())
    bindings = _parse_bindings(args.param)
    if args.lang != "trial" and bindings:
        raise ReproError("--param only applies to TriAL queries")
    source = parse_expr(args.expression) if args.lang == "trial" else args.expression
    stmt = db.prepare(source, lang=args.lang)
    if args.explain:
        print(db.explain(source, lang=args.lang), file=sys.stderr)
    result = stmt.execute(**bindings)
    if args.lang != "trial":
        _print_pairs(result.pairs(), args.limit)
    else:
        _print_result(result, args.limit)
    return 0


def _cmd_datalog(args: argparse.Namespace) -> int:
    db = Database.open(args.store)
    with open(args.program, encoding="utf-8") as fp:
        program = parse_program(fp.read(), answer=args.answer)
    if args.validate:
        validate_fragment(program, args.validate)
        print(f"# program is valid {args.validate}¬", file=sys.stderr)
    from repro.datalog.validate import analyze_program

    for finding in analyze_program(program):
        print(f"# warning: {finding}", file=sys.stderr)
    result = db.query(program, lang="datalog")
    _print_result(result, args.limit)
    return 0


def _open_store(path: str):
    """A triplestore from a durable directory or an ``io`` text file."""
    if os.path.isdir(path):
        from repro.storage import DurableStore

        storage = DurableStore(path)
        store = storage.open()
        storage.close()
        return store
    return load_path(path)


def _cmd_info(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    print(f"objects:   {store.n_objects}")
    print(f"triples:   {len(store)}")
    stats = store.stats()
    for name in store.relation_names:
        rel = stats.relation(name)
        d = rel.distinct
        print(
            f"  {name}: {rel.cardinality} "
            f"(distinct s/p/o: {d[0]}/{d[1]}/{d[2]})"
        )
    with_data = sum(1 for o in store.objects if store.rho(o) is not None)
    print(f"rho-assigned objects: {with_data}")
    if os.path.isdir(args.store):
        from repro.storage import store_footprint

        fp = store_footprint(args.store)
        print(
            f"on disk:   {fp['total']} bytes, generation {fp['generation']} "
            f"({fp['total'] / max(len(store), 1):.2f} per live triple)"
        )
        print(f"  relation keys: {fp['relations']}")
        print(f"  dictionary:    {fp['dictionary']} (meta + dv_codes)")
        print(f"  catalog:       {fp['catalog']}")
        print(f"  wal:           {fp['wal']}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    store = _open_store(args.store) if args.store else None
    report = explain_report(parse_expr(args.expression), store)
    print(report.to_json() if args.json else report)
    if report.violations or report.analysis:
        print(
            f"{len(report.violations)} violation(s), "
            f"{len(report.analysis)} finding(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _rule_ids(values):
    """Flatten repeated/comma-separated ``--select``/``--ignore`` values."""
    if not values:
        return None
    return [p.strip() for v in values for p in v.split(",") if p.strip()]


def _cmd_lint(args: argparse.Namespace) -> int:
    """Exit 0 on a clean tree, 1 on findings, 2 on an unknown rule ID."""
    from repro.analysis.invariants import LINT_RULES
    from repro.analysis.lint import run_lint

    if args.list_rules:
        for rule, text in LINT_RULES.items():
            print(f"{rule}: {text}")
        return 0
    try:
        findings = run_lint(
            args.root,
            paths=args.paths or None,
            select=_rule_ids(args.select),
            ignore=_rule_ids(args.ignore),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.storage import fsck_store

    findings = fsck_store(args.store)
    if args.json:
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding)
        status = "corrupt" if findings else "healthy"
        print(f"# {args.store}: {status}, {len(findings)} finding(s)")
    return 1 if findings else 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.storage import DurableStore

    storage = DurableStore(args.store)
    store = storage.open()  # replays any committed WAL records
    before = storage.wal.size if storage.wal is not None else 0
    held = {entry.inode() for entry in os.scandir(storage.gen_dir)}
    storage.snapshot(store, storage.rel_versions, storage.store_version)
    storage.close()
    # A segment the new generation shares with the old one was linked.
    segments = list(os.scandir(storage.gen_dir))
    linked = sum(entry.inode() in held for entry in segments)
    written = sum(e.stat().st_size for e in segments if e.inode() not in held)
    print(
        f"# {args.store}: compacted to generation {storage.generation} "
        f"({before} WAL bytes folded; {linked} of {len(segments)} segments "
        f"linked, {written} bytes written)",
        file=sys.stderr,
    )
    return 0


def _cmd_upgrade(args: argparse.Namespace) -> int:
    from repro.storage.segments import MANIFEST_FORMAT
    from repro.storage.upgrade import UPGRADES_FROM, upgrade_store

    done = upgrade_store(args.store)
    if done is None:
        print(f"# {args.store}: manifest format {MANIFEST_FORMAT} already", file=sys.stderr)
        return 0
    before, after = done.key_bytes
    print(
        f"# {args.store}: upgraded from manifest format {UPGRADES_FROM} to "
        f"{MANIFEST_FORMAT} at generation {done.generation} (key segments "
        f"{before} -> {after} bytes)",
        file=sys.stderr,
    )
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    from repro.triplestore.io import dump, dump_path

    store = _open_store(args.store)
    if args.output:
        dump_path(store, args.output)
        print(f"# wrote {len(store)} triples to {args.output}", file=sys.stderr)
    else:
        dump(store, sys.stdout)
    return 0


def _serve_tenants(args: argparse.Namespace) -> dict:
    """The tenant sessions a ``serve`` invocation asks for; when one
    fails to open, the ones already open are closed."""
    specs: list[tuple[str, str]] = [("default", args.store)]
    for raw in args.tenant or ():
        name, sep, path = raw.partition("=")
        if not sep or not name or not path:
            raise ReproError(f"--tenant expects NAME=STORE, got {raw!r}")
        specs.append((name, path))
    tenants = {}
    try:
        for name, path in specs:
            tenants[name] = Database.open(path, backend=args.backend)
    except BaseException:
        for db in tenants.values():
            db.close()
        raise
    return tenants


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import QueryServer, ServiceConfig

    flags = {
        "host": args.host,
        "port": args.port,
        "max_inflight": args.max_inflight,
        "queue_depth": args.queue_depth,
        "query_timeout": args.timeout,
        "page_size": args.page_size,
    }
    config = ServiceConfig(**{k: v for k, v in flags.items() if v is not None})
    # SIGTERM is a clean shutdown exactly as SIGINT is: both close the
    # tenant sessions (WAL fold, catalog flush).  The main thread waits on
    # an event the handlers set, so a signal ends the wait at once.  (The
    # wait polls because the kernel may hand the signal to a connection
    # thread, and CPython runs handlers only when the main thread wakes.)
    # The handlers they replace are back in place when serve returns.
    stop = threading.Event()
    previous = {
        signum: signal.signal(signum, lambda _signum, _frame: stop.set())
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        # The server owns the tenant sessions from here on: ``stop``
        # closes them, also when ``start`` fails (a busy port, say).
        server = QueryServer(_serve_tenants(args), config)
        try:
            server.start()
            tenants = ", ".join(server.pool.names())
            print(f"serving {tenants} on {server.url}", file=sys.stderr)
            print(
                "endpoints: POST /v1/query /v1/prepare /v1/execute /v1/explain | "
                "GET /v1/ws /metrics /healthz",
                file=sys.stderr,
            )
            while not stop.wait(0.5):
                pass
            print("shutting down", file=sys.stderr)
        finally:
            server.stop()
    finally:
        for signum, handler in previous.items():
            # ``None``: the handler was not installed from Python.
            signal.signal(signum, signal.SIG_DFL if handler is None else handler)
    return 0


def _print_remote_rows(body: dict, limit: int | None) -> None:
    rows = body["rows"]
    for row in rows:
        print("\t".join(repr(v) for v in row))
    total = body.get("total", len(rows))
    if len(rows) < total:
        print(f"... ({total - len(rows)} more; use --limit 0 for all)")
    print(f"# {total} rows")


def _cmd_connect(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(args.url, tenant=args.tenant)
    bindings = _parse_bindings(args.param)
    if args.metrics:
        print(client.metrics(), end="")
        return 0
    if args.health:
        health = client.health()
        print(f"status: {health['status']} (tenants: {', '.join(health['tenants'])})")
        return 0
    if args.expression is None:
        raise ReproError("connect needs an expression (or --metrics/--health)")
    if args.explain:
        import json as _json

        print(_json.dumps(client.explain(args.expression, lang=args.lang), indent=2))
        return 0
    if args.stream:
        shown = 0
        total = 0
        for message in client.stream(
            args.expression,
            lang=args.lang,
            params=bindings,
            page_size=args.page_size,
        ):
            if message.get("done"):
                total = message["total"]
                print(f"# {total} rows in {message['pages']} page(s)")
                break
            for row in message["rows"]:
                if args.limit is None or shown < args.limit:
                    print("\t".join(repr(v) for v in row))
                    shown += 1
        return 0
    body = client.query(
        args.expression, lang=args.lang, params=bindings, limit=args.limit
    )
    _print_remote_rows(body, args.limit)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TriAL for RDF — query triplestores from the shell",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("query", help="evaluate a TriAL(*) expression")
    q.add_argument("store", help="triplestore file (text format)")
    q.add_argument("expression", help="expression in the TriAL text syntax")
    q.add_argument(
        "--lang",
        choices=["trial", "gxpath", "rpq", "nre"],
        default="trial",
        help="query language (graph languages print π₁,₃ node pairs)",
    )
    q.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="bind a $NAME placeholder (repeatable; TriAL only)",
    )
    q.add_argument(
        "--engine",
        choices=sorted(ENGINES),
        default="vector",
        help="what executes: vector (default; columnar arrays), fast or "
        "hash (tuple-at-a-time sets), sharded (hash-partitioned arrays), "
        "naive (the reference interpreter)",
    )
    q.add_argument(
        "--explain",
        action="store_true",
        help="print the explain report (plan with cost estimates, "
        "violations, findings) to stderr first",
    )
    q.add_argument("--limit", type=_row_limit, default=20, help="max rows (0 = all)")
    q.set_defaults(func=_cmd_query)

    d = sub.add_parser("datalog", help="run a TripleDatalog¬ program")
    d.add_argument("store")
    d.add_argument("program", help="program file")
    d.add_argument("--answer", default="Ans", help="answer predicate name")
    d.add_argument(
        "--validate",
        choices=["TripleDatalog", "ReachTripleDatalog"],
        help="require fragment membership before running",
    )
    d.add_argument("--limit", type=_row_limit, default=20, help="max rows (0 = all)")
    d.set_defaults(func=_cmd_datalog)

    i = sub.add_parser("info", help="store statistics")
    i.add_argument("store")
    i.set_defaults(func=_cmd_info)

    e = sub.add_parser(
        "explain",
        help="fragment, physical plan, plan violations and semantic "
        "findings of an expression (exit 1 on any violation or finding)",
    )
    e.add_argument("expression", help="expression in the TriAL text syntax")
    e.add_argument(
        "--json",
        action="store_true",
        help="print the report as JSON",
    )
    e.add_argument(
        "--store",
        help="optional store (io text file or durable directory) anchoring "
        "the plan's statistics; enables the unknown-relation check",
    )
    e.set_defaults(func=_cmd_explain)

    lt = sub.add_parser(
        "lint", help="check the repository's own coding invariants"
    )
    lt.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src, scripts, tests, "
        "benchmarks under --root)",
    )
    lt.add_argument(
        "--root",
        default=".",
        help="repository root the rule scopes resolve against (default: cwd)",
    )
    lt.add_argument(
        "--select",
        action="append",
        metavar="RULES",
        help="comma-separated rule IDs to run exclusively",
    )
    lt.add_argument(
        "--ignore",
        action="append",
        metavar="RULES",
        help="comma-separated rule IDs to skip",
    )
    lt.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    lt.set_defaults(func=_cmd_lint)

    s = sub.add_parser(
        "serve", help="serve stores over HTTP/WebSocket (the query service)"
    )
    s.add_argument(
        "store",
        help="store for the 'default' tenant: an io text file or a "
        "durable store directory",
    )
    s.add_argument(
        "--tenant",
        action="append",
        metavar="NAME=STORE",
        help="serve an extra isolated tenant session (repeatable)",
    )
    s.add_argument("--host", default=None, help="bind address (default: 127.0.0.1)")
    s.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port (default: 8377; 0 = ephemeral)",
    )
    s.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="execution backend for every tenant (default: columnar)",
    )
    s.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="queries executing concurrently before admission queues",
    )
    s.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        help="admission queue slots before requests are rejected (429)",
    )
    s.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-query budget in seconds (expiry answers 504)",
    )
    s.add_argument(
        "--page-size",
        type=int,
        default=None,
        help="default rows per WebSocket streaming page",
    )
    s.set_defaults(func=_cmd_serve)

    fk = sub.add_parser(
        "fsck", help="integrity-check a durable store directory"
    )
    fk.add_argument("store", help="durable store directory")
    fk.add_argument(
        "--json",
        action="store_true",
        help="emit findings as a JSON array instead of text lines",
    )
    fk.set_defaults(func=_cmd_fsck)

    cp = sub.add_parser(
        "compact",
        help="fold a durable store's WAL into a fresh segment generation",
    )
    cp.add_argument("store", help="durable store directory")
    cp.set_defaults(func=_cmd_compact)

    up = sub.add_parser(
        "upgrade",
        help="rewrite a manifest-format-6 store as format 7, in place and exactly",
    )
    up.add_argument("store", help="durable store directory")
    up.set_defaults(func=_cmd_upgrade)

    dm = sub.add_parser(
        "dump",
        help="export any store (durable directory or text file) to the "
        "triplestore text format",
    )
    dm.add_argument("store", help="store to export")
    dm.add_argument(
        "-o",
        "--output",
        default=None,
        help="write to a file instead of stdout",
    )
    dm.set_defaults(func=_cmd_dump)

    c = sub.add_parser("connect", help="query a running repro serve instance")
    c.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8377")
    c.add_argument(
        "expression",
        nargs="?",
        default=None,
        help="query source text (omit with --metrics/--health)",
    )
    c.add_argument(
        "--lang",
        choices=["trial", "gxpath", "rpq", "nre"],
        default="trial",
        help="query language",
    )
    c.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="bind a $NAME placeholder (repeatable)",
    )
    c.add_argument("--tenant", default="default", help="tenant session name")
    c.add_argument("--limit", type=_row_limit, default=20, help="max rows (0 = all)")
    c.add_argument(
        "--stream",
        action="store_true",
        help="stream result pages over WebSocket instead of one response",
    )
    c.add_argument(
        "--page-size",
        type=int,
        default=None,
        help="rows per streamed page (with --stream)",
    )
    c.add_argument(
        "--explain",
        action="store_true",
        help="print the server's structured explain report as JSON",
    )
    c.add_argument(
        "--metrics",
        action="store_true",
        help="print the server's Prometheus metrics exposition",
    )
    c.add_argument(
        "--health", action="store_true", help="print the health summary"
    )
    c.set_defaults(func=_cmd_connect)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
