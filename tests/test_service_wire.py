"""The service wire path: nothing on it waits for a timer.

Three invariants, none of them checked by a clock:

* *one send per message* — an HTTP response, the 101 upgrade and every
  WebSocket frame reach the socket as one buffer in one call, and both
  ends carry ``TCP_NODELAY``;
* *no thread per query* — the per-query budget is a bounded wait on a
  long-lived worker, a worker that overran is replaced and never reused;
* *column-wise egress* — a window rendered from the cursor's code
  columns is what ``jsonable_row`` makes of the same window, on every
  kind of payload.

Plus the codec's whole-buffer mask and a ``stop()`` that does not wait
out the accept loop's poll.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ShardedEngine
from repro.db import Database
from repro.errors import RemoteError, ReproError
from repro.service import QueryServer, ServiceClient, ServiceConfig
from repro.service import server as server_mod
from repro.service import ws as wsproto
from repro.service.metrics import parse_exposition
from repro.service.protocol import jsonable_row
from repro.triplestore.model import Triplestore

STORE = Triplestore(
    {"E": [("a", "p", "b"), ("b", "p", "c"), ("c", "q", "a"), ("a", "q", "c")]}
)


# --------------------------------------------------------------------- #
# The codec's mask
# --------------------------------------------------------------------- #

MASK_LENGTHS = (*range(10), 125, 126, 65_535, 65_536)


def _mask_per_byte(payload: bytes, key: bytes) -> bytes:
    """The formula ``send_frame`` / ``read_frame`` used to spell out."""
    return bytes(b ^ key[i % 4] for i, b in enumerate(payload))


@pytest.mark.parametrize("length", MASK_LENGTHS)
def test_mask_is_an_involution_and_matches_the_per_byte_formula(length):
    payload = os.urandom(length)
    for key in (os.urandom(4), b"\x00\x00\x00\x00", b"\xff\x00\xff\x01"):
        masked = wsproto._xor_mask(payload, key)
        assert masked == _mask_per_byte(payload, key)
        assert wsproto._xor_mask(masked, key) == payload


@pytest.mark.parametrize("length", MASK_LENGTHS)
def test_a_masked_frame_round_trips_through_the_codec(length):
    payload = os.urandom(length)
    left, right = socket.socketpair()
    try:
        sender = threading.Thread(
            target=wsproto.send_frame,
            args=(left, wsproto.OP_BINARY, payload),
            kwargs={"mask": True},
        )
        sender.start()  # a 64 KiB frame outgrows the socket buffer
        frame = wsproto.read_frame(right, max_payload=1 << 20, require_mask=True)
        sender.join(timeout=10.0)
        assert not sender.is_alive()
    finally:
        left.close()
        right.close()
    assert frame.payload == payload


# --------------------------------------------------------------------- #
# One send per message, TCP_NODELAY at both ends
# --------------------------------------------------------------------- #


class _RecordingSocket:
    """The accepted socket, with every ``send*`` call written down."""

    def __init__(self, sock: socket.socket, sent: list) -> None:
        self._sock = sock
        self._sent = sent

    def send(self, data, *args):
        self._sent.append(bytes(data))
        return self._sock.send(data, *args)

    def sendall(self, data, *args):
        self._sent.append(bytes(data))
        return self._sock.sendall(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture()
def recorded(monkeypatch):
    """A running server whose handlers talk through recording sockets.

    Yields ``(server, connections)``; each connection is the pair
    ``(accepted socket, [bytes of each send call])``.
    """
    connections: list = []
    original = server_mod._Handler.setup

    def setup(handler) -> None:
        sent: list = []
        connections.append((handler.request, sent))
        handler.request = _RecordingSocket(handler.request, sent)
        original(handler)

    monkeypatch.setattr(server_mod._Handler, "setup", setup)
    with QueryServer(Database(STORE), ServiceConfig(port=0, page_size=2)) as srv:
        yield srv, connections


def _split_http(message: bytes) -> tuple[bytes, dict, bytes]:
    head, _, body = message.partition(b"\r\n\r\n")
    status, *lines = head.split(b"\r\n")
    headers = dict(line.split(b": ", 1) for line in lines)
    return status, headers, body


def _one_frame(message: bytes) -> bytes:
    """The payload of ``message`` if it is exactly one unmasked frame."""
    length = message[1] & 0x7F
    assert not message[1] & 0x80
    at = 2
    if length == 126:
        length, at = int.from_bytes(message[2:4], "big"), 4
    elif length == 127:
        length, at = int.from_bytes(message[2:10], "big"), 10
    assert len(message) == at + length
    return message[at:]


def test_accepted_sockets_carry_tcp_nodelay(recorded):
    srv, connections = recorded
    with ServiceClient(srv.url) as client:
        client.health()
        (accepted, _sent), = connections
        assert accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_the_clients_websocket_carries_tcp_nodelay(recorded):
    srv, _connections = recorded
    with ServiceClient(srv.url) as client, client._ws_socket() as sock:
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_every_http_response_is_one_send(recorded):
    srv, connections = recorded
    with ServiceClient(srv.url) as client:
        client.health()
        sid = client.prepare("select[2=$l](E)")["statement"]
        body = client.execute(sid, {"l": "p"})
        client.metrics()
        with pytest.raises(RemoteError):
            client.query("join[")
    (_accepted, sent), = connections
    assert len(sent) == 5  # five requests on one kept-alive connection
    for message in sent:
        status, headers, payload = _split_http(message)
        assert status.startswith(b"HTTP/1.1 ")
        assert int(headers[b"Content-Length"]) == len(payload)
    assert json.loads(_split_http(sent[2])[2]) == body
    assert _split_http(sent[4])[0] == b"HTTP/1.1 400 Bad Request"


def test_the_upgrade_and_every_frame_are_one_send_each(recorded):
    srv, connections = recorded
    with ServiceClient(srv.url) as client:
        messages = list(client.stream("E"))  # 4 rows, pages of 2
    assert [len(m.get("rows", ())) for m in messages] == [2, 2, 0]
    for _ in range(200):  # the server's close frame trails the client's
        (_accepted, sent), = connections
        if len(sent) == 5:
            break
        time.sleep(0.01)
    upgrade, *frames = sent
    status, headers, rest = _split_http(upgrade)
    assert status == b"HTTP/1.1 101 Switching Protocols"
    assert headers[b"Upgrade"] == b"websocket" and rest == b""
    assert [json.loads(_one_frame(f)) for f in frames[:3]] == messages
    assert frames[3][0] == 0x80 | wsproto.OP_CLOSE
    assert _one_frame(frames[3])[:2] == (1000).to_bytes(2, "big")


def test_a_streamed_query_is_counted_before_its_done_frame_is_sent(monkeypatch):
    """A client that has read ``done`` may scrape ``/metrics`` at once:
    at the moment the frame is handed to the codec, the ok counter and
    the latency histogram already include the query."""
    at_done: list = []
    original = wsproto.send_frame
    with QueryServer(Database(STORE), ServiceConfig(port=0, page_size=2)) as srv:

        def send_frame(sock, opcode, payload, *, mask):
            if b'"done": true' in payload:
                at_done.append(parse_exposition(srv.registry.expose()))
            original(sock, opcode, payload, mask=mask)

        monkeypatch.setattr(wsproto, "send_frame", send_frame)
        ok = 'repro_queries_total{tenant="default",lang="trial",status="ok"}'
        with ServiceClient(srv.url) as client:
            for n in (1, 2, 3):
                assert list(client.stream("E"))[-1]["done"]
                assert len(at_done) == n
                assert at_done[-1][ok] == n
                assert at_done[-1]["repro_query_seconds_count"] == n
            # A failed stream is counted once too, under its own status.
            with pytest.raises(RemoteError):
                list(client.stream("join["))
        series = parse_exposition(srv.registry.expose())
        assert series[ok] == 3 and series["repro_query_seconds_count"] == 4
        assert series[ok.replace('"ok"', '"error"')] == 1


def test_an_http09_request_gets_the_body_alone(recorded):
    """``send_response`` writes no head for a version-less request line;
    the single-buffer path keeps that."""
    srv, _connections = recorded
    with socket.create_connection(srv.address, timeout=10.0) as sock:
        sock.sendall(b"GET /healthz\r\n\r\n")
        raw = b""
        while chunk := sock.recv(4096):
            raw += chunk
    assert json.loads(raw)["status"] == "ok"


# --------------------------------------------------------------------- #
# No thread per query
# --------------------------------------------------------------------- #


@pytest.fixture()
def worker_idents(monkeypatch):
    """``(server, idents)``: the thread each executed query ran on."""
    idents: list = []
    with QueryServer(Database(STORE), ServiceConfig(port=0)) as srv:
        original = srv._do_execute

        def recording(session, req):
            idents.append(threading.get_ident())
            return original(session, req)

        monkeypatch.setattr(srv, "_do_execute", recording)
        yield srv, idents


def test_sequential_queries_share_a_worker_and_start_no_thread(
    worker_idents, monkeypatch
):
    srv, idents = worker_idents
    with ServiceClient(srv.url) as client:
        sid = client.prepare("select[2=$l](E)")["statement"]
        client.execute(sid, {"l": "p"})  # connection thread + first worker
        constructed: list = []

        class CountingThread(threading.Thread):
            def __init__(self, *args, **kwargs) -> None:
                constructed.append(kwargs.get("name"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(threading, "Thread", CountingThread)
        for i in range(100):
            assert client.execute(sid, {"l": "pq"[i % 2]})["total"] == 2
    assert constructed == []
    assert len(idents) == 101
    assert len(set(idents)) <= 2


def test_an_overrun_answers_504_and_its_worker_is_replaced():
    """The 504 arrives while the query is still stuck (so within the
    budget, not after the query); the next query succeeds on another
    worker, and the stuck one exits once its query lets go."""
    db = Database(STORE)
    release = threading.Event()
    ran_on: list = []
    original = db.query

    def stuck_once(query, lang="trial", **bindings):
        ran_on.append(threading.current_thread())
        if len(ran_on) == 1:
            release.wait(timeout=60.0)
        return original(query, lang=lang, **bindings)

    db.query = stuck_once
    try:
        with QueryServer(db, ServiceConfig(port=0, query_timeout=0.2)) as srv:
            with ServiceClient(srv.url) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.query("E")
                assert excinfo.value.status == 504
                assert not release.is_set()
                assert client.query("E")["total"] == 4
                assert client.query("E")["total"] == 4
            stuck, second, third = ran_on
            assert stuck.is_alive() and second is not stuck
            assert third is second  # the replacement is the one reused
            release.set()
            stuck.join(timeout=10.0)
            assert not stuck.is_alive()
    finally:
        release.set()
        del db.query


def test_a_failing_query_does_not_cost_its_worker(worker_idents):
    srv, idents = worker_idents
    with ServiceClient(srv.url) as client:
        client.query("E")
        with pytest.raises(RemoteError) as excinfo:
            client.query("NoSuchRelation")
        assert excinfo.value.remote_type == "UnknownRelationError"
        client.query("E")
    assert len(idents) == 3 and len(set(idents)) == 1


# --------------------------------------------------------------------- #
# Column-wise egress ≡ jsonable_row, window by window
# --------------------------------------------------------------------- #

#: None, bools, floats, ints, non-ASCII strings and tuples; codes follow
#: ``repr`` order, so the mix also scrambles natural order.
EGRESS_OBJECTS = (
    None, True, False, 0.5, -2.25, 1e300, 7, -3, "a", "é", "ψ→", "", "b c",
    ("t", 1), (None, ("é",)),
)  # fmt: skip
FRESH_OBJECTS = ("zz", 10, ("new",), 2.5)

egress_objects = st.sampled_from(EGRESS_OBJECTS)
egress_triples = st.frozensets(
    st.tuples(egress_objects, egress_objects, egress_objects), max_size=7
)
fresh_objects = st.sampled_from(EGRESS_OBJECTS + FRESH_OBJECTS)
fresh_triples = st.frozensets(
    st.tuples(fresh_objects, fresh_objects, fresh_objects), min_size=1, max_size=4
)


def _assert_windows_equal(server: QueryServer, rs, what: str) -> None:
    total = rs.total
    for offset in range(total + 2):
        for limit in (None, *range(total + 2)):
            window = rs.offset(offset) if offset else rs
            if limit is not None:
                window = window.limit(limit)
            expected = [jsonable_row(t) for t in window]
            body = server._render_rows(rs, "trial", limit, offset)
            where = f"{what} offset={offset} limit={limit}"
            assert json.dumps(body["rows"]) == json.dumps(expected), where
            assert json.loads(json.dumps(body["rows"])) == json.loads(
                json.dumps(expected)
            ), where
            assert body["total"] == total and body["returned"] == len(expected)


@settings(max_examples=40, deadline=None)
@given(egress_triples, fresh_triples)
def test_egress_equals_jsonable_row_on_every_payload(base, delta):
    store = Triplestore({"E": base, "F": [("a", "é", None)]})
    store.columnar()  # the derived version below shares or grows this view
    with tempfile.TemporaryDirectory() as tmp:
        with Database(path=os.path.join(tmp, "s"), backend="columnar") as db:
            db.install("E", base)
            db.install("F", [("a", "é", None)])
        sessions = {
            "set": Database(store, backend="set"),
            "columnar": Database(store, backend="columnar"),
            "sharded": Database(store, ShardedEngine(shards=2)),
            "reopened": Database(path=os.path.join(tmp, "s"), backend="columnar"),
            # A version whose new triples may grow the dictionary.
            "derived": Database(
                store.with_relations({"E": base | delta}), backend="columnar"
            ),
        }
        server = QueryServer(sessions)  # never started: only its renderer
        try:
            for name, db in sessions.items():
                for query in ("E", "(E | F)"):
                    rs = db.query(query)
                    assert (name == "set") == (rs.wire_rows() is None)
                    _assert_windows_equal(server, rs, f"{name} {query}")
        finally:
            server.stop()


def test_the_wire_array_is_the_decode_array_when_every_object_is_native():
    cs = Triplestore([("a", "é", None), (True, 0.5, 7)]).columnar()
    assert cs.wire_array() is cs._obj_array


def test_versions_that_share_a_dictionary_share_the_wire_array():
    parent = Triplestore({"E": [("a", ("t", 1), "b")], "F": [("b", "a", "a")]})
    parent_view = parent.columnar()
    same = parent.with_relations({"F": [("a", "a", "b")]})
    # Whichever version renders first fills the array for all of them.
    wire = same.columnar().wire_array()
    assert wire is parent_view.wire_array()
    assert wire is not parent_view._obj_array
    assert wire.tolist() == ["a", "b", "('t', 1)"] and not wire.flags.writeable
    grown = same.with_relations({"F": [("a", ("u",), "b")]})
    assert grown.columnar().wire_array().tolist() == ["a", "b", "('t', 1)", "('u',)"]
    assert same.columnar().wire_array() is wire


def test_a_pair_language_stream_renders_page_by_page(monkeypatch):
    """The first page of a pair-language stream costs one page of
    ``jsonable_row``, whatever the size of the result."""
    nodes = [f"n{i:02d}" for i in range(30)]
    db = Database(Triplestore([(a, "p", b) for a in nodes for b in nodes[:5]]))
    rendered: list = []

    def counting(row):
        rendered.append(row)
        return jsonable_row(row)

    monkeypatch.setattr(server_mod, "jsonable_row", counting)
    server = QueryServer(db)  # never started: only its renderers
    try:
        request = {
            "id": 1, "statement": None, "query": "p", "lang": "rpq",
            "params": {}, "page_size": 10,
        }  # fmt: skip
        stream = server._stream_query(server.pool.session("default"), request)
        first = next(stream)
        assert len(first["rows"]) == 10 and len(rendered) == 10
        rest = list(stream)
        assert rest[-1] == {"id": 1, "done": True, "total": 150, "pages": 15}
        assert len(rendered) == 150
        pairs = sorted(db.query("p", lang="rpq").pairs(), key=repr)
        streamed = first["rows"] + [r for m in rest[:-1] for r in m["rows"]]
        assert streamed == [list(p) for p in pairs]
        body = server._render_rows(db.query("p", lang="rpq"), "rpq", 10, 20)
        assert body["rows"] == rest[1]["rows"] and len(rendered) == 160
    finally:
        server.stop()


# --------------------------------------------------------------------- #
# stop()
# --------------------------------------------------------------------- #


def test_stop_does_not_wait_out_the_accept_poll(monkeypatch):
    """``stop()`` waits for the accept loop's next check at most, so the
    poll interval the loop runs with is what bounds it."""
    intervals: list = []
    original = socketserver.BaseServer.serve_forever

    def serve_forever(self, poll_interval=0.5):
        intervals.append(poll_interval)
        original(self, poll_interval)

    monkeypatch.setattr(socketserver.BaseServer, "serve_forever", serve_forever)
    server = QueryServer(Database(STORE, backend="set"), ServiceConfig(port=0))
    server.start()
    with ServiceClient(server.url) as client:
        client.query("E")  # one idle budget worker to retire as well
    accept_loop = server._thread
    server.stop()
    assert len(intervals) == 1 and intervals[0] <= 0.05
    assert not accept_loop.is_alive()
    server.stop()  # idempotent
    with pytest.raises(ReproError):
        server.address
