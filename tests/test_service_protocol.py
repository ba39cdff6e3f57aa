"""Protocol fuzzing for the query service: malformed input never crashes.

The wire contract under test: *whatever arrives, the server answers
every HTTP request with a structured JSON error (4xx) or a result
(200) — never a 5xx, never a hang, never a dead server — and closes
WebSocket violations with the right close code.*

Fuzzing is seeded and replayable in the ``diffcheck.py`` style: each
case draws from ``random.Random(f"{seed}:{index}")`` so a single index
replays without the sweep; failures are greedily shrunk to a minimal
payload and reported as a paste-able repro snippet.  Knobs::

    REPRO_FUZZ_SEED=1337 REPRO_FUZZ_CASES=400 \
        PYTHONPATH=src python -m pytest tests/test_service_protocol.py
"""

from __future__ import annotations

import json
import os
import random
import socket
import string
from http.client import HTTPConnection

import pytest

from repro.db import Database
from repro.service import QueryServer, ServiceClient, ServiceConfig
from repro.service import ws as wsproto
from repro.triplestore.model import Triplestore

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "1337"))
FUZZ_CASES = int(os.environ.get("REPRO_FUZZ_CASES", "150"))

#: Small body cap so oversize payloads are cheap to construct.
MAX_BODY = 4096

STORE = Triplestore(
    {
        "E": [("a", "p", "b"), ("b", "p", "c"), ("c", "q", "a")],
        "F": [("b", "r", "a")],
    },
    rho={"a": 0, "b": 1, "c": 0, "p": 0, "q": 1, "r": 1},
)

ROUTES = ("/v1/query", "/v1/execute", "/v1/prepare", "/v1/explain")


@pytest.fixture(scope="module")
def server():
    config = ServiceConfig(
        port=0, max_inflight=4, max_body_bytes=MAX_BODY, query_timeout=10.0
    )
    with QueryServer(Database(STORE), config) as srv:
        yield srv


# --------------------------------------------------------------------- #
# Raw HTTP plumbing (one connection per request: 413 closes the socket)
# --------------------------------------------------------------------- #


def _post_raw(server, path: str, body: bytes, headers=None):
    """POST raw bytes; returns (status, decoded-or-None)."""
    conn = HTTPConnection(*server.address, timeout=15.0)
    try:
        hdrs = {"Content-Type": "application/json"}
        hdrs.update(headers or {})
        conn.request("POST", path, body=body, headers=hdrs)
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    try:
        return response.status, json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return response.status, None


def _violation(server, path: str, payload) -> str | None:
    """The invariant: a structured 2xx/4xx answer, or what went wrong."""
    try:
        status, decoded = _post_raw(
            server, path, json.dumps(payload).encode()
        )
    except (OSError, socket.timeout) as exc:
        return f"transport failure: {exc!r}"
    if status >= 500:
        return f"server error {status}: {decoded}"
    if status >= 400:
        if not isinstance(decoded, dict) or "error" not in decoded:
            return f"unstructured {status} body: {decoded!r}"
        error = decoded["error"]
        if not isinstance(error, dict) or "type" not in error or (
            "message" not in error
        ):
            return f"malformed error envelope: {decoded!r}"
    elif not isinstance(decoded, dict):
        return f"non-object 200 body: {decoded!r}"
    return None


# --------------------------------------------------------------------- #
# Payload generation and shrinking
# --------------------------------------------------------------------- #

_JUNK_CHARS = "join[]()';=$&|-*,.!# E013star select rho\\\"\n\t«ψ"


def _random_scalar(rng: random.Random):
    return rng.choice(
        [
            rng.randint(-(10**12), 10**12),
            rng.random() * 1e6,
            True,
            False,
            None,
            "".join(
                rng.choice(_JUNK_CHARS)
                for _ in range(rng.randint(0, 40))
            ),
        ]
    )


def _random_value(rng: random.Random, depth: int = 2):
    if depth <= 0 or rng.random() < 0.6:
        return _random_scalar(rng)
    if rng.random() < 0.5:
        return [_random_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    return {
        "".join(rng.choice(string.ascii_lowercase) for _ in range(4)): (
            _random_value(rng, depth - 1)
        )
        for _ in range(rng.randint(0, 4))
    }


def _random_payload(rng: random.Random):
    """A request-shaped payload, mutated — or arbitrary JSON."""
    roll = rng.random()
    if roll < 0.15:
        return _random_value(rng, depth=3)
    payload = {"query": "E", "tenant": "default"}
    for _ in range(rng.randint(1, 4)):
        mutation = rng.randrange(7)
        if mutation == 0:  # junk query text
            payload["query"] = "".join(
                rng.choice(_JUNK_CHARS) for _ in range(rng.randint(0, 60))
            )
        elif mutation == 1:  # unknown language
            payload["lang"] = "".join(
                rng.choice(string.ascii_lowercase)
                for _ in range(rng.randint(0, 10))
            )
        elif mutation == 2:  # bad params (types, unknown $names)
            payload["params"] = rng.choice(
                [
                    _random_value(rng, 1),
                    {"x": [1, 2]},
                    {"": "v"},
                    {"p": None},
                ]
            )
        elif mutation == 3:  # wrong-typed standard field
            payload[
                rng.choice(
                    ["query", "lang", "tenant", "limit", "offset",
                     "page_size", "statement", "id"]
                )
            ] = _random_value(rng, 1)
        elif mutation == 4:  # unknown field
            payload[
                "".join(rng.choice(string.ascii_lowercase) for _ in range(6))
            ] = _random_scalar(rng)
        elif mutation == 5:  # bogus statement / tenant
            payload["statement"] = rng.choice(
                ["stmt-999999", "nope", "", "stmt--1"]
            )
        else:  # oversized field (may cross the body cap → 413)
            payload["query"] = "E" * rng.randint(10, 2 * MAX_BODY)
    return payload


def _shrink(server, path: str, payload, budget: int = 150):
    """Greedy shrink in the diffcheck style: keep the violation, lose
    the payload mass."""
    spent = 0

    def still_fails(candidate) -> bool:
        nonlocal spent
        if spent >= budget:
            return False
        spent += 1
        return _violation(server, path, candidate) is not None

    changed = True
    while changed and spent < budget:
        changed = False
        if isinstance(payload, dict):
            for key in sorted(payload, key=repr):
                smaller = {k: v for k, v in payload.items() if k != key}
                if still_fails(smaller):
                    payload, changed = smaller, True
                    break
            if changed:
                continue
            for key, value in sorted(payload.items(), key=repr):
                for simpler in (None, "", 0, [], {}):
                    if value == simpler:
                        continue
                    candidate = dict(payload)
                    candidate[key] = simpler
                    if still_fails(candidate):
                        payload, changed = candidate, True
                        break
                if changed:
                    break
                if isinstance(value, str) and len(value) > 1:
                    candidate = dict(payload)
                    candidate[key] = value[: len(value) // 2]
                    if still_fails(candidate):
                        payload, changed = candidate, True
        elif isinstance(payload, list) and payload:
            for i in range(len(payload)):
                smaller = payload[:i] + payload[i + 1:]
                if still_fails(smaller):
                    payload, changed = smaller, True
                    break
        elif isinstance(payload, str) and len(payload) > 1:
            candidate = payload[: len(payload) // 2]
            if still_fails(candidate):
                payload, changed = candidate, True
    return payload


def _repro_snippet(server, path: str, payload, problem: str) -> str:
    return "\n".join(
        [
            f"# service protocol-fuzz failure: {problem}",
            "import json",
            "from http.client import HTTPConnection",
            "conn = HTTPConnection(host, port)  # a running repro serve",
            f"conn.request('POST', {path!r}, json.dumps({payload!r}),",
            "             {'Content-Type': 'application/json'})",
            "response = conn.getresponse()",
            "assert response.status < 500",
        ]
    )


def test_fuzz_http_payloads_never_crash(server):
    """Seeded malformed-payload sweep over every POST route."""
    for index in range(FUZZ_CASES):
        rng = random.Random(f"{FUZZ_SEED}:{index}")
        path = ROUTES[index % len(ROUTES)]
        payload = _random_payload(rng)
        problem = _violation(server, path, payload)
        if problem is not None:
            payload = _shrink(server, path, payload)
            problem = _violation(server, path, payload) or problem
            pytest.fail(
                f"case seed={FUZZ_SEED} index={index} violated the "
                f"protocol invariant\n"
                + _repro_snippet(server, path, payload, problem)
            )
    # The server survived the sweep.
    with ServiceClient(server.url) as client:
        assert client.health()["status"] == "ok"
        assert client.query("E")["total"] == len(STORE.relation("E"))


# --------------------------------------------------------------------- #
# Deterministic malformed-HTTP cases
# --------------------------------------------------------------------- #


def test_bad_json_body_is_structured_400(server):
    status, decoded = _post_raw(server, "/v1/query", b"{not json!")
    assert status == 400
    assert decoded["error"]["type"] == "ProtocolError"
    assert "JSON" in decoded["error"]["message"]


def test_non_object_payloads_are_structured_400(server):
    for payload in (b"[1,2,3]", b'"E"', b"42", b"null"):
        status, decoded = _post_raw(server, "/v1/query", payload)
        assert status == 400, payload
        assert decoded["error"]["type"] == "ProtocolError", payload


def test_oversized_body_is_413_and_survivable(server):
    body = json.dumps({"query": "E" * (2 * MAX_BODY)}).encode()
    assert len(body) > MAX_BODY
    status, decoded = _post_raw(server, "/v1/query", body)
    assert status == 413
    assert decoded["error"]["type"] == "PayloadTooLargeError"
    assert decoded["error"]["limit"] == MAX_BODY
    with ServiceClient(server.url) as client:
        assert client.health()["status"] == "ok"


def test_missing_content_length_is_400(server):
    conn = HTTPConnection(*server.address, timeout=15.0)
    try:
        conn.putrequest("POST", "/v1/query", skip_accept_encoding=True)
        conn.putheader("Content-Type", "application/json")
        conn.endheaders()  # no Content-Length, no body
        response = conn.getresponse()
        decoded = json.loads(response.read().decode())
    finally:
        conn.close()
    assert response.status == 400
    assert decoded["error"]["type"] == "ProtocolError"
    assert "Content-Length" in decoded["error"]["message"]


def test_unknown_route_and_method_are_structured(server):
    status, decoded = _post_raw(server, "/v1/nope", b"{}")
    assert status == 404
    assert decoded["error"]["type"] == "ProtocolError"
    conn = HTTPConnection(*server.address, timeout=15.0)
    try:
        conn.request("DELETE", "/v1/query")
        response = conn.getresponse()
        decoded = json.loads(response.read().decode())
    finally:
        conn.close()
    assert response.status == 405
    assert "DELETE" in decoded["error"]["message"]


def test_unknown_lang_unknown_tenant_bad_param_are_4xx(server):
    cases = [
        ({"query": "E", "lang": "sql"}, 400, "ReproError"),
        ({"query": "E", "tenant": "nobody"}, 400, "ProtocolError"),
        ({"query": "select[1=$s](E)", "params": {"wrong": "a"}}, 400, None),
        ({"query": "E", "params": {"x": [1]}}, 400, "ProtocolError"),
        ({"query": "NOPE"}, 404, "UnknownRelationError"),
        ({"query": "E", "statement": "stmt-404"}, 400, "ProtocolError"),
    ]
    for payload, want_status, want_type in cases:
        status, decoded = _post_raw(
            server, "/v1/query", json.dumps(payload).encode()
        )
        assert status == want_status, payload
        if want_type is not None:
            assert decoded["error"]["type"] == want_type, payload


def test_explain_analysis_matches_query_warnings(server):
    """/v1/explain, /v1/query and /v1/execute of a prepared statement
    report one analysis for one query: the findings on the query as
    written, before the optimizer prunes it."""
    query = "(E | select[1='a' & 1='b'](E))"
    status, page = _post_raw(
        server, "/v1/query", json.dumps({"query": query}).encode()
    )
    assert status == 200
    status, report = _post_raw(
        server, "/v1/explain", json.dumps({"query": query}).encode()
    )
    assert status == 200
    assert [f["rule"] for f in page["analysis"]] == ["SEM-UNSAT", "SEM-EMPTY"]
    assert report["analysis"] == page["analysis"]
    status, prepared = _post_raw(
        server, "/v1/prepare", json.dumps({"query": query}).encode()
    )
    assert status == 200
    status, executed = _post_raw(
        server,
        "/v1/execute",
        json.dumps({"statement": prepared["statement"]}).encode(),
    )
    assert status == 200
    assert executed["analysis"] == page["analysis"]


# --------------------------------------------------------------------- #
# WebSocket frame fuzzing
# --------------------------------------------------------------------- #


def _upgraded_socket(server) -> socket.socket:
    client = ServiceClient(server.url)
    sock = client._ws_socket()
    sock.settimeout(15.0)
    return sock


def _expect_close(sock: socket.socket, code: int) -> None:
    """The server must answer with a close frame carrying ``code`` (or,
    at worst, have torn the transport down)."""
    try:
        while True:
            frame = wsproto.read_frame(
                sock, max_payload=1 << 20, require_mask=False
            )
            if frame.opcode == wsproto.OP_CLOSE:
                got = int.from_bytes(frame.payload[:2], "big")
                assert got == code, f"close code {got}, wanted {code}"
                return
    finally:
        sock.close()


def test_ws_unmasked_client_frame_is_1002(server):
    sock = _upgraded_socket(server)
    # A well-formed but unmasked text frame: clients MUST mask.
    wsproto.send_frame(sock, wsproto.OP_TEXT, b'{"query":"E"}', mask=False)
    _expect_close(sock, 1002)


def test_ws_truncated_frame_is_1002(server):
    sock = _upgraded_socket(server)
    # Masked header declaring 20 payload bytes, then only 3, then EOF.
    header = bytes([0x81, 0x80 | 20]) + b"\x01\x02\x03\x04" + b"abc"
    sock.sendall(header)
    sock.shutdown(socket.SHUT_WR)
    _expect_close(sock, 1002)


def test_ws_oversized_frame_is_1009(server):
    sock = _upgraded_socket(server)
    too_big = MAX_BODY + 1
    header = bytes([0x81, 0x80 | 126]) + too_big.to_bytes(2, "big")
    sock.sendall(header + b"\x00\x00\x00\x00")
    _expect_close(sock, 1009)


def test_ws_unknown_opcode_is_1002(server):
    sock = _upgraded_socket(server)
    sock.sendall(bytes([0x83, 0x80]) + b"\x00\x00\x00\x00")  # opcode 0x3
    _expect_close(sock, 1002)


def test_ws_binary_frame_is_1003(server):
    sock = _upgraded_socket(server)
    wsproto.send_frame(sock, 0x2, b"\x00\x01", mask=True)
    _expect_close(sock, 1003)


def test_ws_bad_json_message_keeps_connection(server):
    """Malformed JSON inside a valid frame is an application error: a
    structured error message, connection still usable."""
    sock = _upgraded_socket(server)
    try:
        wsproto.send_frame(sock, wsproto.OP_TEXT, b"{oops", mask=True)
        frame = wsproto.read_frame(
            sock, max_payload=1 << 20, require_mask=False
        )
        message = json.loads(frame.payload.decode())
        assert message["error"]["type"] == "ProtocolError"
        # Same connection, now a valid request: it streams fine.
        wsproto.send_frame(
            sock,
            wsproto.OP_TEXT,
            json.dumps({"query": "E", "id": "ok"}).encode(),
            mask=True,
        )
        messages = []
        while True:
            frame = wsproto.read_frame(
                sock, max_payload=1 << 20, require_mask=False
            )
            messages.append(json.loads(frame.payload.decode()))
            if messages[-1].get("done"):
                break
        assert messages[-1]["total"] == len(STORE.relation("E"))
        wsproto.send_close(sock, 1000, mask=True)
    finally:
        sock.close()


def test_ws_random_garbage_never_kills_the_server(server):
    """Seeded raw-byte garbage on upgraded sockets; the server stays up."""
    for index in range(10):
        rng = random.Random(f"{FUZZ_SEED}:ws:{index}")
        sock = _upgraded_socket(server)
        try:
            blob = bytes(
                rng.randrange(256) for _ in range(rng.randint(1, 200))
            )
            try:
                sock.sendall(blob)
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # server already slammed the door — acceptable
            # Drain whatever the server answers until it closes.
            try:
                while True:
                    if not sock.recv(4096):
                        break
            except OSError:
                pass
        finally:
            sock.close()
    with ServiceClient(server.url) as client:
        assert client.health()["status"] == "ok"
        assert client.query("E")["total"] == len(STORE.relation("E"))
