"""The warm-reopen catalog (``catalog/catalog.json``) is data.

* The contract it relies on: TriAL's text round-trips,
  ``parse(repr(e)) == e``, for diffcheck's random expressions — raw and
  with their constants canonicalized into ``$`` parameters, the form
  every plan-cache key takes.
* Hardening: whatever damage ``catalog.json`` takes — truncations, bit
  flips, wrong-typed fields, non-string, unparseable or 10 000-deep plan
  texts, texts naming a missing relation — ``Database(path=...)`` opens,
  answers exactly as a cold open does, and ``repro fsck`` reports
  ``STOR-CATALOG`` exactly when the document is not a readable catalog:
  a JSON object whose ``relations`` maps names to statistics and whose
  ``plans`` is a list of strings.  A text that does not parse or plan is
  skipped at open, not reported.
"""

from __future__ import annotations

import json
import random
import shutil

import pytest

from repro.core.params import canonicalize_constants
from repro.core.parser import parse
from repro.db import Database
from repro.errors import UnknownRelationError
from repro.storage import fsck_store
from repro.storage.catalog import load_plans
from tests.diffcheck import random_expression, random_semantic_expression

E = [("a", "p", "b"), ("b", "p", "c"), ("c", "q", "a"), ("c", "p", "c")]
F = [("b", "r", "d"), ("d", "r", "a")]
QUERIES = (
    "E",
    "join[1,2,3'; 3=1'](E, F)",
    "star[1,2,3'; 3=1'](E)",
    "select[2='p'](E)",
    "(E | F)",
    "select[1!=3](F)",
)
DEEP = "(" * 10_000 + "E" + ")" * 10_000


# --------------------------------------------------------------------- #
# The text round trip
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(4))
def test_every_random_expression_reads_back_from_its_text(seed):
    rng = random.Random(seed)
    for _ in range(400):
        if rng.random() < 0.7:
            expr = random_expression(rng, rng.randint(0, 4), relations=("E", "F"))
        else:
            expr = random_semantic_expression(rng, relations=("E", "F"))
        canonical, _consts = canonicalize_constants(expr)
        assert parse(repr(expr)) == expr, repr(expr)
        assert parse(repr(canonical)) == canonical, repr(canonical)


# --------------------------------------------------------------------- #
# Damage never changes an answer; fsck names exactly the unreadable
# --------------------------------------------------------------------- #


def readable(payload: bytes) -> bool:
    """The catalog's shape, spelled out apart from the reader."""
    try:
        doc = json.loads(payload)
    except (ValueError, RecursionError):
        return False

    def count(value) -> bool:
        return type(value) is int and 0 <= value < 2**63

    def stats(entry) -> bool:
        return (
            isinstance(entry, dict)
            and count(entry.get("cardinality"))
            and count(entry.get("version"))
            and isinstance(entry.get("distinct"), list)
            and len(entry["distinct"]) == 3
            and all(map(count, entry["distinct"]))
        )

    return (
        isinstance(doc, dict)
        and isinstance(doc.get("relations"), dict)
        and all(map(stats, doc["relations"].values()))
        and isinstance(doc.get("plans"), list)
        and all(isinstance(text, str) for text in doc["plans"])
    )


def answers(db: Database) -> dict:
    return {q: db.query(q).to_set() for q in QUERIES}


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A closed store with a full catalog, its bytes, and a cold open's
    answers."""
    root = tmp_path_factory.mktemp("catalog") / "s"
    db = Database(path=root)
    db.install("E", E)
    db.install("F", F)
    answers(db)
    db.close()
    path = root / "catalog" / "catalog.json"
    good = path.read_bytes()
    cold_root = root.parent / "cold"
    shutil.copytree(root, cold_root)
    shutil.rmtree(cold_root / "catalog")
    with Database(path=cold_root) as cold:
        expected = answers(cold)
    return root, path, good, expected


def check(warm, payload: bytes, reported: bool | None = None) -> Database:
    """Open the store over ``payload``; returns the open session."""
    root, path, _good, expected = warm
    path.write_bytes(payload)
    if reported is None:
        reported = not readable(payload)
    rules = [f.rule for f in fsck_store(root)]
    assert rules == (["STOR-CATALOG"] if reported else []), payload[:200]
    db = Database(path=root)
    try:
        assert answers(db) == expected, payload[:200]
    except BaseException:
        db.close()
        raise
    return db


def check_closed(warm, payload: bytes, reported: bool | None = None) -> None:
    check(warm, payload, reported).close()


def test_the_intact_catalog_is_warm(warm):
    _root, _path, good, _expected = warm
    plans = json.loads(good)["plans"]
    assert len(plans) == len(QUERIES)
    db = check(warm, good, reported=False)
    try:
        assert db.cache_info()["plans"].size == len(plans)
        assert db.cache_info()["plans"].hits == len(QUERIES)
    finally:
        db.close()


@pytest.mark.parametrize("seed", range(4))
def test_truncations(warm, seed):
    good = warm[2]
    for cut in random.Random(seed).sample(range(len(good)), 25):
        check_closed(warm, good[:cut], reported=True)


@pytest.mark.parametrize("seed", range(4))
def test_bit_flips(warm, seed):
    good = warm[2]
    rng = random.Random(100 + seed)
    for bit in rng.sample(range(8 * len(good)), 40):
        flipped = bytearray(good)
        flipped[bit // 8] ^= 1 << (bit % 8)
        check_closed(warm, bytes(flipped))


def edited(good: bytes, edit) -> bytes:
    doc = json.loads(good)
    edit(doc)
    return json.dumps(doc).encode()


def _set(*path):
    *keys, value = path

    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value

    return edit


WRONG_TYPES = [
    _set("plans", "E"),
    _set("plans", {"0": "E"}),
    _set("plans", None),
    _set("relations", []),
    _set("relations", "E", []),
    _set("relations", "E", "cardinality", "4"),
    _set("relations", "E", "cardinality", -1),
    _set("relations", "E", "cardinality", 10**30),
    _set("relations", "E", "cardinality", 4.0),
    _set("relations", "E", "cardinality", True),
    _set("relations", "E", "distinct", [1, 2]),
    _set("relations", "E", "distinct", [1, 2, None]),
    _set("relations", "E", "distinct", "123"),
    _set("relations", "E", "version", None),
    lambda doc: doc.pop("plans"),
    lambda doc: doc["relations"]["E"].pop("version"),
]


@pytest.mark.parametrize("edit", range(len(WRONG_TYPES)))
def test_wrong_typed_fields(warm, edit):
    check_closed(warm, edited(warm[2], WRONG_TYPES[edit]), reported=True)


@pytest.mark.parametrize(
    "payload",
    [b"", b"[]", b"null", b'"catalog"', b"{}", b"[" * 100_000, b"\xff\xfe{}"],
    ids=lambda payload: repr(payload[:12]),
)
def test_documents_that_are_not_a_catalog(warm, payload):
    check_closed(warm, payload, reported=True)


@pytest.mark.parametrize(
    "texts", [[1], [None], [["E"]], [{"text": "E"}], ["E", 3.5, QUERIES[1]]]
)
def test_non_string_plan_texts(warm, texts):
    check_closed(warm, edited(warm[2], _set("plans", texts)), reported=True)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "join[",
        "E E",
        "$",
        "star[1,2](E)",
        DEEP,
        "select[1=1](" * 10_000 + "E" + ")" * 10_000,
    ],
    ids=lambda text: text if len(text) < 20 else f"{len(text)}-char text",
)
def test_a_text_that_does_not_parse_is_skipped(warm, text):
    root, path = warm[0], warm[1]
    payload = edited(warm[2], _set("plans", [text, QUERIES[1]]))
    db = check(warm, payload, reported=False)
    try:
        path.write_bytes(payload)
        assert load_plans(root, db) == 1  # only the good text plans
    finally:
        db.close()


def test_a_text_naming_a_missing_relation_plans_and_fails_as_cold(warm):
    texts = ["Nope", "join[1,2,3'; 3=1'](E, Nope)"]
    db = check(warm, edited(warm[2], _set("plans", texts)), reported=False)
    try:
        cached = {expr for (expr, _token), _plan in db._plans.snapshot()}
        assert {parse(text) for text in texts} <= cached
        for text in texts:
            with pytest.raises(UnknownRelationError):
                db.query(text).to_set()
    finally:
        db.close()


def test_statistics_of_a_missing_relation_are_skipped(warm):
    entry = {"cardinality": 1, "distinct": [1, 1, 1], "version": 1}
    check_closed(warm, edited(warm[2], _set("relations", "Nope", entry)), reported=False)
