"""The session caches hold what can still be hit, weighed in rows.

Clock-free checks of the two rules ``Database`` keeps its caches by:

* *weigh* — the result cache is bounded in rows by |T|, the size of the
  store its answers would be re-used against; the newest answer always
  stays, and the allowance follows the store from commit to commit;
* *evict* — a commit drops from the result and plan caches exactly the
  entries that read what it mutated, at the commit: nothing dead is
  held, persisted, or keeps a superseded store version reachable.
"""

from __future__ import annotations

import gc
import pickle
import sys
import threading
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import BACKENDS, Database, _LRU
from repro.service import QueryServer, ServiceClient, ServiceConfig
from repro.service.metrics import parse_exposition
from repro.storage.catalog import _token_current, load_plans
from repro.triplestore.model import Triplestore

# --------------------------------------------------------------------- #
# (a) _LRU: the running weight, the two bounds, the newest entry
# --------------------------------------------------------------------- #

KEYS = st.integers(0, 11)
STEPS = st.one_of(
    st.tuples(st.just("get"), KEYS, st.integers(0, 9)),  # key, rows of its value
    st.tuples(st.just("evict"), st.sets(KEYS, max_size=4)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("budget"), st.integers(0, 30)),
)


def _assert_sound(cache: _LRU, budget: int | None) -> None:
    info = cache.info()
    held = cache.snapshot()
    assert info.size == len(held) <= max(cache.maxsize, 0)
    assert info.budget == budget
    if budget is None:
        assert info.weight == 0
    else:
        assert info.weight == sum(len(value) for _, value in held)


@settings(max_examples=200, deadline=None)
@given(
    maxsize=st.integers(0, 6),
    budgeted=st.booleans(),
    steps=st.lists(STEPS, max_size=40),
)
def test_lru_keeps_its_weight_its_bounds_and_its_newest_entry(
    maxsize, budgeted, steps
):
    allowance = [12]
    cache = _LRU(maxsize, budget=(lambda: allowance[0]) if budgeted else None)
    hits = misses = 0
    for step in steps:
        if step[0] == "get":
            _, key, rows = step
            known = dict(cache.snapshot())
            value = cache.get(key, lambda: range(rows))
            if key in known:
                hits += 1
                assert value is known[key]
            else:
                misses += 1
                assert value == range(rows)
                if maxsize:
                    # The value just inserted is held, whatever it weighs,
                    # and it alone may take the cache past its budget.
                    assert cache.snapshot()[-1] == (key, value)
                    info = cache.info()
                    assert not budgeted or info.weight <= allowance[0] or info.size == 1
        elif step[0] == "evict":
            cache.evict(step[1].__contains__)
            assert not step[1] & {key for key, _ in cache.snapshot()}
        elif step[0] == "clear":
            cache.clear()
            assert cache.info().size == 0
        else:
            allowance[0] = step[1]  # a commit moved |T|; nothing is dropped for it
        _assert_sound(cache, allowance[0] if budgeted else None)
        assert (cache.hits, cache.misses) == (hits, misses)


def test_lru_invariants_hold_after_threads_hammer_one_cache():
    budget, maxsize, rounds = 40, 16, 400
    cache = _LRU(maxsize, budget=lambda: budget)
    errors: list = []

    def hammer(seed: int) -> None:
        try:
            for i in range(rounds):
                key = (seed * 7 + i * 13) % 37
                value = cache.get(key, lambda: range(key % 11))
                assert len(value) == key % 11
                if i % 29 == 0:
                    cache.evict(lambda k: k % 5 == seed % 5)
        except BaseException as exc:  # surfaces in the main thread
            errors.append(repr(exc))

    threads = [threading.Thread(target=hammer, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside the locked regions' gaps
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    _assert_sound(cache, budget)
    info = cache.info()
    assert info.hits + info.misses == 8 * rounds
    assert info.weight <= budget or info.size == 1
    assert len(Counter(key for key, _ in cache.snapshot())) == info.size


def test_the_eviction_scan_hashes_no_key_it_keeps():
    """A key holds an expression tree, and hashing one walks it: a commit
    looks at every key of two caches, so the scan must not hash them (an
    ``OrderedDict``'s own iterator does, once per key it yields)."""

    class Key:
        hashed = 0

        def __init__(self, n: int) -> None:
            self.n = n

        def __hash__(self) -> int:
            Key.hashed += 1
            return hash(self.n)

        def __eq__(self, other) -> bool:
            return self.n == other.n

    cache = _LRU(64, budget=lambda: 1000)
    for n in range(40):
        cache.get(Key(n), lambda: range(2))
    Key.hashed = 0
    cache.evict(lambda key: key.n % 10 == 0)
    assert Key.hashed == 4  # the four it dropped, once each
    assert (cache.info().size, cache.info().weight) == (36, 72)


# --------------------------------------------------------------------- #
# (b) a commit evicts exactly its dependents, at once
# --------------------------------------------------------------------- #

E_ROWS = [("a", "p", "b"), ("b", "p", "c"), ("c", "p", "d")]
D_ROWS = [("a", "q", "b"), ("b", "q", "c")]
#: Never queried: |T| large enough that no answer below is evicted for rows.
PAD = [(f"o{i}", f"o{j}", f"o{k}") for i in range(4) for j in range(4) for k in range(4)]

OVER_E = ("E", "join[1,2,3'; 3=1'](E, E)")
OVER_D = ("D", "select[2='q'](D)")
OVER_BOTH = ("(E | D)",)
OVER_U = ("select[1='a' & 3='a'](U)",)


def _warm(db: Database, queries) -> None:
    for q in queries:
        db.query(q).to_set()


def _sizes(db: Database) -> tuple[int, int]:
    info = db.cache_info()
    return info["results"].size, info["plans"].size


@pytest.fixture(params=BACKENDS)
def two_relations(request):
    store = Triplestore({"E": E_ROWS, "D": D_ROWS, "Pad": PAD})
    return Database(store, backend=request.param)


def test_a_commit_evicts_exactly_its_dependents_from_results_and_plans(
    two_relations,
):
    db = two_relations
    _warm(db, OVER_E + OVER_D + OVER_BOTH)
    db.cached("frontend-memo", lambda: "value")
    assert _sizes(db) == (5, 5)
    assert db.cache_info()["aux"].size == 1
    db.install("D", D_ROWS + [("c", "q", "d")])
    # Before any further query: the D readers are gone from both caches.
    assert _sizes(db) == (2, 2)
    assert db.cache_info()["aux"].size == 0
    before = db.cache_info()
    _warm(db, OVER_E)
    after = db.cache_info()
    assert after["results"].hits == before["results"].hits + 2
    assert after["results"].misses == before["results"].misses
    assert _sizes(db) == (2, 2)
    assert db.query("D") == set(D_ROWS) | {("c", "q", "d")}


def test_a_universe_reader_goes_on_any_commit(two_relations):
    db = two_relations
    _warm(db, OVER_E + OVER_U)
    assert _sizes(db) == (3, 3)
    db.install("Unrelated", [("x", "y", "z")])
    assert _sizes(db) == (2, 2)
    hits = db.cache_info()["results"].hits
    _warm(db, OVER_E)
    assert db.cache_info()["results"].hits == hits + 2


def test_a_batch_evicts_at_its_commit_and_not_at_all_when_it_raises(two_relations):
    db = two_relations
    _warm(db, OVER_E + OVER_D)
    db.cached("frontend-memo", lambda: "value")
    with pytest.raises(RuntimeError):
        with db.batch():
            db.install("D", [])
            db.install("E", [])
            assert _sizes(db) == (4, 4)
            raise RuntimeError("abandon the batch")
    assert _sizes(db) == (4, 4) and db.cache_info()["aux"].size == 1
    with db.batch():
        db.install("D", [])
        assert _sizes(db) == (4, 4)  # staged: nothing is dead yet
    assert _sizes(db) == (2, 2) and db.cache_info()["aux"].size == 0


def test_a_prepared_statements_results_go_with_their_relation(two_relations):
    db = two_relations
    on_e = db.prepare("select[1=$s](E)")
    on_d = db.prepare("select[1=$s](D)")
    for s in "ab":
        on_e.execute(s=s).to_set()
        on_d.execute(s=s).to_set()
    assert _sizes(db) == (4, 2)  # one canonical plan per statement
    db.install("E", E_ROWS[:1])
    assert _sizes(db) == (2, 1)
    hits = db.cache_info()["results"].hits
    assert on_d.execute(s="a") == {("a", "q", "b")}
    assert db.cache_info()["results"].hits == hits + 1
    assert on_e.execute(s="b") == set()


# --------------------------------------------------------------------- #
# (c) the budget follows the store
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
def test_doubling_the_store_doubles_what_the_next_insertions_may_keep(backend):
    n = 8
    rows = [(f"s{i}", "p", f"t{i}") for i in range(n)]
    db = Database.from_triples(rows, backend=backend)
    by_subject = db.prepare("select[1=$x](E)")
    by_object = db.prepare("select[3=$x](E)")
    held = lambda: db.cache_info()["results"]

    for i in range(n):  # one row each
        assert len(by_subject.execute(x=f"s{i}")) == 1
    assert (held().size, held().weight, held().budget) == (n, n, n)
    for i in range(n // 2):  # each pushes the oldest row out
        by_object.execute(x=f"t{i}")
    assert (held().size, held().weight) == (n, n)

    db.install("F", [(f"f{i}", "p", f"g{i}") for i in range(n)])
    assert (held().size, held().weight, held().budget) == (n, n, 2 * n)
    for i in range(n // 2, n):
        by_object.execute(x=f"t{i}")
    for i in range(n // 2):
        by_subject.execute(x=f"s{i}")  # evicted under the old |T|: misses
    assert (held().size, held().weight) == (2 * n, 2 * n)
    assert held().hits == 0
    db.query("F")  # n rows at once: the n oldest single rows go
    assert (held().size, held().weight) == (n + 1, 2 * n)
    # An empty answer weighs nothing and is bounded by entries alone.
    by_subject.execute(x="nobody")
    assert (held().size, held().weight) == (n + 2, 2 * n)


def test_the_budget_does_not_keep_a_dropped_session_alive():
    """The result cache reads |T| off its session; holding the session
    for that would leave every dropped ``Database`` — and the store
    version it holds — to the cycle collector."""
    db = Database.from_triples(E_ROWS)
    db.query("E")
    session = weakref.ref(db)
    gc.disable()
    try:
        del db
        assert session() is None  # freed at refcount zero
    finally:
        gc.enable()


# --------------------------------------------------------------------- #
# (d) paging a result larger than |T| through the service
# --------------------------------------------------------------------- #


def _result_events(client: ServiceClient) -> tuple[int, int]:
    series = parse_exposition(client.metrics())
    key = 'repro_cache_events_total{tenant="default",cache="results",event="%s"}'
    return int(series[key % "hit"]), int(series[key % "miss"])


@pytest.mark.parametrize("backend", BACKENDS)
def test_paging_a_result_larger_than_the_store_hits_until_another_is_inserted(
    backend,
):
    chain = [(f"n{i}", "next", f"n{i + 1}") for i in range(6)]
    closure = "star[1,2,3'; 3=1'](E)"  # 6 + 5 + … + 1 = 21 rows on 6 triples
    db = Database.from_triples(chain, backend=backend)
    with QueryServer(db, ServiceConfig(port=0)) as srv:
        with ServiceClient(srv.url) as client:
            sid = client.prepare(closure)["statement"]
            pages = [
                client.execute(sid, limit=5, offset=offset)
                for offset in range(0, 25, 5)
            ]
            assert [p["returned"] for p in pages] == [5, 5, 5, 5, 1]
            assert {p["total"] for p in pages} == {21}
            assert len({tuple(r) for p in pages for r in p["rows"]}) == 21
            assert _result_events(client) == (4, 1)  # pages 2…5 hit
            gauge = parse_exposition(client.metrics())
            assert gauge['repro_result_cache_rows{tenant="default"}'] == 21

            # Another answer on the tenant: 21 + 6 rows > |T| = 6, so the
            # large one goes and the next page recomputes it.
            assert client.query("E", limit=0)["total"] == 6
            assert _result_events(client) == (4, 2)
            assert client.execute(sid, limit=5, offset=5)["returned"] == 5
            assert _result_events(client) == (4, 3)
            assert client.execute(sid, limit=5, offset=10)["returned"] == 5
            assert _result_events(client) == (5, 3)


# --------------------------------------------------------------------- #
# (e) the catalog holds live plans only
# --------------------------------------------------------------------- #


def test_a_closed_durable_store_persists_only_plans_that_can_still_hit(tmp_path):
    root = tmp_path / "store"
    reads_d = ("D", "select[2='q'](D)", "join[1,2,3'; 3=1'](D, D)", "(E | D)")
    db = Database(path=root)
    db.install("E", E_ROWS)
    commits = 6
    for n in range(commits):
        db.install("D", D_ROWS + [(f"c{n}", "q", f"d{n}")])
        _warm(db, reads_d + OVER_E)
    live = len(reads_d) + len(OVER_E)
    assert db.cache_info()["plans"].size == live  # not commits × reads
    db.close()

    doc = pickle.loads((root / "catalog" / "plans.bin").read_bytes())
    keys = [pickle.loads(blob)[0] for blob in doc["entries"]]
    assert len(keys) == live
    reopened = Database(path=root)
    try:
        assert all(_token_current(reopened, token) for _, token, _ in keys)
        assert reopened.cache_info()["plans"].size == live
        assert load_plans(root, reopened) == live  # every entry read is seeded
        seeded = reopened.cache_info()["plans"].misses  # seeding inserts
        _warm(reopened, reads_d + OVER_E)
        assert reopened.cache_info()["plans"].misses == seeded == live
    finally:
        reopened.close()


def test_a_close_keeps_another_backends_live_plans_and_drops_its_dead_ones(
    tmp_path,
):
    root = tmp_path / "store"
    with Database(path=root, backend="set") as db:
        db.install("E", E_ROWS)
        db.install("D", D_ROWS)
        _warm(db, OVER_E + OVER_D)
    with Database(path=root, backend="columnar") as db:
        db.install("D", D_ROWS[:1])  # the set session's D plans die here
        _warm(db, OVER_D)
    doc = pickle.loads((root / "catalog" / "plans.bin").read_bytes())
    keys = [pickle.loads(blob)[0] for blob in doc["entries"]]
    assert Counter(backend for _, _, backend in keys) == {"set": 2, "columnar": 2}
    with Database(path=root, backend="set") as db:
        assert all(_token_current(db, token) for _, token, _ in keys)
        assert db.cache_info()["plans"].size == len(OVER_E)


# --------------------------------------------------------------------- #
# (f) a dead answer does not keep a superseded store version reachable
# --------------------------------------------------------------------- #


def test_a_commit_leaves_the_superseded_columnar_store_collectable():
    db = Database(Triplestore({"D": D_ROWS}), backend="columnar")
    _warm(db, OVER_D + ("join[1,2,3'; 3=1'](D, D)",))
    old = db.store.columnar()
    # ColumnarStore takes no weak references; arrays it owns do, and one
    # of them can only die after the store holding it has.
    owned = [weakref.ref(old.dv_codes), weakref.ref(old.relation_keys("D"))]
    del old
    db.install("D", D_ROWS + [("x-new", "q", "y-new")])  # the dictionary grows
    gc.collect()
    assert all(ref() is None for ref in owned)
    assert db.query("D").total == 3
