"""E7–E9: the work Theorem 3 and Propositions 4–5 bound, counted.

The theorems bound *work*, so that is what these tests assert, exactly
where an exact value exists — never a wall-clock time:

* Procedure 1 (Theorem 3): ``NaiveEngine``'s nested loop examines
  |E|² pairs for one join;
* Procedure 2 (Theorem 3): its star re-joins the whole accumulator with
  E every round, |acc_r|·|E| pairs in round r;
* Proposition 4: ``HashJoinEngine`` visits Σ_k |L_k|·|R_k| candidate
  pairs, the pairs whose join keys agree;
* Proposition 5: ``FastEngine``'s reach star follows at most |O|·|E|
  successor edges in its BFS runs.

Spies in this file count that work from the outside: each wraps the
iterable a loop reads and counts the elements it hands out.  Each spy
is first checked on a four-triple store whose count is worked out by
hand, and sees nothing of an engine that does not run its loop.
"""

from collections import Counter

import pytest

from repro.core import FastEngine, HashJoinEngine, NaiveEngine, R, join, select, star
from repro.core.engines import reach
from repro.triplestore import Triplestore
from repro.workloads import chain_store, random_store

REACH = star(R("E"), "1,2,3'", "3=1'")
JOIN = join(R("E"), R("E"), "1,2,3'", "3=1'")

#: ``random_store(n_objects, n_triples)`` sizes of the join sweeps.
RANDOM_SIZES = [(8, 50), (12, 100), (20, 200)]
#: ``chain_store(n)`` sizes of the star sweeps.
CHAIN_SIZES = (4, 8, 16)

#: The store the spies are checked on; every count over it below is
#: worked out by hand in the test's docstring.
HAND = Triplestore(
    [("a", "p", "b"), ("a", "q", "b"), ("b", "p", "c"), ("b", "q", "a")]
)


# --------------------------------------------------------------------- #
# Spies
# --------------------------------------------------------------------- #


class Spy:
    """Counts every element the iterables it wrapped hand out."""

    def __init__(self) -> None:
        self.count = 0
        #: Per-call records, for spies that keep them.
        self.calls: list = []

    def wrap(self, items) -> "_Counted":
        return _Counted(items, self)

    def during(self, run) -> int:
        """The count ``run()`` adds."""
        before = self.count
        run()
        return self.count - before


class _Counted:
    def __init__(self, items, spy: Spy) -> None:
        self._items = items
        self._spy = spy

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        for item in self._items:
            self._spy.count += 1
            yield item


class _CountingMap(dict):
    """A mapping whose ``get`` hands out counted values."""

    def __init__(self, mapping, spy: Spy) -> None:
        super().__init__(mapping)
        self._spy = spy

    def get(self, key, default=None):
        found = super().get(key)
        return default if found is None else self._spy.wrap(found)


@pytest.fixture()
def pairs_examined(monkeypatch):
    """Procedure 1's inner-loop iterations; ``calls`` holds one
    ``(|left|, |right|, pairs)`` record per ``nested_loop_join`` call."""
    spy = Spy()
    original = NaiveEngine.nested_loop_join

    def counting(self, left, right, out, conditions, store):
        before = spy.count
        result = original(self, left, spy.wrap(right), out, conditions, store)
        spy.calls.append((len(left), len(right), spy.count - before))
        return result

    monkeypatch.setattr(NaiveEngine, "nested_loop_join", counting)
    return spy


@pytest.fixture()
def candidate_pairs(monkeypatch):
    """The hash join's probe loop: every triple it reads from a bucket
    of the store's index.  The build side comes prebuilt from that
    index, so the inserts are never counted, only the probes."""
    spy = Spy()
    original = Triplestore.index

    def index(self, name, positions):
        return _CountingMap(original(self, name, positions), spy)

    monkeypatch.setattr(Triplestore, "index", index)
    return spy


@pytest.fixture()
def edges_followed(monkeypatch):
    """Successor edges the reach star's BFS runs follow."""
    spy = Spy()
    original = reach.bfs_reachable

    def bfs_reachable(succ, source):
        return original(_CountingMap(succ, spy), source)

    monkeypatch.setattr(reach, "bfs_reachable", bfs_reachable)
    return spy


def test_pairs_spy_counts_every_inner_iteration(pairs_examined):
    """``join[1,2,3'; 3=1'](select[2='p'](E), E)`` on HAND: the left
    operand is (a,p,b) and (b,p,c), the right one all four triples, so
    the nested loop examines 2·4 = 8 pairs.  A spy counting outer
    iterations would say 2; one reading the right operand once, 4."""
    expr = join(select(R("E"), "2='p'"), R("E"), "1,2,3'", "3=1'")
    NaiveEngine().evaluate(expr, HAND)
    assert pairs_examined.calls == [(2, 4, 8)]
    assert pairs_examined.during(lambda: HashJoinEngine().evaluate(expr, HAND)) == 0


def test_probe_spy_counts_every_candidate_pair(candidate_pairs):
    """``join[1,2,3'; 3=1'](E, E)`` on HAND keys the left operand on its
    object and the right one on its subject.  Objects: b twice, c once,
    a once; subjects: a twice, b twice.  The probe loop visits
    2·2 (b) + 1·0 (c) + 1·2 (a) = 6 candidate pairs, whichever side is
    built.  A spy counting probes would say 4; one counting non-empty
    buckets, 3 or 4.  The six pairs project to five triples —
    (b,q,a) meets (a,p,b) and (a,q,b) and both give (b,q,b) — so the
    output does not bound the probes."""
    result = HashJoinEngine().evaluate(JOIN, HAND)
    assert candidate_pairs.count == 6
    assert len(result) == 5
    assert candidate_pairs.during(lambda: NaiveEngine().evaluate(JOIN, HAND)) == 0


def test_edge_spy_counts_every_successor_followed(edges_followed):
    """``star[1,2,3'; 3=1'](E)`` on HAND: the successor map is
    a → {b}, b → {c, a}.  One BFS runs per distinct third component —
    b, c and a.  From b it pops b (edges to c and a), c (none) and a
    (the edge back to b): 3.  From c: 0.  From a: a (1), b (2), c (0):
    3.  So 6 edges; a spy counting popped nodes would say 7, one
    counting BFS runs, 3."""
    result = FastEngine().evaluate(REACH, HAND)
    assert edges_followed.count == 6
    assert edges_followed.during(lambda: NaiveEngine().evaluate(REACH, HAND)) == 0
    assert result == NaiveEngine().evaluate(REACH, HAND)


# --------------------------------------------------------------------- #
# Theorem 3
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("n_objects,n_triples", RANDOM_SIZES)
def test_naive_join_examines_every_pair(pairs_examined, n_objects, n_triples):
    """Procedure 1: the nested loop inspects all |E|² pairs."""
    store = random_store(n_objects, n_triples, seed=n_triples)
    size = len(store.relation("E"))  # duplicates collapse below n_triples
    NaiveEngine().evaluate(JOIN, store)
    assert pairs_examined.calls == [(size, size, size * size)]


def _accumulator_sizes(n: int) -> list[int]:
    """|acc_r| in each round r of Procedure 2 on ``chain_store(n)``.

    Before round r the accumulator holds every path of length 1 … r+1,
    and the chain has n - l + 1 paths of length l.  Round n - 1 finds
    nothing new (no path is longer than n), so the star stops there.
    """
    return [sum(n - length + 1 for length in range(1, r + 2)) for r in range(n)]


@pytest.mark.parametrize("n", CHAIN_SIZES)
def test_naive_star_rejoins_the_whole_accumulator(pairs_examined, n):
    """Procedure 2: each round joins all of acc_r with E — |acc_r|·|E|
    pairs — not only the triples the last round added."""
    store = chain_store(n)
    result = NaiveEngine().evaluate(REACH, store)
    assert len(result) == n * (n + 1) // 2
    sizes = _accumulator_sizes(n)
    assert pairs_examined.calls == [(acc, n, acc * n) for acc in sizes]
    assert pairs_examined.count == n * sum(sizes)


# --------------------------------------------------------------------- #
# Propositions 4 and 5
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("n_objects,n_triples", RANDOM_SIZES + [(60, 1500)])
def test_hash_join_visits_only_key_matched_pairs(candidate_pairs, n_objects, n_triples):
    """Proposition 4: the hash join visits Σ_k |L_k|·|R_k| pairs (L_k:
    triples with object k, R_k: triples with subject k), fewer than the
    |E|² the nested loop examines on the same store."""
    store = random_store(n_objects, n_triples, seed=n_triples)
    triples = store.relation("E")
    objects = Counter(t[2] for t in triples)
    subjects = Counter(t[0] for t in triples)
    HashJoinEngine().evaluate(JOIN, store)
    assert candidate_pairs.count == sum(objects[k] * subjects[k] for k in objects)
    assert candidate_pairs.count < len(triples) ** 2


@pytest.mark.parametrize("n", CHAIN_SIZES)
def test_bfs_star_follows_at_most_objects_times_edges(edges_followed, n):
    """Proposition 5: on the chain o0 → … → on one BFS runs from each
    of o1 … on, and the one from o_j follows the n - j edges ahead of
    it — n(n-1)/2 in all, within |O|·|E|."""
    store = chain_store(n)
    result = FastEngine().evaluate(REACH, store)
    assert len(result) == n * (n + 1) // 2
    assert edges_followed.count == n * (n - 1) // 2
    assert edges_followed.count <= len(store.objects) * len(store.relation("E"))


def test_bfs_pulls_away_from_the_naive_star(pairs_examined, edges_followed):
    """The naive star's pairs over the BFS star's edges, on the same
    chains: the ratio more than doubles each time n does, so the gap
    between Theorem 3's fixpoint and Proposition 5 is asymptotic."""
    ratios = []
    for n in CHAIN_SIZES:
        store = chain_store(n)
        pairs = pairs_examined.during(lambda: NaiveEngine().evaluate(REACH, store))
        edges = edges_followed.during(lambda: FastEngine().evaluate(REACH, store))
        ratios.append(pairs / edges)
    assert all(later > 2 * earlier for earlier, later in zip(ratios, ratios[1:])), ratios
