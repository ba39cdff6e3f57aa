"""The columnar kernel under threads: nothing it reuses is shared between
calls.

Every query context owns its :class:`~repro.core.engines.vectorized.MappedArrays`
and its accumulators, and the sharded backend runs a context's shards
on the thread that runs the query.  Eight threads run the paper's
Example 3 and a two-step join at once — through one columnar
``Database`` and through one sharded ``Database`` — each call with a
fresh nonce, so none is answered from the result cache, and every
answer must equal the serial run's.  A mapping is counted back out by
its finalizer on whichever thread drops its last view, so one
:class:`MappedArrays` is counted from several threads; the count must
lose no update.  CI runs this file five times in a row.
"""

from __future__ import annotations

import gc
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import Database
from repro.core.engines.vectorized import MappedArrays
from repro.workloads import transport_network

#: Example 3 over a no-op filter that carries the nonce.
EXAMPLE_3 = "star[1,2,3'; 3=1' & 2=2'](star[1,3',3; 2=1'](select[1!=$x](E)))"
STEP2 = "join[1,2,3'; 3=1'](join[1,2,3'; 3=1'](select[2=$l & 1!=$x](E), E), E)"
THREADS, CALLS = 8, 3


@pytest.fixture(scope="module")
def network():
    """A Figure 1-shaped network whose accumulators are mapped (4 × 39 800
    keys and more) and whose stars span several row blocks."""
    store = transport_network(20_000, 900, 25, hierarchy_depth=2, extra_routes=18_000, seed=7)
    label = Counter(p for _, p, _ in store.relation("E")).most_common(1)[0][0]
    return store, label


@pytest.mark.parametrize(
    "options", [{}, {"backend": "sharded"}], ids=["columnar", "sharded"]
)
def test_eight_threads_answer_as_the_serial_run(network, options):
    store, label = network
    db = Database(store, **options)
    queries = {"example3": (db.prepare(EXAMPLE_3), {}), "step2": (db.prepare(STEP2), {"l": label})}
    nonces = iter(range(10**6))
    lock = threading.Lock()

    def run(name: str) -> list:
        statement, params = queries[name]
        with lock:
            nonce = f"~{next(nonces)}"
        return statement.execute(x=nonce, **params).to_list()

    expected = {name: run(name) for name in queries}
    assert len(expected["example3"]) > 100_000 and expected["step2"]
    start = threading.Barrier(THREADS)

    def worker(index: int) -> list[tuple[str, list]]:
        start.wait(timeout=60)
        names = [("example3", "step2")[(index + call) % 2] for call in range(CALLS)]
        return [(name, run(name)) for name in names]

    with ThreadPoolExecutor(THREADS) as pool:
        batches = pool.map(worker, range(THREADS), timeout=300)
        answers = [answer for batch in batches for answer in batch]
    assert len(answers) == THREADS * CALLS
    for name, rows in answers:
        assert rows == expected[name], name
    db.close()


def test_a_shared_count_loses_no_update():
    """A mapping's finalizer counts it out of its :class:`MappedArrays`
    on whichever thread drops its last view, so one count is kept from
    several threads: with the interpreter switching threads as often as
    it can, eight threads that each trim and regrow their own mapping
    thousands of times leave it counting exactly what they hold, and
    once they let go, nothing."""
    mem, rounds, held = MappedArrays(), 3000, 2**16
    start = threading.Barrier(THREADS)

    def worker(_index: int) -> object:
        start.wait(timeout=60)
        arr = mem.empty(2**17)  # 1 MiB: a mapping
        for i in range(rounds):
            mem.hold(arr, held - 4096 * (i % 3))
        mem.hold(arr, held)
        return arr

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(THREADS) as pool:
            arrays = list(pool.map(worker, range(THREADS), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert mem.live == THREADS * 8 * held
    assert mem.high_water >= mem.live
    del arrays
    gc.collect()
    assert mem.live == 0
