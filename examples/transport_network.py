"""Scaled transport integration: query Q on synthetic networks.

Run:  python examples/transport_network.py

The intro's motivating scenario — integrating transport services into a
single ticketing interface — at sizes beyond the paper's 8-triple
figure.  Shows the reachTA= fragment machinery (Proposition 5) paying
off: the FastEngine answers the same query with per-source BFS instead
of a generic fixpoint, and the result is validated against an
independent reference implementation.
"""

import time

from repro import FastEngine, HashJoinEngine, evaluate, query_q
from repro.core import in_reach_ta_eq
from repro.workloads import reference_query_q, transport_network

from format_table import format_table


def main() -> None:
    q = query_q()
    print("query Q:", q)
    # Q's outer star is reach-shaped but its inner one is not, so Q sits
    # just outside reachTA= — the FastEngine still accelerates the outer
    # closure and falls back to the generic fixpoint for the inner one.
    print("inside reachTA= (Prop 5 fragment):", in_reach_ta_eq(q))

    rows = []
    for n_cities in (10, 40, 80):
        store = transport_network(
            n_cities=n_cities,
            n_services=max(2, n_cities // 5),
            n_companies=3,
            hierarchy_depth=3,
            extra_routes=n_cities // 2,
            seed=n_cities,
        )
        start = time.perf_counter()
        fast = FastEngine().evaluate(q, store)
        t_fast = time.perf_counter() - start

        start = time.perf_counter()
        generic = HashJoinEngine().evaluate(q, store)
        t_generic = time.perf_counter() - start

        reference = reference_query_q(store)
        assert fast == generic == reference, "engines/reference disagree!"

        rows.append(
            (
                n_cities,
                len(store),
                len(fast),
                f"{t_fast * 1e3:.1f}",
                f"{t_generic * 1e3:.1f}",
            )
        )

    print(
        format_table(
            rows,
            headers=("cities", "|T|", "|Q(T)|", "fast ms", "generic ms"),
        )
    )
    print("\nAll sizes validated against the independent BFS reference.")


if __name__ == "__main__":
    main()
