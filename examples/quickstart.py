"""Quickstart: the paper's Figure 1 database and query Q.

Run:  python examples/quickstart.py

Walks through the opening example of the paper: build the transport
RDF database of Figure 1 as a triplestore, run Example 2's join, then
the full recursive query Q ("cities connected by services operated by
one company"), and show why (St. Andrews, Brussels) is not an answer.
"""

from repro import (
    HashJoinEngine,
    NaiveEngine,
    evaluate,
    example2_expr,
    example2_extended,
    project13,
    query_q,
)
from repro.rdf import figure1

from format_table import format_table


def main() -> None:
    store = figure1()
    print("Figure 1 triplestore:", store)
    for triple in sorted(store.relation("E")):
        print("   ", triple)

    print("\nExample 2: e = E JOIN[1,3',3 ; 2=1'] E")
    print("  (cities with the companies operating the connecting service)")
    result = evaluate(example2_expr(), store)
    print(format_table(sorted(result), headers=("from", "operator", "to")))

    print("\nExample 2': e' also climbs one part_of level")
    extra = evaluate(example2_extended(), store) - result
    for triple in sorted(extra):
        print("  new:", triple)

    print("\nQuery Q: ((E ✶[1,3',3; 2=1'])* ✶[1,2,3'; 3=1', 2=2'])*")
    q_result = evaluate(query_q(), store)
    pairs = project13(q_result)
    print(format_table(sorted(q_result), headers=("from", "company", "to")))

    print("\nPaper's checks:")
    print("  (Edinburgh, London) in Q:      ", ("Edinburgh", "London") in pairs)
    print("  (St. Andrews, London) in Q:    ", ("St. Andrews", "London") in pairs)
    print("  (St. Andrews, Brussels) in Q:  ", ("St. Andrews", "Brussels") in pairs,
          " <- needs NatExpress AND Eurostar")

    # Engines share one semantics; the naive engine is the paper's
    # Theorem 3 algorithm.
    assert evaluate(query_q(), store, NaiveEngine()) == q_result
    assert evaluate(query_q(), store, HashJoinEngine()) == q_result
    print("\nNaive (Theorem 3) and hash-join engines agree. Done.")


if __name__ == "__main__":
    main()
