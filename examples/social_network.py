"""Social networks as triplestores (Section 2.3).

Run:  python examples/social_network.py

Builds the paper's Mario/Luigi/Donkey Kong network with quintuple data
values, then a larger synthetic network, and runs data-value (η) joins:
"who is reachable through connections of a single type" — the social
analogue of query Q.
"""

from repro import R, Star, evaluate, project13
from repro.core import Cond, Pos
from repro.rdf import social_network
from repro.workloads import same_type_reachability_reference, social_network_store

from format_table import format_table


def same_type_reach() -> Star:
    """(E ✶^{1,2,3'}_{3=1', ρ(2)=ρ(2')})* — chains of same-type links."""
    return Star(
        R("E"),
        (0, 1, 5),
        (Cond(Pos(2), Pos(3)), Cond(Pos(1), Pos(4), "=", True)),
    )


def main() -> None:
    paper = social_network()
    print("The paper's network (§2.3):")
    for triple in sorted(paper.relation("E")):
        s, c, o = triple
        print(f"  {s} --{c} {paper.rho(c)[3]!r}--> {o}")

    print("\nρ(o175) =", paper.rho("o175"))

    reach = evaluate(same_type_reach(), paper)
    print("\nSame-type reachability on the paper's network:")
    print(format_table(sorted(reach), headers=("from", "via", "to")))

    big = social_network_store(40, 120, data_mode="type", seed=7)
    result = evaluate(same_type_reach(), big)
    reference = same_type_reachability_reference(big)
    assert result == reference, "algebra and reference disagree!"

    by_type: dict = {}
    for s, conn, o in result:
        by_type.setdefault(big.rho(conn), set()).add((s, o))
    rows = [
        (ctype, len(pairs))
        for ctype, pairs in sorted(by_type.items(), key=lambda kv: str(kv[0]))
    ]
    print("\nSynthetic network (40 users, 120 connections):")
    print(format_table(rows, headers=("connection type", "reachable pairs")))

    direct = project13(evaluate(R("E"), big))
    closure = project13(result)
    print(f"\ndirect pairs: {len(direct)}, same-type closure: {len(closure)}")


if __name__ == "__main__":
    main()
