"""A multi-domain knowledge graph, queried end to end.

Run:  python examples/knowledge_graph.py

The Semantic-Web scenario the paper's introduction motivates: one triple
relation mixing affiliations, a type ontology, an organisational
hierarchy and geography — middles doubling as subjects throughout.
Shows the full toolchain: text query → explain → optimize →
evaluation → validation against an independent reference.
"""

from repro.api import explain_report
from repro.core import HashJoinEngine, evaluate
from repro.core.optimizer import optimize
from repro.core.parser import parse
from repro.workloads import knowledge_graph, reference_affiliated_via

from format_table import format_table


def main() -> None:
    kg = knowledge_graph(
        n_people=40, n_orgs=12, n_places=8, n_affiliations=90, seed=11
    )
    print("knowledge graph:", kg)

    # Everyone affiliated (through the subtype ontology) with any org,
    # lifted through the organisational hierarchy — in the text syntax.
    query_text = (
        "select[2='staff']("
        "  join[1,3',3; 2=1']("
        "    E,"
        "    star[1,2,3'; 3=1'](select[2='subtype_of'](E))"
        "  ) | E"
        ") | join[1,2,3'; 3=1']("
        "  select[2='staff']("
        "    join[1,3',3; 2=1'](E, star[1,2,3'; 3=1'](select[2='subtype_of'](E))) | E"
        "  ),"
        "  star[1,2,3'; 3=1'](select[2='part_of'](E))"
        ")"
    )
    expr = parse(query_text)
    report = explain_report(expr, kg)
    print("\nexplain:")
    print(report)

    optimized = optimize(expr)
    print(f"\noptimised size: {expr.size()} -> {optimized.size()} nodes")

    result = evaluate(optimized, kg, HashJoinEngine())
    people_org = {
        (s, o) for s, _, o in result if str(s).startswith("person")
    }
    reference = reference_affiliated_via(kg, "staff")
    assert people_org == reference, "algebra and reference disagree!"
    print(f"\nstaff affiliations (direct + inherited): {len(people_org)} pairs")

    by_org: dict = {}
    for person, org in sorted(people_org):
        by_org.setdefault(org, set()).add(person)
    rows = [
        (org, len(people)) for org, people in sorted(by_org.items())[:8]
    ]
    print(format_table(rows, headers=("organisation", "staff reach")))
    print("\nvalidated against the independent BFS reference. Done.")


if __name__ == "__main__":
    main()
