"""Query API v2: prepared statements, cursors and explain.

Run:  python examples/prepared_statements.py

Walks the v2 facade surface over the paper's Figure 1 database:

* ``db.prepare`` compiles a ``$param``-placeholder query once and binds
  constants per execution — the plan cache counters prove no re-planning
  happens across bindings;
* ad-hoc queries canonicalize their constants, so queries differing only
  in a constant share one cached plan too;
* results are lazy cursors: ``limit`` slices before decode on the
  columnar backends;
* ``db.explain(...)`` is the explain report: ``print`` it for text,
  ``.to_json()`` for data;
* ``db.batch()`` applies several installs as one transactional swap.
"""

from repro import Database
from repro.rdf import figure1


def main() -> None:
    db = Database(figure1(), backend="columnar")
    print("session:", db)

    # -- prepared statements ------------------------------------------- #
    stmt = db.prepare("select[2=$label](E)")
    print("\nprepared:", stmt)
    for label in ("part_of", "Train Op 1", "no_such_label"):
        result = stmt.execute(label=label)
        print(f"  $label={label!r}: {len(result)} triples")
    plans = db.cache_info()["plans"]
    print(f"plan cache: {plans.misses} compile(s), {plans.hits} reuse(s)")
    assert plans.misses == 1, "three bindings must not re-plan"

    # -- cross-parameter plan sharing for ad-hoc queries ---------------- #
    db.query("select[2='part_of'](E)")  # compiles the canonical shape once
    before = db.cache_info()["plans"].misses
    db.query("select[2='Train Op 1'](E)")  # same shape, new constant
    assert db.cache_info()["plans"].misses == before
    print("ad-hoc queries differing only in constants share one plan")

    # -- lazy cursors ---------------------------------------------------- #
    reach = db.query("star[1,2,3'; 3=1'](E)")
    print(f"\nreachability: {reach.total} triples total; first 3 decoded:")
    for s, p, o in reach.limit(3):
        print(f"  {s!r} -[{p!r}]-> {o!r}")
    print("as node pairs:", len(reach.pairs()))

    # -- explain --------------------------------------------------------- #
    report = db.explain("join[1,3',3; 2=1'](E, E)")
    print(f"\nexplain:\n{report}")
    print("\nexplain --json (truncated):")
    print("\n".join(report.to_json().splitlines()[:8]), "\n  ...")

    # -- transactional batches ------------------------------------------- #
    with db.batch():
        # Both evaluate against the pre-batch store and land atomically
        # on exit, invalidating only their own relations.
        db.install("Reach", "star[1,2,3'; 3=1'](E)")
        db.install("Hubs", "join[1,2,3; 2=2'](E, E)")
    print("\nbatch installed:", ", ".join(sorted(db.store.relation_names)))
    print("Reach/Hubs sizes:", len(db.query("Reach")), len(db.query("Hubs")))

    # The old per-language query_* methods still work but warn; the
    # README migration table maps each onto the v2 surface.
    print("\nDone.")


if __name__ == "__main__":
    main()
