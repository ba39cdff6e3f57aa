"""Seeded inputs for the four workloads: relations, statements, op lists.

Everything a workload feeds the program is generated here from
``--seed`` before any timing starts.  A *plan* (plain JSON-able dict)
names the relations to install, the statements to prepare and one
*pass* of ops; the session replays whole passes so the op mix is the
same in every run.

Two devices keep every timed op a result-cache miss and a plan-cache
hit (``Database`` keeps 128-entry LRUs for both):

* prepared TriAL templates carry a ``!=$x`` condition whose binding is
  a *nonce* — a constant that occurs nowhere in the store, so the
  condition is true on every row and the result depends only on the
  other bindings, while the result-cache key is new on every execution;
* fixed-text ops (query Q, the GXPath/RPQ/NRE forms) recur once per
  pass, and every pass holds more than 128 distinct keys, so the LRU
  has evicted them by the time they come round again.

Result sizes inside one template family stay within about ±20 %: the
label-bound families bind the labels whose (estimated) result size is
nearest the family's target.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations
from dataclasses import dataclass

WORKLOADS = ("svc_point", "svc_stream", "db_analytic", "durable_mixed")

#: Geometric label skew of relation E: label i is drawn with weight
#: ``LABEL_RATIO ** i``.  0.85 puts neighbouring labels 15 % apart, so
#: three labels always sit within ±20 % of any target size.
LABEL_RATIO = 0.85

#: Nonce'd executions of each (template, binding) per pass of
#: ``db_analytic``; with the fixed-text ops a pass then holds >= 160
#: distinct result-cache keys.
ANALYTIC_REPS = 6

#: Auto-compaction threshold for ``durable_mixed``.  A 1000-triple batch
#: logs 26 062 bytes (names have fixed width), so the WAL outgrows this
#: on every 6th commit — midway between 5 and 6 records, never at an
#: edge — and a run sees ten or more compactions.
DURABLE_WAL_LIMIT = 143000

N_DELTAS = 8


@dataclass(frozen=True)
class Scale:
    nodes: int
    labels: int
    triples: int
    cities: int
    services: int
    companies: int
    extra_routes: int
    delta: int
    #: Nodes the point lookups of ``svc_point`` go round.
    points: int = 8
    #: Nonce'd streams of each (template, label) per ``svc_stream`` pass.
    stream_reps: int = 4

    def shrink(self, factor: float) -> "Scale":
        def s(n: int, floor: int) -> int:
            return max(floor, int(n * factor))

        return Scale(
            nodes=s(self.nodes, 200),
            labels=self.labels,
            triples=s(self.triples, 1000),
            cities=s(self.cities, 300),
            services=s(self.services, 20),
            companies=s(self.companies, 4),
            extra_routes=s(self.extra_routes, 300),
            delta=s(self.delta, 40),
            points=2,
            stream_reps=1,
        )


FULL = Scale(
    nodes=20_000,
    labels=16,
    triples=100_000,
    cities=45_000,
    services=2_000,
    companies=50,
    extra_routes=40_000,
    delta=1_000,
)
QUICK = FULL.shrink(0.02)


def node(i: int) -> str:
    return f"n{i:05d}"


def label(i: int) -> str:
    return f"l{i:02d}"


def edge_relation(rng: random.Random, scale: Scale) -> list[tuple]:
    """Relation E: ``(node, label, node)`` triples with skewed labels."""
    weights = [LABEL_RATIO**i for i in range(scale.labels)]
    labels = rng.choices(range(scale.labels), weights, k=scale.triples)
    n = scale.nodes
    triples = (
        (node(rng.randrange(n)), label(l), node(rng.randrange(n))) for l in labels
    )
    # dict.fromkeys dedupes in generation order: no dependence on hashing.
    return list(dict.fromkeys(triples))


def transport_relation(seed: int, scale: Scale) -> list[tuple]:
    """Relation T: the Figure 1-shaped network query Q runs over."""
    from repro.workloads import transport_network

    store = transport_network(
        scale.cities,
        scale.services,
        scale.companies,
        hierarchy_depth=2,
        extra_routes=scale.extra_routes,
        seed=seed,
    )
    return sorted(store.relation("E"))


def delta_relation(rng: random.Random, scale: Scale) -> list[tuple]:
    """One delta relation: fresh edges over E's own nodes and labels."""
    n, k = scale.nodes, scale.labels
    triples = (
        (node(rng.randrange(n)), label(rng.randrange(k)), node(rng.randrange(n)))
        for _ in range(scale.delta)
    )
    return list(dict.fromkeys(triples))


# --------------------------------------------------------------------- #
# Statements
# --------------------------------------------------------------------- #

QUERY_Q = "star[1,2,3'; 3=1' & 2=2'](star[1,3',3; 2=1'](T))"

#: Prepared TriAL templates, nonce'd through ``$x``.
TEMPLATES = {
    # point / 2-hop lookups around one node
    "out": "select[1=$s & 3!=$x](E)",
    "in": "select[3=$s & 1!=$x](E)",
    "out2": "join[1,2,3'; 3=1'](select[1=$s & 3!=$x](E), E)",
    "in2": "join[1',2',3; 1=3'](select[3=$s & 1!=$x](E), E)",
    # label-bound scans and paths
    "label": "select[2=$l & 1!=$x](E)",
    "step": "join[1,2,3'; 3=1'](select[2=$l & 1!=$x](E), E)",
    "step2": "join[1,2,3'; 3=1'](join[1,2,3'; 3=1'](select[2=$l & 1!=$x](E), E), E)",
    "samestep": "join[1,2,3'; 3=1' & 2=2'](select[2=$l & 1!=$x](E), E)",
    "samestar": "star[1,2,3'; 3=1' & 2=2'](select[2=$l & 1!=$x](E))",
    "anystar": "star[1,2,3'; 3=1'](select[2=$l & 1!=$x](E))",
    "diff": "select[2=$l & 1!=$x](E) - join[1,2,3'; 3=1'](select[2=$l](E), E)",
    "union": "select[2=$l & 1!=$x](E) | select[2=$m](E)",
    "meet": "join[1,2,3'; 3=1'](select[2=$l & 1!=$x](E), E) & select[2=$l](E)",
}

#: The same templates over a delta relation D<k> (``{d}`` is filled in).
DELTA_TEMPLATES = {
    "d_scan": "select[2=$l & 1!=$x]({d})",
    "d_then_e": "join[1,2,3'; 3=1'](select[1!=$x]({d}), E)",
    "e_then_d": "join[1,2,3'; 3=1'](select[2=$l & 1!=$x](E), {d})",
    "d_minus_e": "select[1!=$x]({d}) - E",
}

#: Fixed-text forms of the two-step paths in the graph languages, each
#: formatted with two labels.  Every (form, label pair) must translate
#: to a distinct TriAL expression, or it would hit the result cache.
#: Node tests (``a.[b]``, ``a/[<b>]``) are left out: they translate to
#: an unconditioned ``join[1,1,1]`` cross product (README, Findings).
LANGUAGE_FORMS = (
    ("gx_concat", "gxpath", "{a}/{b}"),
    ("gx_inverse", "gxpath", "{a}/{b}-"),
    ("rpq_concat", "rpq", "{a}.{b}"),
    ("rpq_union", "rpq", "{a}+{b}"),
    ("nre_concat", "nre", "{a}.{b}"),
    ("nre_inverse", "nre", "{a}-.{b}"),
)


# --------------------------------------------------------------------- #
# Size estimates (pure Python, independent of the engines)
# --------------------------------------------------------------------- #


class EdgeStats:
    """Counts over relation E that op selection needs."""

    def __init__(self, edges: list[tuple]) -> None:
        self.label_count = Counter(p for _, p, _ in edges)
        self.out_deg = Counter(s for s, _, _ in edges)
        self.in_deg = Counter(o for _, _, o in edges)
        step = Counter()
        for _, p, o in edges:
            step[p] += self.out_deg.get(o, 0)
        self.step_count = step
        self.labels = sorted(self.label_count)

    def nearest(self, size_of, target: float, k: int = 3) -> list[str]:
        """The ``k`` labels whose estimated result size is nearest ``target``."""
        ranked = sorted(self.labels, key=lambda l: (abs(size_of(l) - target), l))
        return sorted(ranked[:k])


def _op(stmt: str, **params) -> dict:
    key = stmt + "".join(f"|{k}={v}" for k, v in sorted(params.items()))
    return {"stmt": stmt, "params": params, "key": key}


def _prepared(names) -> list[dict]:
    return [
        {"id": name, "text": TEMPLATES[name], "lang": "trial", "nonce": True}
        for name in names
    ]


# --------------------------------------------------------------------- #
# Plans
# --------------------------------------------------------------------- #


def build_plan(workload: str, seed: int, scale: Scale) -> dict:
    """Relations, statements and one pass of ops for ``workload``.

    The returned dict is JSON-able except ``relations`` (lists of
    tuples), which the orchestrator installs and then drops.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    edges = edge_relation(rng, scale)
    stats = EdgeStats(edges)
    # Two contents per delta relation D0..D7.  ``durable_mixed`` replaces
    # them as its write ops; every traced run replays the same write
    # cycles as a probe of the storage layers.  The contents are trimmed
    # to equal sizes, so the live triple count never depends on which
    # variant a run ended on.
    delta_rng = random.Random(f"deltas/{seed}")
    deltas = {}
    for k in range(N_DELTAS):
        variants = [delta_relation(delta_rng, scale), delta_relation(delta_rng, scale)]
        size = min(map(len, variants))
        deltas[f"D{k}"] = [v[:size] for v in variants]
    plan = {
        "workload": workload,
        "seed": seed,
        "relations": {"E": edges},
        "env": {},
        "deltas": deltas,
        # Every timed op must find its plan in the plan cache.
        "plan_hit_floor": 0.99,
    }
    builder = {
        "svc_point": _svc_point,
        "svc_stream": _svc_stream,
        "db_analytic": _db_analytic,
        "durable_mixed": _durable_mixed,
    }[workload]
    builder(plan, rng, stats, scale, seed)
    return plan


def _repeat(ops: list[dict], reps: int) -> list[dict]:
    """``reps`` rounds of ``ops``: equal bindings are never back to back."""
    return [dict(op) for _ in range(reps) for op in ops]


def _svc_point(plan, rng, stats, scale, seed) -> None:
    # Nodes of average degree on both sides: 2-hop results stay <= 50 rows.
    typical = sorted(
        n
        for n in stats.out_deg
        if 4 <= stats.out_deg[n] <= 6 and 4 <= stats.in_deg.get(n, 0) <= 6
    )
    subjects = sorted(rng.sample(typical, scale.points))
    names = ("out", "in", "out2", "in2")
    plan.update(
        transport="http",
        limit=50,
        statements=_prepared(names),
        ops=[_op(name, s=s) for s in subjects for name in names],
    )


def _svc_stream(plan, rng, stats, scale, seed) -> None:
    target = scale.triples / 10
    scans = stats.nearest(lambda l: stats.label_count[l], target)
    steps = stats.nearest(lambda l: stats.step_count[l], target)
    plan.update(
        transport="ws",
        limit=None,
        page_size=512,
        statements=_prepared(("label", "step")),
        ops=_repeat(
            [_op("label", l=l) for l in scans] + [_op("step", l=l) for l in steps],
            scale.stream_reps,
        ),
    )


def _db_analytic(plan, rng, stats, scale, seed) -> None:
    plan["relations"]["T"] = transport_relation(seed, scale)
    count, step = stats.label_count, stats.step_count
    n = scale.triples
    mid = stats.nearest(lambda l: count[l], n / 10)
    small = stats.nearest(lambda l: count[l], n / 40)
    families = {
        "samestar": mid,
        "samestep": mid,
        "diff": mid,
        "meet": small,
        "step": stats.nearest(lambda l: step[l], n / 4),
        "step2": stats.nearest(lambda l: step[l], n / 10),
        "anystar": small,
    }
    ops = [_op(name, l=l) for name, labels in families.items() for l in labels]
    ops += [_op("union", l=l, m=m) for l, m in zip(mid, small)]
    statements = _prepared([*families, "union"])
    # Fixed-text ops run once per pass, after the rounds of nonce'd ops.
    fixed = [
        {"id": "query_q", "text": QUERY_Q, "lang": "trial", "nonce": False},
        {
            "id": "q_inner",
            "text": "star[1,3',3; 2=1'](T)",
            "lang": "trial",
            "nonce": False,
        },
    ]
    # Label pairs are enumerated, not drawn: the op mix is the same for
    # every seed, and no unordered pair is used twice (see LANGUAGE_FORMS).
    pool = stats.nearest(lambda l: count[l], n / 20, k=10)
    pairs = list(combinations(pool, 2))
    for i, (form, lang, text) in enumerate(LANGUAGE_FORMS):
        for a, b in pairs[i :: len(LANGUAGE_FORMS)][:6]:
            fixed.append(
                {
                    "id": f"{form}:{a}:{b}",
                    "text": text.format(a=a, b=b),
                    "lang": lang,
                    "nonce": False,
                }
            )
    plan.update(
        transport="inproc",
        limit=100,
        statements=statements + fixed,
        ops=_repeat(ops, ANALYTIC_REPS) + [_op(s["id"]) for s in fixed],
    )


def _durable_mixed(plan, rng, stats, scale, seed) -> None:
    # Pass p installs variant p % 2, so every commit changes the relation
    # and the reads that follow must see the new content.  The store is
    # built holding variant 1.
    for name, variants in plan["deltas"].items():
        plan["relations"][name] = variants[1]
    typical = sorted(n for n in stats.out_deg if 4 <= stats.out_deg[n] <= 6)
    subjects = rng.sample(typical, 2 * N_DELTAS)
    small = stats.nearest(lambda l: stats.label_count[l], scale.triples / 40, k=2)
    statements = _prepared(("out", "out2", "label"))
    ops = []
    for k in range(N_DELTAS):
        d = f"D{k}"
        for name, text in DELTA_TEMPLATES.items():
            statements.append(
                {
                    "id": f"{name}:{d}",
                    "text": text.format(d=d),
                    "lang": "trial",
                    "nonce": True,
                    "rel": d,
                }
            )
        l = small[k % 2]
        ops += [
            {"commit": d, "key": f"commit:{d}"},
            _op(f"d_then_e:{d}"),
            _op("out", s=subjects[2 * k]),
            _op(f"d_scan:{d}", l=l),
            _op("out2", s=subjects[2 * k + 1]),
            _op(f"e_then_d:{d}", l=l),
            _op("label", l=l),
            _op(f"d_minus_e:{d}"),
            _op("out", s=subjects[2 * k + 1]),
        ]
    plan.update(
        transport="inproc",
        limit=100,
        statements=statements,
        ops=ops,
        env={"REPRO_STORAGE_WAL_LIMIT": str(DURABLE_WAL_LIMIT)},
        # The stated exception: a commit to Dk drops the plans that read
        # Dk, so the 4 delta reads of each cycle re-plan and the 4 reads
        # of E alone do not.  That is the program, not the harness.
        plan_hit_floor=0.5,
    )
