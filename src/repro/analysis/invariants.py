"""The invariant catalog: stable IDs for everything static analysis checks.

Each entry pairs an ID with a one-line statement of the invariant.  IDs
are the contract: tests assert on them, ``repro lint`` and ``repro
explain`` print them, and ARCHITECTURE.md documents them —
renaming one is a breaking change to all three.

Plan invariants (``PLAN-*``) are checked by
:func:`repro.analysis.verify.verify_plan` against compiled physical
plans, except PLAN-SHARD, which the sharded executor checks against
the shards it holds.  Lint rules are checked by
:mod:`repro.analysis.lint` against the repository source itself.
Semantic rules (``SEM-*``) are checked by
:mod:`repro.analysis.semantics` against TriAL expressions (and, for
``SEM-UNSAT``/``SEM-DEAD-RULE``, Datalog programs).

All three families report through one frozen :class:`Finding` record
and share one ID namespace (:data:`RULES`), which ``repro lint``'s
``--select``/``--ignore`` filters validate against.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "INVARIANTS",
    "LINT_RULES",
    "SEM_RULES",
    "STORE_RULES",
    "RULES",
    "Finding",
    "Violation",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation, from any analysis family.

    ``rule`` is an ID from :data:`RULES`.  The location fields are
    family-specific: lint findings carry a source ``path``/``line``,
    plan and semantic findings carry ``op`` — the offending operator's
    one-line label (matching ``plan.pretty()`` output for plans, the
    expression's paper-style repr for semantic findings) so a reader
    can locate the node in an explain dump.
    """

    rule: str
    message: str
    path: str = ""
    line: int = 0
    op: str = ""

    @property
    def invariant(self) -> str:
        """Alias for :attr:`rule` (the pre-unification field name)."""
        return self.rule

    def to_dict(self) -> dict[str, object]:
        """Wire form (explain reports, service warnings): only the
        location fields the finding actually carries."""
        out: dict[str, object] = {"rule": self.rule, "message": self.message}
        if self.path:
            out["path"] = self.path
            out["line"] = self.line
        if self.op:
            out["op"] = self.op
        return out

    def __str__(self) -> str:
        if self.path:
            return f"{self.path}:{self.line}: {self.rule} {self.message}"
        if self.op:
            return f"{self.rule} {self.message} (at {self.op})"
        return f"{self.rule} {self.message}"


#: Pre-unification name for plan-verifier findings; same record type.
Violation = Finding


#: Plan-verifier invariants, in the order the verifier reports them.
INVARIANTS: dict[str, str] = {
    "PLAN-ARITY": (
        "operator shapes are well-typed: output specs are three positions "
        "in 0..5, selection/filter conditions stay within a single "
        "operand (positions 0..2), and every join spec's "
        "local/cross/const condition split matches a recomputation from "
        "its condition list (cross conditions normalised left-first)"
    ),
    "PLAN-KEY": (
        "composite join keys and index access paths are consistent: "
        "index-lookup key positions are strictly increasing within 0..2 "
        "with one key value per position, and a join's store-index reuse "
        "names exactly the build-side scan's θ key positions with no "
        "build-side local filters"
    ),
    "PLAN-PARAM": (
        "parameter binding is complete: every $name Param the plan "
        "carries (condition terms, index-lookup keys) is declared by the "
        "source expression or the provided binding set, so bind_plan can "
        "always resolve it"
    ),
    "PLAN-SHARD": (
        "shard partitions are what they claim: "
        "the sharded executor re-hashes the actual rows of every operand "
        "a set operation or fixpoint consumes as partitioned, and raises "
        "when a shard holds rows hashed to another — a dropped exchange "
        "or stale partition claim never merges shards that are not "
        "co-partitioned (checked at run time, not on the static plan)"
    ),
    "PLAN-CACHE": (
        "cache dependencies are sound: the plan reads only relations in "
        "the source expression's dependency set (and touches U only if "
        "the expression does), so the LRU's per-relation version token "
        "invalidates every entry the plan could observe"
    ),
    "PLAN-COST": (
        "cost annotations are sane: row/cost estimates are finite and "
        "non-negative, and a node's cumulative cost is at least each "
        "child's (monotone, so the root prices the whole plan)"
    ),
}


#: Repo-linter rules (see :mod:`repro.analysis.lint` for the checkers).
LINT_RULES: dict[str, str] = {
    "BARE-EXCEPT": (
        "no bare 'except:' handlers — name the exception types so "
        "KeyboardInterrupt/SystemExit and genuine bugs propagate"
    ),
    "LRU-LOCK": (
        "the _LRU cache's _data dict and its running _weight total in "
        "db.py are touched only under 'with self._lock' (construction "
        "aside), and never from outside the class"
    ),
    "ERR-RAISE": (
        "only repro.errors types are raised across the api.py / "
        "repro.service boundary (re-raises of caught exceptions are "
        "fine), so every failure crosses the wire as a typed, "
        "status-mapped error"
    ),
    "ERR-MAP": (
        "every concrete (leaf) repro.errors exception class appears "
        "explicitly in service/protocol.py's _STATUS_MAP — no leaf may "
        "rely on the family fallthrough, so adding an error type forces "
        "a deliberate wire-status decision"
    ),
    "ERR-ORDER": (
        "_STATUS_MAP entries are ordered subclass-before-superclass; an "
        "entry preceded by one of its base classes is unreachable"
    ),
    "ENV-DOC": (
        "every REPRO_* environment variable read under src/ appears in "
        "a README environment-variable table row, and every such row "
        "names a variable something under src/ reads — configuration "
        "knobs must not drift out of the documentation, nor rows outlive "
        "their knobs"
    ),
    "STOR-ATOMIC": (
        "durable writes under src/repro/storage/ follow the "
        "crash-atomicity discipline: any function that opens a file for "
        "(over)writing must fsync it and rename it into place, and any "
        "os.replace/os.rename must be preceded in the same function by a "
        "flush+fsync (directly or via the repro.storage.fsutil helpers); "
        "append/truncate handles ('ab', 'r+b') are the WAL's and exempt"
    ),
    "STOR-NOPICKLE": (
        "no module under src/repro/storage/ or src/repro/service/ imports "
        "pickle (plain, aliased or from-imported, or _pickle): segments, "
        "WAL records and the catalog are "
        "typed data, and a store directory or a client must never be able "
        "to run code by what it hands over"
    ),
    "IMPORT-LAYER": (
        "importing a module loads only what it runs: at module level, "
        "repro/errors.py, service/ws.py, service/client.py and every lazy "
        "package __init__.py import only the stdlib and one another, and "
        "cli.py only repro.errors and repro.core.engines (the engine and "
        "backend names); the client then runs on the stdlib alone, and "
        "each subcommand imports what it uses"
    ),
}


#: Durable-store integrity rules (see :mod:`repro.storage.fsck`).
STORE_RULES: dict[str, str] = {
    "STOR-MANIFEST": (
        "the store MANIFEST exists, parses, is manifest format 7 (a format-6 "
        "store upgrades by `repro upgrade`), and its "
        "counts, relation versions, segment map and generation directory "
        "have their shape"
    ),
    "STOR-SEGMENT": (
        "every segment the manifest references exists, passes its header, "
        "payload and manifest CRC32 checks and decodes: the dictionary, "
        "and every array to the manifest's count at the dictionary's radix — "
        "relation keys strictly "
        "increasing in [0, n³), ρ codes in [0, |data values|)"
    ),
    "STOR-WAL": (
        "the commit pointer is a JSON object whose offset and seq are "
        "non-negative integers, every WAL record it covers verifies, and every "
        "record past the manifest's watermark decodes and applies to the "
        "dictionary it extends; bytes past the pointer (a torn tail) are "
        "recoverable by design and not a finding"
    ),
    "STOR-CATALOG": (
        "the warm-reopen catalog (catalog/catalog.json), when present, "
        "is a JSON object of per-relation statistics and a list of plan "
        "texts — open() ignores a damaged one, fsck reports it"
    ),
}


#: Semantic-analyzer rules (see :mod:`repro.analysis.semantics`).
SEM_RULES: dict[str, str] = {
    "SEM-UNSAT": (
        "a selection/join condition list is unsatisfiable: the "
        "union-find closure of its equalities forces two distinct "
        "constants together or contradicts one of its inequalities, so "
        "the operator provably produces no triples"
    ),
    "SEM-EMPTY": (
        "a subexpression is provably empty on every store: emptiness "
        "propagates bottom-up (unsatisfiable conditions, Diff(e, e), "
        "empty join/intersect operands, star of an empty base)"
    ),
    "SEM-TRIVIAL-STAR": (
        "a Kleene star never iterates: its step conditions are "
        "unsatisfiable (star(e) ≡ e) or its operand is the same star "
        "(closures are idempotent), so the fixpoint is the base"
    ),
    "SEM-REDUNDANT": (
        "a condition list is not a minimal core: some condition is "
        "implied by the union-find closure of the others (duplicate, "
        "constant-true, or entailed equality/inequality) and can be "
        "dropped without changing the result"
    ),
    "SEM-UNKNOWN-REL": (
        "the expression references a relation the supplied store does "
        "not define; the reference evaluates empty and is usually a "
        "typo (informational — schemas may legitimately grow later)"
    ),
    "SEM-DEAD-RULE": (
        "a Datalog rule can never contribute to the query answer: its "
        "body is unsatisfiable or its head predicate is unreachable "
        "from the answer predicate in the dependency graph"
    ),
}


#: Every analysis rule, one namespace — the ``--select``/``--ignore``
#: vocabulary of ``repro lint``.
RULES: dict[str, str] = {**INVARIANTS, **LINT_RULES, **SEM_RULES, **STORE_RULES}
