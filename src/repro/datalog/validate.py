"""Membership checks for the paper's exact Datalog fragments.

*TripleDatalog¬* (Section 4, rule shape (1)): every rule has at most two
relational body literals (arity ≤ 3), plus ∼-literals and (in)equality
literals, all possibly negated; head variables come from the body.  A
program must additionally be *nonrecursive* for Proposition 2.

*ReachTripleDatalog¬* (Theorem 2): TripleDatalog¬ where each recursive
predicate S is the head of exactly two rules::

    S(x̄) ← R(x̄)
    S(x̄) ← S(x̄1), R(x̄2), V(y1,z1), …, V(yk,zk)

with R nonrecursive and each V an (in)equality or (¬)∼ literal.

Note on "R is a nonrecursive predicate": read literally this would make
nested Kleene stars untranslatable, contradicting Theorem 2 (query Q
itself nests two stars).  We therefore read it as "R is defined in a
strictly earlier stratum than S" — R may itself be recursive, as long
as it does not depend on S.  This is exactly what the Theorem 2 proof
produces when translating nested stars.
"""

from __future__ import annotations

from repro.errors import DatalogError
from repro.datalog.ast import (
    Atom,
    DConst,
    DTerm,
    DVar,
    EqLit,
    Program,
    RelLit,
    Rule,
    SimLit,
)
from repro.datalog.evaluator import dependency_edges, stratify


def is_triple_datalog_rule(rule: Rule) -> bool:
    """Does the rule match shape (1) (≤ 2 relational literals, arity ≤ 3)?"""
    rels = rule.rel_literals()
    if len(rels) > 2:
        return False
    if any(lit.atom.arity > 3 for lit in rels) or rule.head.arity > 3:
        return False
    body_vars = frozenset().union(
        *(lit.variables() for lit in rels), frozenset()
    )
    for lit in rule.body:
        if not isinstance(lit, RelLit) and not lit.variables() <= body_vars:
            return False
    return rule.head.variables() <= body_vars


def is_nonrecursive(program: Program) -> bool:
    """No IDB predicate depends on itself (directly or transitively)."""
    try:
        sccs = stratify(program)
    except DatalogError:
        return False  # negation through recursion is in particular recursion
    edges = dependency_edges(program)
    self_loop = {h for h, b, _ in edges if h == b}
    if self_loop:
        return False
    return all(len(component) == 1 for component in sccs)


def is_triple_datalog(program: Program) -> bool:
    """Nonrecursive TripleDatalog¬ (the Proposition 2 class)."""
    return all(is_triple_datalog_rule(r) for r in program) and is_nonrecursive(program)


def recursive_predicates(program: Program) -> frozenset[str]:
    """IDB predicates participating in a dependency cycle."""
    sccs = stratify(program)
    edges = dependency_edges(program)
    self_loop = {h for h, b, _ in edges if h == b}
    cyclic = set(self_loop)
    for component in sccs:
        if len(component) > 1:
            cyclic.update(component)
    return frozenset(cyclic)


def _is_reach_step_rule(rule: Rule, pred: str, base_pred: str) -> bool:
    """``S(x̄) ← S(x̄1), R(x̄2), V…`` with the base rule's R."""
    rels = rule.rel_literals()
    if len(rels) != 2 or any(l.negated for l in rels):
        return False
    if sorted(l.atom.pred for l in rels) != sorted((pred, base_pred)):
        return False
    return all(
        isinstance(l, (EqLit, SimLit)) for l in rule.body if not isinstance(l, RelLit)
    )


def _is_reach_base_rule(rule: Rule, earlier: frozenset[str]) -> bool:
    """``S(x̄) ← R(x̄)`` — one positive earlier-stratum literal, the same
    distinct variables."""
    rels = rule.rel_literals()
    if len(rels) != 1 or rels[0].negated:
        return False
    if rels[0].atom.pred not in earlier:
        return False
    if any(not isinstance(l, RelLit) for l in rule.body):
        return False
    head_args = rule.head.args
    return (
        all(isinstance(a, DVar) for a in head_args)
        and len(set(head_args)) == len(head_args)
        and head_args == rels[0].atom.args
    )


def reach_rule_pair(
    program: Program, pred: str, earlier: frozenset[str]
) -> tuple[Rule, Rule] | None:
    """The (base, step) rules of recursive ``pred`` in the Theorem 2
    shape, with R from ``earlier`` and the same R in both — else ``None``."""
    rules = program.rules_for(pred)
    base = [r for r in rules if _is_reach_base_rule(r, earlier)]
    if len(rules) != 2 or len(base) != 1:
        return None
    step = [r for r in rules if r is not base[0]]
    base_pred = base[0].rel_literals()[0].atom.pred
    if not _is_reach_step_rule(step[0], pred, base_pred):
        return None
    return base[0], step[0]


def is_reach_triple_datalog(program: Program) -> bool:
    """Membership in ReachTripleDatalog¬ (the Theorem 2 class)."""
    if not all(is_triple_datalog_rule(r) for r in program):
        return False
    try:
        recursive = recursive_predicates(program)
        strata = stratify(program)
    except DatalogError:
        return False
    if any(len(component) > 1 for component in strata):
        return False  # mutual recursion is outside the fragment
    earlier: set[str] = set(program.edb_predicates())
    for component in strata:
        pred = component[0]
        if pred in recursive:
            if reach_rule_pair(program, pred, frozenset(earlier)) is None:
                return False
        earlier.add(pred)
    return True


# --------------------------------------------------------------------- #
# Semantic analysis: per-rule satisfiability and dead rules
# --------------------------------------------------------------------- #


class _RuleSolver:
    """Union-find over one rule body's comparison literals.

    Mirrors the TriAL condition solver
    (:mod:`repro.analysis.semantics`) on Datalog terms: object
    (in)equality literals live in the θ space, ``∼`` literals in the η
    space, and θ-equality propagates into η (ρ is a function, so
    object-equal terms have equal data values).  Variables are opaque
    fixed values; only distinct constants are known-distinct, and *no*
    two η nodes are known-distinct a priori (ρ may collide).
    """

    def __init__(self, rule: Rule) -> None:
        self._parent: dict[tuple, tuple] = {}
        self._disequalities: list[tuple[tuple, tuple]] = []
        self.static_false = False
        terms: list[DTerm] = []
        for lit in rule.body:
            if isinstance(lit, RelLit):
                continue
            terms += [lit.left, lit.right]
            space = "data" if isinstance(lit, SimLit) else "obj"
            left, right = self._node(lit.left, space), self._node(lit.right, space)
            if (
                isinstance(lit, EqLit)
                and isinstance(lit.left, DConst)
                and isinstance(lit.right, DConst)
            ):
                # Statically decided; a false one kills the whole body.
                if (lit.left.value == lit.right.value) == lit.negated:
                    self.static_false = True
                continue
            if lit.negated:
                self._disequalities.append((left, right))
            else:
                self._union(left, right)
        # θ → η congruence over every term the body mentions.
        uniq = list(dict.fromkeys(terms))
        for i, a in enumerate(uniq):
            for b in uniq[i + 1:]:
                if self._find(self._node(a, "obj")) == self._find(
                    self._node(b, "obj")
                ):
                    self._union(self._node(a, "data"), self._node(b, "data"))

    @staticmethod
    def _node(term: DTerm, space: str) -> tuple:
        kind = "var" if isinstance(term, DVar) else "const"
        key = term.name if isinstance(term, DVar) else term.value
        return (space, kind, key)

    def _find(self, node: tuple) -> tuple:
        parent = self._parent.setdefault(node, node)
        if parent == node:
            return node
        root = self._find(parent)
        self._parent[node] = root
        return root

    def _union(self, a: tuple, b: tuple) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self._parent[ra] = rb

    def is_unsat(self) -> bool:
        if self.static_false:
            return True
        # Two distinct object constants forced into one θ class.
        by_root: dict[tuple, set] = {}
        for node in list(self._parent):
            space, kind, key = node
            if space == "obj" and kind == "const":
                by_root.setdefault(self._find(node), set()).add(key)
        if any(len(consts) > 1 for consts in by_root.values()):
            return True
        return any(
            self._find(a) == self._find(b) for a, b in self._disequalities
        )


def rule_body_unsat(rule: Rule) -> bool:
    """Is the rule's comparison-literal conjunction unsatisfiable?"""
    return _RuleSolver(rule).is_unsat()


def _reachable_predicates(program: Program) -> frozenset[str]:
    """Predicates the answer predicate transitively depends on."""
    bodies: dict[str, set[str]] = {}
    for rule in program.rules:
        deps = bodies.setdefault(rule.head.pred, set())
        deps.update(lit.atom.pred for lit in rule.rel_literals())
    reachable: set[str] = set()
    stack = [program.answer]
    while stack:
        pred = stack.pop()
        if pred in reachable:
            continue
        reachable.add(pred)
        stack.extend(bodies.get(pred, ()))
    return frozenset(reachable)


def analyze_program(program: Program) -> list:
    """Semantic findings for a Datalog program (``SEM-*`` rule IDs).

    ``SEM-UNSAT`` — a rule body's (in)equality/∼ literals contradict
    each other, so the rule can never fire; ``SEM-DEAD-RULE`` — a
    rule's head predicate is unreachable from the program's answer
    predicate, so the rule cannot contribute to the result.  Advisory:
    the program still evaluates (the verdicts describe work, not
    errors).
    """
    from repro.analysis.invariants import Finding

    findings: list = []
    reachable = _reachable_predicates(program)
    for rule in program.rules:
        if rule_body_unsat(rule):
            findings.append(
                Finding(
                    "SEM-UNSAT",
                    "rule body's comparison literals are unsatisfiable; "
                    "the rule never fires",
                    op=repr(rule),
                )
            )
        if rule.head.pred not in reachable:
            findings.append(
                Finding(
                    "SEM-DEAD-RULE",
                    f"head predicate {rule.head.pred!r} is unreachable "
                    f"from answer predicate {program.answer!r}",
                    op=repr(rule),
                )
            )
    return findings


def validate_fragment(program: Program, fragment: str) -> None:
    """Raise :class:`DatalogError` unless the program is in the fragment.

    ``fragment`` is ``"TripleDatalog"`` or ``"ReachTripleDatalog"``.
    """
    if fragment == "TripleDatalog":
        if not is_triple_datalog(program):
            raise DatalogError("program is not nonrecursive TripleDatalog¬")
    elif fragment == "ReachTripleDatalog":
        if not is_reach_triple_datalog(program):
            raise DatalogError("program is not ReachTripleDatalog¬")
    else:
        raise DatalogError(f"unknown fragment {fragment!r}")
