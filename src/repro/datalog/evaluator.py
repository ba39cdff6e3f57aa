"""Stratified fixpoint evaluation of TripleDatalog¬ programs.

The evaluator is generic over the AST of :mod:`repro.datalog.ast`:

1. build the predicate dependency graph and its strongly connected
   components (Tarjan);
2. refuse programs with negation inside a cycle (not stratifiable —
   the paper's fragments never produce these);
3. evaluate SCCs in topological order; recursive components iterate
   their rules to a fixpoint (the least-fixpoint semantics of §4).

Rule bodies are evaluated by backtracking joins over the positive
relational literals, with equality/∼/negative literals applied as soon
as their variables are bound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import DatalogError, StratificationError
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
from repro.triplestore.model import Triplestore

if TYPE_CHECKING:  # typing only: the closure is imported where it is used
    from repro.analysis.semantics import EqualityClosure


# --------------------------------------------------------------------- #
# Dependency analysis
# --------------------------------------------------------------------- #

def dependency_edges(program: Program) -> set[tuple[str, str, bool]]:
    """Edges (head, body_pred, negated) between IDB predicates."""
    idb = program.idb_predicates()
    edges: set[tuple[str, str, bool]] = set()
    for rule in program.rules:
        for lit in rule.rel_literals():
            if lit.atom.pred in idb:
                edges.add((rule.head.pred, lit.atom.pred, lit.negated))
    return edges


def _tarjan_sccs(nodes: Iterable[str], succ: dict[str, set[str]]) -> list[list[str]]:
    """Strongly connected components in reverse topological order."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    def strongconnect(v: str) -> None:
        # Iterative Tarjan to dodge recursion limits on deep programs.
        work = [(v, iter(sorted(succ.get(v, ()))))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(succ.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == node:
                        break
                sccs.append(component)

    for v in sorted(nodes):
        if v not in index:
            strongconnect(v)
    return sccs


def stratify(program: Program) -> list[list[str]]:
    """SCCs of IDB predicates in evaluation (topological) order.

    Raises :class:`StratificationError` when a negated IDB literal
    occurs inside a cycle.
    """
    idb = program.idb_predicates()
    succ: dict[str, set[str]] = {p: set() for p in idb}
    for head, body, _ in dependency_edges(program):
        succ[head].add(body)
    sccs = _tarjan_sccs(idb, succ)  # reverse topological = dependencies first
    component_of = {p: i for i, comp in enumerate(sccs) for p in comp}
    for head, body, negated in dependency_edges(program):
        if negated and component_of[head] == component_of[body]:
            raise StratificationError(
                f"negation of {body} inside the recursive component of {head}"
            )
    return sccs


# --------------------------------------------------------------------- #
# Evaluation
# --------------------------------------------------------------------- #

class _CanonicalRule:
    """Rule-shaped value produced by equality canonicalisation.

    Skips :class:`Rule`'s constructor checks (substitution can place
    constants in the head, which plain rules disallow); exposes just the
    interface the matcher uses.
    """

    __slots__ = ("head", "body")

    def __init__(self, head: Atom, body: tuple) -> None:
        self.head = head
        self.body = body

    def rel_literals(self) -> tuple:
        return tuple(l for l in self.body if isinstance(l, RelLit))

    def __repr__(self) -> str:
        return f"{self.head!r} :- {', '.join(map(repr, self.body))}."


class DatalogEvaluator:
    """Evaluates programs over triplestores (EDB = store relations)."""

    def __init__(self, store: Triplestore) -> None:
        self.store = store
        self._canonical_cache: dict[Any, _CanonicalRule] = {}

    def run(self, program: Program) -> dict[str, frozenset[tuple]]:
        """All IDB relations as a dict ``pred -> set of tuples``."""
        relations: dict[str, set[tuple]] = {
            p: set() for p in program.idb_predicates()
        }
        for pred in program.edb_predicates():
            # Fail fast on unknown EDB names (raises UnknownRelationError).
            self.store.relation(pred)
        for component in stratify(program):
            rules = [
                r for r in program.rules if r.head.pred in component
            ]
            self._fixpoint(rules, relations)
        return {p: frozenset(ts) for p, ts in relations.items()}

    def answer(self, program: Program) -> frozenset[tuple]:
        """The relation of the program's answer predicate."""
        results = self.run(program)
        try:
            return results[program.answer]
        except KeyError:
            raise DatalogError(
                f"program defines no answer predicate {program.answer!r}"
            ) from None

    # ------------------------------------------------------------------ #

    def _fixpoint(self, rules: list[Rule], relations: dict[str, set[tuple]]) -> None:
        """Semi-naive fixpoint for one SCC (Corollary 1's cost regime).

        Round 0 applies every rule as-is.  Later rounds only apply
        *delta variants*: for each rule and each positive body literal
        whose predicate belongs to this SCC, re-evaluate with that one
        literal restricted to the previous round's new tuples.  This is
        the standard optimisation that keeps recursive Datalog on the
        same asymptotics as the algebra's fixpoints.
        """
        rules = [self._canonicalise(rule) for rule in rules]
        component = {rule.head.pred for rule in rules}
        deltas: dict[str, set[tuple]] = {p: set() for p in component}
        for rule in rules:
            for derived in self._apply_rule(rule, relations):
                head_rel = relations[rule.head.pred]
                if derived not in head_rel:
                    head_rel.add(derived)
                    deltas[rule.head.pred].add(derived)

        while any(deltas.values()):
            next_deltas: dict[str, set[tuple]] = {p: set() for p in component}
            for rule in rules:
                recursive_positions = [
                    i
                    for i, lit in enumerate(rule.body)
                    if isinstance(lit, RelLit)
                    and not lit.negated
                    and lit.atom.pred in component
                ]
                for pos in recursive_positions:
                    pred = rule.body[pos].atom.pred
                    if not deltas[pred]:
                        continue
                    for derived in self._apply_rule(
                        rule, relations, delta=(pos, deltas[pred])
                    ):
                        head_rel = relations[rule.head.pred]
                        if derived not in head_rel:
                            head_rel.add(derived)
                            next_deltas[rule.head.pred].add(derived)
            deltas = next_deltas

    def _relation_tuples(
        self, pred: str, relations: dict[str, set[tuple]]
    ) -> Iterable[tuple]:
        if pred in relations:
            return relations[pred]
        return self.store.relation(pred)

    def _apply_rule(
        self,
        rule: Rule,
        relations: dict[str, set[tuple]],
        delta: tuple[int, set[tuple]] | None = None,
    ) -> Iterable[tuple]:
        """Derive head tuples; ``delta`` optionally pins one body literal
        (by its index in ``rule.body``) to an explicit tuple set."""
        rule = self._canonicalise(rule)
        positives = []
        delta_index = None
        for i, lit in enumerate(rule.body):
            if isinstance(lit, RelLit) and not lit.negated:
                if delta is not None and i == delta[0]:
                    delta_index = len(positives)
                positives.append(lit)
        checks = [l for l in rule.body if not (isinstance(l, RelLit) and not l.negated)]
        delta_rows = delta[1] if delta is not None else None

        # Join-order heuristic: the (small) delta literal leads, then
        # greedily prefer literals sharing variables with what is bound.
        order = list(range(len(positives)))
        if delta_index is not None:
            order.remove(delta_index)
            order.insert(0, delta_index)
        if len(order) > 1:
            bound: set[str] = set(positives[order[0]].variables())
            rest = order[1:]
            reordered = [order[0]]
            while rest:
                best = max(
                    range(len(rest)),
                    key=lambda j: len(positives[rest[j]].variables() & bound),
                )
                chosen = rest.pop(best)
                reordered.append(chosen)
                bound |= positives[chosen].variables()
            order = reordered
        positives = [positives[i] for i in order]
        if delta_index is not None:
            delta_index = 0

        def check_ready(asg: dict[str, Any], pending: list) -> tuple[bool, list]:
            """Apply every check whose variables are bound; return leftovers."""
            still = []
            for lit in pending:
                if lit.variables() <= asg.keys():
                    if not self._check(lit, asg, relations):
                        return False, still
                else:
                    still.append(lit)
            return True, still

        # With the join order fixed, the variables bound before literal i
        # are known statically; index each literal's relation on the arg
        # positions those variables (and constants) pin down, so matching
        # is a hash probe instead of a relation scan.
        bound_before: list[frozenset[str]] = []
        bound: set[str] = set()
        for lit in positives:
            bound_before.append(frozenset(bound))
            bound |= lit.variables()

        indexes: list[tuple[tuple[int, ...], dict]] = []
        for i, lit in enumerate(positives):
            if delta_rows is not None and i == delta_index:
                rows: Iterable[tuple] = delta_rows
            else:
                rows = self._relation_tuples(lit.atom.pred, relations)
            key_positions = tuple(
                pos
                for pos, term in enumerate(lit.atom.args)
                if isinstance(term, DConst)
                or (isinstance(term, DVar) and term.name in bound_before[i])
            )
            index: dict = {}
            for row in rows:
                if len(row) != lit.atom.arity:
                    continue
                index.setdefault(tuple(row[p] for p in key_positions), []).append(row)
            indexes.append((key_positions, index))

        results: list[tuple] = []

        def extend(i: int, asg: dict[str, Any], pending: list) -> None:
            if i == len(positives):
                if pending:
                    raise DatalogError(
                        f"literals {pending} have unbound variables in {rule!r}"
                    )
                results.append(
                    tuple(
                        asg[a.name] if isinstance(a, DVar) else a.value
                        for a in rule.head.args
                    )
                )
                return
            lit = positives[i]
            key_positions, index = indexes[i]
            key = tuple(
                lit.atom.args[p].value
                if isinstance(lit.atom.args[p], DConst)
                else asg[lit.atom.args[p].name]
                for p in key_positions
            )
            for row in index.get(key, ()):
                new = self._unify(lit.atom, row, asg)
                if new is None:
                    continue
                ok, still = check_ready(new, pending)
                if ok:
                    extend(i + 1, new, still)

        ok, pending = check_ready({}, checks)
        if ok:
            extend(0, {}, pending)
        return results

    def _canonicalise(self, rule: Rule) -> Rule:
        """Turn positive ``x = y`` / ``x = c`` literals into substitutions.

        The Prop 2 translation emits joins as distinct variables plus
        equality literals; folding those equalities into the atoms lets
        the matcher unify (and index) instead of generate-and-filter.
        The groups and their constants are the classes of the body's
        :func:`comparison_closure`.  Results are cached per rule — rules
        are immutable.
        """
        if isinstance(rule, _CanonicalRule):
            return rule
        cached = self._canonical_cache.get(rule)
        if cached is not None:
            return cached

        closure = comparison_closure(rule)
        folded = [
            lit
            for lit in rule.body
            if isinstance(lit, EqLit) and not lit.negated and lit.variables()
        ]
        kept: list = [lit for lit in rule.body if lit not in folded]
        if closure.is_unsat():
            # The comparisons contradict each other (two constants
            # pinned to one class, say): the rule derives nothing.
            kept.append(EqLit(DConst(0), DConst(1)))
        # Variables mentioned by any η-similarity literal: a SimLit
        # compares ρ(object) for variables but takes constants as raw
        # *data* values, so folding an object-constant pin into one
        # would silently change its meaning (ρ('b') vs the value 'b').
        # Those groups keep their variable and re-emit the pin as an
        # ordinary equality filter instead.
        sim_vars = {
            t.name
            for lit in rule.body
            if isinstance(lit, SimLit)
            for t in (lit.left, lit.right)
            if isinstance(t, DVar)
        }
        rep: dict[str, DTerm] = {}
        for name in sorted(set().union(*(lit.variables() for lit in folded))):
            if name in rep:
                continue
            var = DVar(name)
            members = {m.name for m in closure.members(var) if isinstance(m, DVar)}
            representative = DVar(min(members))
            pin = closure.pinned(var)
            if pin is not None and members & sim_vars:
                kept.append(EqLit(representative, DConst(pin[0])))
                pin = None
            for member in members:
                rep[member] = representative if pin is None else DConst(pin[0])

        def sub_term(t: DTerm) -> DTerm:
            if isinstance(t, DVar):
                return rep.get(t.name, t)
            return t

        def sub_atom(atom: Atom) -> Atom:
            return Atom(atom.pred, tuple(sub_term(a) for a in atom.args))

        new_body = []
        for lit in kept:
            if isinstance(lit, RelLit):
                new_body.append(RelLit(sub_atom(lit.atom), lit.negated))
            elif isinstance(lit, SimLit):
                new_body.append(SimLit(sub_term(lit.left), sub_term(lit.right), lit.negated))
            else:
                new_body.append(EqLit(sub_term(lit.left), sub_term(lit.right), lit.negated))
        # Head constants are not supported by Rule safety for DConst args,
        # so substitute only variables that stay variables... but pinned
        # head variables become constants in the derived tuples, which
        # the result construction handles (DConst branch).
        new_head_args = tuple(sub_term(a) for a in rule.head.args)
        canonical = _CanonicalRule(Atom(rule.head.pred, new_head_args), tuple(new_body))
        self._canonical_cache[rule] = canonical
        return canonical

    @staticmethod
    def _unify(atom: Atom, row: tuple, asg: dict[str, Any]) -> dict[str, Any] | None:
        if len(row) != atom.arity:
            return None
        new = dict(asg)
        for term, value in zip(atom.args, row):
            if isinstance(term, DConst):
                if term.value != value:
                    return None
            else:
                bound = new.get(term.name, _MISSING)
                if bound is _MISSING:
                    new[term.name] = value
                elif bound != value:
                    return None
        return new

    def _check(
        self, lit, asg: dict[str, Any], relations: dict[str, set[tuple]]
    ) -> bool:
        def val(term):
            return term.value if isinstance(term, DConst) else asg[term.name]

        if isinstance(lit, EqLit):
            equal = val(lit.left) == val(lit.right)
            return not equal if lit.negated else equal
        if isinstance(lit, SimLit):
            # A variable contributes ρ(object); a constant IS the data
            # value (matching the η-condition semantics of the algebra,
            # where data constants come from D, not O).
            def data(term):
                if isinstance(term, DConst):
                    return term.value
                return self.store.rho(asg[term.name])

            same = data(lit.left) == data(lit.right)
            return not same if lit.negated else same
        if isinstance(lit, RelLit):  # negated by construction here
            row = tuple(val(a) for a in lit.atom.args)
            return row not in self._relation_tuples(lit.atom.pred, relations)
        raise DatalogError(f"unknown literal {lit!r}")  # pragma: no cover


_MISSING = object()


def comparison_closure(rule: Rule) -> "EqualityClosure":
    """The equality closure of ``rule``'s comparison literals.

    Each literal reads as a TriAL condition: ``=``/``!=`` as θ, ``∼`` as
    η, a variable as an object term and a constant as a constant — of a
    ``∼`` literal, a data value.
    """
    from repro.analysis.semantics import EqualityClosure
    from repro.core.conditions import Cond
    from repro.core.positions import Const

    def term(t: DTerm):
        return Const(t.value) if isinstance(t, DConst) else t

    return EqualityClosure(
        Cond(
            term(lit.left),
            term(lit.right),
            "!=" if lit.negated else "=",
            isinstance(lit, SimLit),
        )
        for lit in rule.body
        if not isinstance(lit, RelLit)
    )


def run_program(program: Program, store: Triplestore) -> frozenset[tuple]:
    """Convenience: evaluate and return the answer relation."""
    return DatalogEvaluator(store).answer(program)
