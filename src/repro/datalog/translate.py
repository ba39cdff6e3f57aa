"""Translations between TriAL(*) and the Datalog fragments.

``trial_to_datalog`` implements the constructions in the proofs of
Proposition 2 and Theorem 2: one fresh predicate per AST node, a
two-literal rule per join, two rules per Kleene star.  The resulting
programs are verified (in tests) to lie in the exact fragments and to
evaluate to the same relations.

``datalog_to_trial`` is the converse direction: nonrecursive
TripleDatalog¬ programs become TriAL expressions, ReachTripleDatalog¬
programs become TriAL* expressions.  Following the paper, predicates are
ternary here (arity < 3 has no canonical triple encoding; we reject it
with :class:`TranslationError`).

A negated literal becomes an anti-join, so no translated plan
contains ``U``.  ``Rule`` safety binds every variable of a negated
literal N in a positive relational literal or a ``x = 'c'`` equality,
and a rule has at most two relational literals, so N sits beside at most
one positive literal P.  When every variable of N occurs in P, θ pins
each position of N to a position of P or to a constant, and the rule
equals the one-literal rule over ``P′ = P − π₁,₂,₃(P ⋈_θ N)``: a P
triple survives exactly when no N triple agrees with it under θ.  A
variable of N bound only by an equality with a constant, or a rule
without a positive literal, has no such θ over P; those rules raise
:class:`TranslationError` and the program runs on the native evaluator.
"""

from __future__ import annotations

import itertools

from repro.errors import TranslationError
from repro.core.conditions import Cond
from repro.core.expressions import (
    Diff,
    Expr,
    Intersect,
    Join,
    Rel,
    Select,
    Star,
    Union,
    Universe,
)
from repro.core.positions import Const, Pos
from repro.datalog.ast import (
    Atom,
    DConst,
    DTerm,
    DVar,
    EqLit,
    Literal,
    Program,
    RelLit,
    Rule,
    SimLit,
)
from repro.datalog.validate import reach_rule_pair, recursive_predicates

_VARS6 = tuple(DVar(f"x{i}") for i in range(1, 7))


# --------------------------------------------------------------------- #
# TriAL(*)  ->  Datalog
# --------------------------------------------------------------------- #

class _ToDatalog:
    def __init__(self) -> None:
        self.rules: list[Rule] = []
        self.names = (f"P{i}" for i in itertools.count())
        self.memo: dict[Expr, str] = {}

    def fresh(self) -> str:
        return next(self.names)

    def translate(self, expr: Expr) -> str:
        cached = self.memo.get(expr)
        if cached is not None:
            return cached
        pred = self._dispatch(expr)
        self.memo[expr] = pred
        return pred

    def _head(self, pred: str) -> Atom:
        return Atom(pred, _VARS6[:3])

    def _cond_literals(
        self, conditions: tuple[Cond, ...], var_of: dict[int, DTerm]
    ) -> list[Literal]:
        out: list[Literal] = []
        for cond in conditions:
            def term(t) -> DTerm:
                if isinstance(t, Const):
                    return DConst(t.value)
                return var_of[t.index]
            left, right = term(cond.left), term(cond.right)
            if cond.on_data:
                out.append(SimLit(left, right, negated=not cond.is_equality))
            else:
                out.append(EqLit(left, right, negated=not cond.is_equality))
        return out

    def _dispatch(self, expr: Expr) -> str:
        pred = self.fresh()
        if isinstance(expr, Rel):
            self.rules.append(
                Rule(self._head(pred), (RelLit(Atom(expr.name, _VARS6[:3])),))
            )
            return pred
        if isinstance(expr, Universe):
            raise TranslationError(
                "U has no Datalog counterpart in the paper's vocabulary; "
                "rewrite it with universe_as_joins() first"
            )
        if isinstance(expr, Union):
            left = self.translate(expr.left)
            right = self.translate(expr.right)
            self.rules.append(
                Rule(self._head(pred), (RelLit(Atom(left, _VARS6[:3])),))
            )
            self.rules.append(
                Rule(self._head(pred), (RelLit(Atom(right, _VARS6[:3])),))
            )
            return pred
        if isinstance(expr, Diff):
            left = self.translate(expr.left)
            right = self.translate(expr.right)
            self.rules.append(
                Rule(
                    self._head(pred),
                    (
                        RelLit(Atom(left, _VARS6[:3])),
                        RelLit(Atom(right, _VARS6[:3]), negated=True),
                    ),
                )
            )
            return pred
        if isinstance(expr, Intersect):
            left = self.translate(expr.left)
            right = self.translate(expr.right)
            self.rules.append(
                Rule(
                    self._head(pred),
                    (
                        RelLit(Atom(left, _VARS6[:3])),
                        RelLit(Atom(right, _VARS6[:3])),
                    ),
                )
            )
            return pred
        if isinstance(expr, Select):
            inner = self.translate(expr.expr)
            var_of = {i: _VARS6[i] for i in range(3)}
            body: list[Literal] = [RelLit(Atom(inner, _VARS6[:3]))]
            body += self._cond_literals(expr.conditions, var_of)
            self.rules.append(Rule(self._head(pred), tuple(body)))
            return pred
        if isinstance(expr, Join):
            left = self.translate(expr.left)
            right = self.translate(expr.right)
            var_of = {i: _VARS6[i] for i in range(6)}
            head = Atom(pred, tuple(_VARS6[i] for i in expr.out))
            body = [
                RelLit(Atom(left, _VARS6[:3])),
                RelLit(Atom(right, _VARS6[3:6])),
            ] + self._cond_literals(expr.conditions, var_of)
            self.rules.append(Rule(head, tuple(body)))
            return pred
        if isinstance(expr, Star):
            inner = self.translate(expr.expr)
            var_of = {i: _VARS6[i] for i in range(6)}
            head = Atom(pred, tuple(_VARS6[i] for i in expr.out))
            # Base rule: S(x1,x2,x3) <- R(x1,x2,x3).
            self.rules.append(
                Rule(self._head(pred), (RelLit(Atom(inner, _VARS6[:3])),))
            )
            # Step rule: accumulator joins the base on the star's side.
            if expr.side == "right":
                first, second = pred, inner
            else:
                first, second = inner, pred
            body = [
                RelLit(Atom(first, _VARS6[:3])),
                RelLit(Atom(second, _VARS6[3:6])),
            ] + self._cond_literals(expr.conditions, var_of)
            self.rules.append(Rule(head, tuple(body)))
            return pred
        raise TranslationError(f"unknown expression node {type(expr).__name__}")


def trial_to_datalog(expr: Expr, answer: str = "Ans") -> Program:
    """Compile a TriAL(*) expression to a Datalog program (Prop 2 / Thm 2).

    The answer predicate is a final copy rule onto ``answer``.
    """
    compiler = _ToDatalog()
    result = compiler.translate(expr)
    compiler.rules.append(
        Rule(Atom(answer, _VARS6[:3]), (RelLit(Atom(result, _VARS6[:3])),))
    )
    return Program(tuple(compiler.rules), answer=answer)


# --------------------------------------------------------------------- #
# Datalog  ->  TriAL(*)
# --------------------------------------------------------------------- #

def _partition_literals(rule: Rule) -> tuple[list[RelLit], list[Literal]]:
    rels = [l for l in rule.body if isinstance(l, RelLit)]
    others = [l for l in rule.body if not isinstance(l, RelLit)]
    return rels, others


def _positions_of_vars(atoms: list[Atom]) -> dict[str, int]:
    """First occurrence of each variable among the ≤ 6 join positions."""
    var_pos: dict[str, int] = {}
    for base, atom in zip((0, 3), atoms):
        for offset, term in enumerate(atom.args):
            if isinstance(term, DVar) and term.name not in var_pos:
                var_pos[term.name] = base + offset
    return var_pos


def _local_conditions(atoms: list[Atom]) -> list[Cond]:
    """Equalities induced by repeated variables / constants inside atoms."""
    conds: list[Cond] = []
    seen: dict[str, int] = {}
    for base, atom in zip((0, 3), atoms):
        for offset, term in enumerate(atom.args):
            pos = base + offset
            if isinstance(term, DConst):
                conds.append(Cond(Pos(pos), Const(term.value)))
            else:
                if term.name in seen:
                    conds.append(Cond(Pos(seen[term.name]), Pos(pos)))
                else:
                    seen[term.name] = pos
    return conds


def _check_literal_conds(
    others: list[Literal], var_pos: dict[str, int]
) -> list[Cond]:
    conds: list[Cond] = []
    for lit in others:
        def term(t: DTerm):
            if isinstance(t, DConst):
                return Const(t.value)
            try:
                return Pos(var_pos[t.name])
            except KeyError:
                raise TranslationError(
                    f"variable {t.name} of {lit!r} unbound by relational atoms"
                ) from None
        op = "!=" if lit.negated else "="
        if isinstance(lit, SimLit):
            conds.append(Cond(term(lit.left), term(lit.right), op, on_data=True))
        elif isinstance(lit, EqLit):
            conds.append(Cond(term(lit.left), term(lit.right), op))
        else:  # pragma: no cover
            raise TranslationError(f"unexpected literal {lit!r}")
    return conds


def _head_out(rule: Rule, var_pos: dict[str, int]) -> tuple[int, int, int]:
    if rule.head.arity != 3:
        raise TranslationError(
            "datalog_to_trial supports ternary predicates only (the paper's "
            f"triple encoding); {rule.head.pred} has arity {rule.head.arity}"
        )
    out = []
    for term in rule.head.args:
        if isinstance(term, DConst):
            raise TranslationError("constants in rule heads are not supported")
        out.append(var_pos[term.name])
    return tuple(out)  # type: ignore[return-value]


def _join_spec(
    rule: Rule,
    atoms: list[Atom],
    others: list[Literal],
    conds: tuple[Cond, ...] = (),
) -> tuple[tuple[int, int, int], tuple[Cond, ...]]:
    """The output positions and conditions of ``rule`` read as a join of
    ``atoms``: repeated variables (shared ones across the two atoms
    included) and constants become equalities, beside ``conds`` and the
    rule's comparison literals."""
    var_pos = _positions_of_vars(atoms)
    conds += (*_local_conditions(atoms), *_check_literal_conds(others, var_pos))
    return _head_out(rule, var_pos), tuple(dict.fromkeys(conds))


def _rule_to_join(rule: Rule, operand: dict[str, Expr]) -> Expr:
    """One TripleDatalog¬ rule as a join expression.

    A negated literal N beside the positive literal P turns P into the
    anti-join ``P − π₁,₂,₃(P ⋈_θ N)`` (see the module docstring).
    """
    rels, others = _partition_literals(rule)
    if not 1 <= len(rels) <= 2:
        raise TranslationError(
            f"rule must have one or two relational literals: {rule!r}"
        )
    if any(lit.atom.arity != 3 for lit in rels):
        raise TranslationError(f"relational literals must be ternary: {rule!r}")
    positive = [lit for lit in rels if not lit.negated]
    negated = [lit for lit in rels if lit.negated]
    if not positive:
        raise TranslationError(
            f"rule has no positive relational literal to anti-join: {rule!r}"
        )

    if len(rels) == 1 or negated:
        # Duplicate the single atom so the rule becomes a self-join; the
        # full-equality condition pins both copies to the same triple.
        atom = positive[0].atom
        expr = operand[atom.pred]
        if negated:
            n_atom = negated[0].atom
            if any(pos >= 3 for pos in _positions_of_vars([atom, n_atom]).values()):
                raise TranslationError(
                    f"{negated[0]!r} has a variable not bound by {positive[0]!r}"
                )
            # θ: N's constants and variables pinned to P's positions (P's
            # own equalities ride along; the outer rule applies them too).
            theta = tuple(_local_conditions([atom, n_atom]))
            expr = Diff(expr, Join(expr, operand[n_atom.pred], (0, 1, 2), theta))
        atoms = [atom, atom]
        exprs = [expr, expr]
        conds = tuple(Cond(Pos(i), Pos(i + 3)) for i in range(3))
    else:
        atoms = [rels[0].atom, rels[1].atom]
        exprs = [operand[atoms[0].pred], operand[atoms[1].pred]]
        conds = ()

    out, conds = _join_spec(rule, atoms, others, conds)
    return Join(exprs[0], exprs[1], out, conds)


def _star_from_rules(
    pred: str,
    base_rule: Rule,
    step_rule: Rule,
    operand: dict[str, Expr],
) -> Expr:
    """The Theorem 2 construction: recursive S becomes ``(e_R ✶)*``.

    The rules have the shape :func:`~repro.datalog.validate.reach_rule_pair`
    accepts, so both name the same R and the step rule is positive.
    """
    base_expr = operand[base_rule.rel_literals()[0].atom.pred]
    rels, others = _partition_literals(step_rule)
    atoms = [rels[0].atom, rels[1].atom]
    side = "right" if atoms[0].pred == pred else "left"
    out, conds = _join_spec(step_rule, atoms, others)
    return Star(base_expr, out, conds, side)


def datalog_to_trial(program: Program) -> Expr:
    """Compile a (Reach)TripleDatalog¬ program back to TriAL(*).

    Nonrecursive predicates become unions of joins (Prop 2); recursive
    predicates must match the ReachTripleDatalog¬ two-rule shape and
    become Kleene stars (Thm 2).
    """
    recursive = recursive_predicates(program)
    operand: dict[str, Expr] = {
        pred: Rel(pred) for pred in program.edb_predicates()
    }

    # Evaluation order: dependencies first (reuse the stratifier).
    from repro.datalog.evaluator import stratify

    for component in stratify(program):
        if len(component) > 1:
            raise TranslationError(
                f"mutually recursive predicates {component} are outside "
                "ReachTripleDatalog¬"
            )
        pred = component[0]
        rules = program.rules_for(pred)
        if pred in recursive:
            pair = reach_rule_pair(program, pred, frozenset(operand))
            if pair is None:
                raise TranslationError(
                    f"recursive predicate {pred} does not match the "
                    "base-plus-step shape of ReachTripleDatalog¬"
                )
            operand[pred] = _star_from_rules(pred, *pair, operand)
        else:
            exprs = [_rule_to_join(rule, operand) for rule in rules]
            if not exprs:
                raise TranslationError(f"predicate {pred} has no rules")
            acc = exprs[0]
            for e in exprs[1:]:
                acc = Union(acc, e)
            operand[pred] = acc

    try:
        return operand[program.answer]
    except KeyError:
        raise TranslationError(
            f"answer predicate {program.answer!r} is not defined"
        ) from None
