"""TriAL → FO⁶ and TriAL* → TrCl⁶ (Theorem 4 part 1, Theorem 6 part 1).

The translation produces a formula over the vocabulary ⟨E₁,…,Eₙ, ∼⟩
whose free variables are ``v1, v2, v3`` (standing for the output triple)
and which reuses variables from the fixed six-name pool
``v1 … v6`` — witnessing the FO⁶ upper bound.  Tests check both the
semantic agreement (``answers(ϕ) == evaluate(e)``) and the variable
count (``ϕ.num_variables() <= 6``).

Kleene stars are translated into :class:`~repro.logic.trcl.Trcl` nodes
following the proof of Theorem 6: for ``e' = (e ✶^{i,j,k}_{θ,η})*`` we
emit::

    ψ_e(v1,v2,v3) ∨ ∃x̄ (ψ_e(x̄) ∧ [trcl_{x̄,ȳ} step(x̄,ȳ)](x̄, (v1,v2,v3)))

where ``step(x̄,ȳ)`` says: some triple t with ψ_e(t) joins with x̄ to
produce ȳ.  (The trcl operator closes over six variables, hence TrCl⁶.)
Note the trcl construct needs six *extra* names for x̄/ȳ; the paper
counts variables with reuse of the argument tuples, a subtlety of the
logic's syntax our AST does not replicate, so for starred expressions
``tests/test_fo_translations.py::TestStarToTrCl`` asserts ≤ 12 names.
"""

from __future__ import annotations

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
from repro.logic.fo import (
    And,
    ConstT,
    Eq,
    Exists,
    Formula,
    Not,
    Or,
    RelAtom,
    Sim,
    Var,
    and_all,
    exists,
    or_all,
    rename,
)
from repro.logic.trcl import Trcl

#: The six-variable pool of Theorem 4.
POOL = ("v1", "v2", "v3", "v4", "v5", "v6")
OUT_VARS = POOL[:3]


def _adom(var: str, rel_names: tuple[str, ...], helpers: tuple[str, str]) -> Formula:
    """``var`` occurs in some position of some relation (active domain)."""
    a, b = helpers
    disjuncts: list[Formula] = []
    for name in rel_names:
        disjuncts.append(RelAtom(name, (Var(var), Var(a), Var(b))))
        disjuncts.append(RelAtom(name, (Var(a), Var(var), Var(b))))
        disjuncts.append(RelAtom(name, (Var(a), Var(b), Var(var))))
    return exists(a, b, or_all(disjuncts))


def _condition_formula(cond: Cond, slot: dict[int, str]) -> Formula:
    def term(t):
        if isinstance(t, Const):
            return ConstT(t.value)
        return Var(slot[t.index])

    if cond.on_data:
        if isinstance(cond.left, Const) or isinstance(cond.right, Const):
            raise TranslationError(
                "η-conditions against data constants have no counterpart in "
                "the one-sorted ⟨E, ∼⟩ vocabulary (see the paper's remark at "
                "the end of the Lemma 5 proof)"
            )
        atom: Formula = Sim(term(cond.left), term(cond.right))
    else:
        atom = Eq(term(cond.left), term(cond.right))
    return atom if cond.is_equality else Not(atom)


def trial_to_fo(
    expr: Expr,
    rel_names: tuple[str, ...] | None = None,
    fold_equalities: bool = False,
) -> Formula:
    """Translate a TriAL(*) expression to FO/TrCl over ⟨E₁,…, ∼⟩.

    ``rel_names`` is needed when the expression uses U (the active
    domain must be spelled out); defaults to the relation names the
    expression mentions.  With ``fold_equalities``, θ-equated join
    positions share one variable instead of an existential plus an
    equality conjunct — the Lemma 1 trick that (after minimisation)
    brings TriAL= expressions into FO⁴.
    """
    if rel_names is None:
        rel_names = tuple(sorted(expr.relation_names()))

    def go(e: Expr) -> Formula:
        if isinstance(e, Rel):
            return RelAtom(e.name, tuple(Var(v) for v in OUT_VARS))
        if isinstance(e, Universe):
            if not rel_names:
                raise TranslationError("U needs at least one relation name")
            return and_all(
                [_adom(v, rel_names, ("v4", "v5")) for v in OUT_VARS]
            )
        if isinstance(e, Select):
            slot = {i: OUT_VARS[i] for i in range(3)}
            conjuncts: list[Formula] = [go(e.expr)]
            conjuncts += [_condition_formula(c, slot) for c in e.conditions]
            return and_all(conjuncts)
        if isinstance(e, Union):
            return Or(go(e.left), go(e.right))
        if isinstance(e, Diff):
            return And(go(e.left), Not(go(e.right)))
        if isinstance(e, Intersect):
            return And(go(e.left), go(e.right))
        if isinstance(e, Join):
            return _join_formula(go(e.left), go(e.right), e.out, e.conditions)
        if isinstance(e, Star):
            return _star_formula(go(e.expr), e)
        raise TranslationError(f"unknown expression node {type(e).__name__}")

    def _join_formula(
        phi_left: Formula,
        phi_right: Formula,
        out: tuple[int, int, int],
        conditions: tuple[Cond, ...],
    ) -> Formula:
        # Optionally merge positions linked by θ-equalities (Lemma 1's
        # variable-saving move): equated positions share one variable.
        from repro.analysis.semantics import EqualityClosure

        folded = [
            cond
            for cond in conditions
            if fold_equalities
            and cond.is_equality
            and not cond.on_data
            and isinstance(cond.left, Pos)
            and isinstance(cond.right, Pos)
        ]
        closure = EqualityClosure(folded)
        slot: dict[tuple, str] = {}
        extra_eqs: list[Formula] = []
        for var, pos in zip(OUT_VARS, out):
            root = closure.root(Pos(pos))
            if root in slot:
                # Repeated output position (or one equated to an earlier
                # output): vⱼ equals the earlier name.  The equality
                # lives OUTSIDE the quantifier below, which frees vⱼ for
                # reuse as a bound name inside (FOᵏ counts names, not
                # scopes).
                extra_eqs.append(Eq(Var(var), Var(slot[root])))
            else:
                slot[root] = var
        spare = ["v4", "v5", "v6"] + [v for v in OUT_VARS if v not in slot.values()]
        quantified: list[str] = []
        for pos in range(6):
            root = closure.root(Pos(pos))
            if root not in slot:
                name = spare.pop(0)
                slot[root] = name
                quantified.append(name)
        position_var = {pos: slot[closure.root(Pos(pos))] for pos in range(6)}
        left = rename(
            phi_left,
            {OUT_VARS[i]: position_var[i] for i in range(3)},
            POOL,
        )
        right = rename(
            phi_right,
            {OUT_VARS[i]: position_var[i + 3] for i in range(3)},
            POOL,
        )
        conjuncts = [left, right]
        conjuncts += [
            _condition_formula(c, position_var)
            for c in conditions
            if c not in folded
        ]
        body = exists(*quantified, and_all(conjuncts)) if quantified else and_all(conjuncts)
        return and_all([body] + extra_eqs)

    def _star_formula(phi: Formula, e: Star) -> Formula:
        # Closed-over tuples x̄ = (s1,s2,s3), ȳ = (t1,t2,t3).
        xs = ("s1", "s2", "s3")
        ys = ("t1", "t2", "t3")
        # step(x̄, ȳ): joining x̄ (as the accumulator side) with some
        # ψ_e-triple produces ȳ.
        join_formula = _join_formula(
            _tuple_is(xs) if e.side == "right" else phi,
            phi if e.side == "right" else _tuple_is(xs),
            e.out,
            e.conditions,
        )
        # join_formula's free vars are v1,v2,v3 (the produced triple) and
        # possibly xs; identify the produced triple with ȳ.
        step = rename(join_formula, dict(zip(OUT_VARS, ys)), POOL + xs + ys)
        trcl = Trcl(xs, ys, step, tuple(Var(x) for x in xs), tuple(Var(v) for v in OUT_VARS))
        closure = exists(
            *xs,
            And(rename(phi, dict(zip(OUT_VARS, xs)), POOL + xs), trcl),
        )
        return Or(phi, closure)

    def _tuple_is(names: tuple[str, ...]) -> Formula:
        """A formula whose v1,v2,v3 equal the named tuple (used to inject
        the accumulator tuple into the generic join construction)."""
        return and_all(
            [Eq(Var(OUT_VARS[i]), Var(names[i])) for i in range(3)]
        )

    return go(expr)


def trial_eq_to_fo4(
    expr: Expr, rel_names: tuple[str, ...] | None = None
) -> Formula:
    """Theorem 5 / Lemma 1: a low-variable formula for TriAL= expressions.

    Combines equality folding (θ-equated join positions share one
    variable) with quantifier miniscoping and greedy name reuse
    (:mod:`repro.logic.minimize`).  The tests check both the semantic
    agreement and that the result lands in FO⁴ on the fragment's
    characteristic shapes.  Raises for expressions outside TriAL=.
    """
    from repro.core.expressions import in_trial_eq
    from repro.logic.minimize import minimize_variables

    if not in_trial_eq(expr):
        raise TranslationError(
            "trial_eq_to_fo4 requires a TriAL= expression "
            "(no inequalities, no Kleene stars)"
        )
    phi = trial_to_fo(expr, rel_names, fold_equalities=True)
    return minimize_variables(phi, pool=POOL)
