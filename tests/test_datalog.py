"""Tests for the Datalog AST, parser and evaluator."""

import pytest

from repro.errors import DatalogError, StratificationError, UnknownRelationError
from repro.datalog import (
    Atom,
    DConst,
    DVar,
    DatalogEvaluator,
    EqLit,
    Program,
    RelLit,
    Rule,
    SimLit,
    parse_program,
    run_program,
    stratify,
)
from repro.triplestore import Triplestore

CHAIN = Triplestore(
    [("a", "p", "b"), ("b", "p", "c"), ("c", "q", "d")],
    rho={"a": 1, "b": 1, "c": 2, "d": 2, "p": 0, "q": 0},
)


class TestAst:
    def test_arity_bounds(self):
        with pytest.raises(DatalogError):
            Atom("P", ())
        with pytest.raises(DatalogError):
            Atom("P", ("x", "y", "z", "w"))

    def test_unsafe_head_rejected(self):
        with pytest.raises(DatalogError):
            Rule(Atom("P", ("x", "y", "z")), (RelLit(Atom("E", ("x", "y", "y"))),))

    def test_unsafe_negation_rejected(self):
        with pytest.raises(DatalogError):
            Rule(
                Atom("P", ("x", "x", "x")),
                (
                    RelLit(Atom("E", ("x", "x", "x"))),
                    RelLit(Atom("F", ("x", "y", "y")), negated=True),
                ),
            )

    def test_constant_binding_counts_as_safe(self):
        rule = Rule(
            Atom("P", ("x", "y", "y")),
            (RelLit(Atom("E", ("x", "x", "y"))),),
        )
        assert rule.head.pred == "P"

    def test_program_predicates(self):
        p = parse_program("Ans(x,y,z) :- E(x,y,z), Aux(x,y,z).\nAux(x,y,z) :- E(x,y,z).")
        assert p.idb_predicates() == {"Ans", "Aux"}
        assert p.edb_predicates() == {"E"}

    def test_program_size(self):
        p = parse_program("Ans(x,y,z) :- E(x,y,z), x != y.")
        assert p.size() == 3


class TestParser:
    def test_full_syntax(self):
        text = """
        % comment
        S(x, y, z)   :- E(x, y, z).
        Ans(x, y, z) :- S(x, y, z), not F(x, y, z), ~(x, z), not ~(y, z),
                        x != z, y = 'c', x = 3.
        """
        p = parse_program(text)
        rule = p.rules_for("Ans")[0]
        kinds = [type(l).__name__ for l in rule.body]
        assert kinds == ["RelLit", "RelLit", "SimLit", "SimLit", "EqLit", "EqLit", "EqLit"]
        assert rule.body[1].negated and rule.body[3].negated and rule.body[4].negated

    def test_constants(self):
        p = parse_program("Ans(x, y, z) :- E(x, y, z), y = 'part of'.")
        lit = p.rules[0].body[1]
        assert lit.right == DConst("part of")

    def test_comment_markers_inside_quotes_are_text(self):
        p = parse_program(
            'Ans(x, y, z) :- E(x, y, z), y = "http://ex.org/ns#type", x != '
            "'50%'.  # a comment\n% another\n"
        )
        body = p.rules[0].body
        assert body[1].right == DConst("http://ex.org/ns#type")
        assert body[2].right == DConst("50%")

    def test_bad_syntax(self):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            parse_program("Ans(x,y,z) :- E(x,y,z)")  # missing period
        with pytest.raises(ParseError):
            parse_program("Ans(x,y,z) : E(x,y,z).")


class TestEvaluation:
    def test_copy_rule(self):
        p = parse_program("Ans(x,y,z) :- E(x,y,z).")
        assert run_program(p, CHAIN) == CHAIN.relation("E")

    def test_permutation_rule(self):
        p = parse_program("Ans(z,y,x) :- E(x,y,z).")
        assert run_program(p, CHAIN) == {
            (o, p, s) for s, p, o in CHAIN.relation("E")
        }

    def test_join_rule(self):
        p = parse_program("Ans(x,y,w) :- E(x,y,z), E(z,u,w).")
        assert ("a", "p", "c") in run_program(p, CHAIN)

    def test_recursion_reachability(self):
        p = parse_program(
            """
            R(x,y,z) :- E(x,y,z).
            R(x,y,w) :- R(x,y,z), E(z,u,w).
            Ans(x,y,z) :- R(x,y,z).
            """
        )
        got = run_program(p, CHAIN)
        assert ("a", "p", "d") in got

    def test_negation_across_strata(self):
        p = parse_program(
            """
            Loop(x,y,z) :- E(x,y,z), E(z,u,x).
            Ans(x,y,z) :- E(x,y,z), not Loop(x,y,z).
            """
        )
        assert run_program(p, CHAIN) == CHAIN.relation("E")  # no loops here

    def test_sim_literal(self):
        p = parse_program("Ans(x,y,z) :- E(x,y,z), ~(x, z).")
        got = run_program(p, CHAIN)
        assert got == {("a", "p", "b"), ("c", "q", "d")}

    def test_equality_with_constant(self):
        p = parse_program("Ans(x,y,z) :- E(x,y,z), y = 'q'.")
        assert run_program(p, CHAIN) == {("c", "q", "d")}

    def test_inequality(self):
        p = parse_program("Ans(x,y,z) :- E(x,y,z), E(z,w,u), x != u.")
        assert run_program(p, CHAIN) == {("a", "p", "b"), ("b", "p", "c")}

    def test_negated_edb(self):
        p = parse_program("Ans(x,y,x) :- E(x,y,z), not E(z,y,x).")
        assert len(run_program(p, CHAIN)) == 3

    def test_stratification_error(self):
        p = parse_program(
            """
            P(x,y,z) :- E(x,y,z), not Q(x,y,z).
            Q(x,y,z) :- E(x,y,z), not P(x,y,z).
            Ans(x,y,z) :- P(x,y,z).
            """
        )
        with pytest.raises(StratificationError):
            run_program(p, CHAIN)

    def test_mutual_recursion_evaluates(self):
        p = parse_program(
            """
            P(x,y,z) :- E(x,y,z).
            P(x,y,z) :- Q(x,y,z).
            Q(x,y,w) :- P(x,y,z), E(z,u,w).
            Ans(x,y,z) :- P(x,y,z).
            """
        )
        got = run_program(p, CHAIN)
        assert ("a", "p", "d") in got

    def test_missing_answer_pred(self):
        p = parse_program("P(x,y,z) :- E(x,y,z).")
        with pytest.raises(DatalogError):
            run_program(p, CHAIN)

    def test_unknown_edb_relation(self):
        p = parse_program("Ans(x,y,z) :- Nope(x,y,z).")
        with pytest.raises(UnknownRelationError):
            run_program(p, CHAIN)

    def test_run_returns_all_idbs(self):
        p = parse_program("P(x,y,z) :- E(x,y,z).\nAns(x,y,z) :- P(x,y,z).")
        rels = DatalogEvaluator(CHAIN).run(p)
        assert set(rels) == {"P", "Ans"}

    def test_stratify_orders_dependencies_first(self):
        p = parse_program(
            """
            A(x,y,z) :- B(x,y,z).
            B(x,y,z) :- E(x,y,z).
            Ans(x,y,z) :- A(x,y,z).
            """
        )
        order = [c[0] for c in stratify(p)]
        assert order.index("B") < order.index("A") < order.index("Ans")
