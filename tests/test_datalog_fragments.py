"""E10: fragment validation and the Prop 2 / Thm 2 round trips."""

import pytest
from hypothesis import given, settings

from repro.errors import TranslationError
from repro.core import R, evaluate, example2_expr, query_q, reach_forward, select
from repro.datalog import (
    datalog_to_trial,
    is_nonrecursive,
    is_reach_triple_datalog,
    is_triple_datalog,
    is_triple_datalog_rule,
    parse_program,
    run_program,
    trial_to_datalog,
    validate_fragment,
)
from repro.rdf.datasets import figure1
from repro.workloads import transport_network
from tests.conftest import expressions, stores


class TestFragmentValidation:
    def test_shape_rule_ok(self):
        p = parse_program("Ans(x,y,z) :- E(x,y,z), F(z,y,x), ~(x,y), x != z.")
        assert is_triple_datalog_rule(p.rules[0])

    def test_three_rel_literals_rejected(self):
        p = parse_program("Ans(x,y,z) :- E(x,y,z), E(z,y,x), E(y,x,z).")
        assert not is_triple_datalog_rule(p.rules[0])

    def test_nonrecursive_detection(self):
        rec = parse_program("P(x,y,z) :- E(x,y,z).\nP(x,y,w) :- P(x,y,z), E(z,u,w).\nAns(x,y,z) :- P(x,y,z).")
        nonrec = parse_program("P(x,y,z) :- E(x,y,z).\nAns(x,y,z) :- P(x,y,z).")
        assert not is_nonrecursive(rec)
        assert is_nonrecursive(nonrec)
        assert is_reach_triple_datalog(rec)
        assert is_triple_datalog(nonrec)

    def test_reach_fragment_rejects_bad_base(self):
        p = parse_program(
            """
            P(x,y,z) :- E(x,y,z), x != y.
            P(x,y,w) :- P(x,y,z), E(z,u,w).
            Ans(x,y,z) :- P(x,y,z).
            """
        )
        assert not is_reach_triple_datalog(p)

    def test_reach_fragment_rejects_three_rules(self):
        p = parse_program(
            """
            P(x,y,z) :- E(x,y,z).
            P(x,y,z) :- E(z,y,x).
            P(x,y,w) :- P(x,y,z), E(z,u,w).
            Ans(x,y,z) :- P(x,y,z).
            """
        )
        assert not is_reach_triple_datalog(p)

    def test_validate_fragment_raises(self):
        from repro.errors import DatalogError

        rec = parse_program(
            "P(x,y,z) :- E(x,y,z).\nP(x,y,w) :- P(x,y,z), E(z,u,w).\nAns(x,y,z) :- P(x,y,z)."
        )
        with pytest.raises(DatalogError):
            validate_fragment(rec, "TripleDatalog")
        validate_fragment(rec, "ReachTripleDatalog")
        with pytest.raises(DatalogError):
            validate_fragment(rec, "NoSuchFragment")


class TestProposition2RoundTrip:
    """TriAL → nonrecursive TripleDatalog¬ → TriAL, semantics preserved."""

    @given(expressions(max_depth=3, allow_star=False), stores(max_triples=8))
    @settings(max_examples=50, deadline=None)
    def test_to_datalog_preserves_semantics(self, expr, store):
        program = trial_to_datalog(expr)
        assert is_triple_datalog(program)
        assert run_program(program, store) == evaluate(expr, store)

    @given(expressions(max_depth=2, allow_star=False), stores(max_triples=8))
    @settings(max_examples=40, deadline=None)
    def test_back_translation_preserves_semantics(self, expr, store):
        program = trial_to_datalog(expr)
        back = datalog_to_trial(program)
        assert evaluate(back, store) == evaluate(expr, store)


class TestTheorem2RoundTrip:
    """TriAL* ↔ ReachTripleDatalog¬ (stars become the two-rule shape)."""

    @given(expressions(max_depth=3, allow_star=True), stores(max_triples=8))
    @settings(max_examples=40, deadline=None)
    def test_recursive_round_trip(self, expr, store):
        program = trial_to_datalog(expr)
        assert run_program(program, store) == evaluate(expr, store)
        back = datalog_to_trial(program)
        assert evaluate(back, store) == evaluate(expr, store)

    @pytest.mark.parametrize(
        "store",
        [
            figure1(),
            transport_network(
                n_cities=20, n_services=4, n_companies=3, extra_routes=10, seed=20
            ),
        ],
        ids=["figure1", "transport"],
    )
    def test_query_q_program_is_reach_fragment(self, store):
        """Corollary 1: the Datalog route answers Q as the algebra does."""
        program = trial_to_datalog(query_q())
        assert is_reach_triple_datalog(program) and len(program) >= 5
        assert run_program(program, store) == evaluate(query_q(), store)

    def test_reach_forward_program(self):
        program = trial_to_datalog(reach_forward())
        assert is_reach_triple_datalog(program)

    def test_example2_program_is_nonrecursive(self):
        program = trial_to_datalog(example2_expr())
        assert is_triple_datalog(program)


class TestTranslationErrors:
    def test_universe_not_translatable(self):
        from repro.core import Universe

        with pytest.raises(TranslationError):
            trial_to_datalog(Universe())

    def test_low_arity_not_translatable_back(self):
        p = parse_program("Ans(x, x, x) :- P(x).\nP(x) :- E(x, y, z).")
        with pytest.raises(TranslationError):
            datalog_to_trial(p)

    def test_mutual_recursion_not_translatable(self):
        p = parse_program(
            """
            P(x,y,z) :- E(x,y,z).
            P(x,y,z) :- Q(x,y,z).
            Q(x,y,w) :- P(x,y,z), E(z,u,w).
            Ans(x,y,z) :- P(x,y,z).
            """
        )
        with pytest.raises(TranslationError):
            datalog_to_trial(p)

    def test_hand_written_reach_program_translates(self):
        p = parse_program(
            """
            Sub(x, y, z) :- E(x, y, z).
            Reach(x, y, z) :- Sub(x, y, z).
            Reach(x, y, w) :- Reach(x, y, z), Sub(z, u, w), ~(y, u).
            Ans(x, y, z) :- Reach(x, y, z), x != z.
            """
        )
        expr = datalog_to_trial(p)
        store = figure1()
        assert evaluate(expr, store) == run_program(p, store)
