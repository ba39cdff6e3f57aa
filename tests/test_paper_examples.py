"""Every worked example of the paper, reproduced exactly (E1, E4–E6, E16)."""

import pytest

from repro.core import (
    FastEngine,
    HashJoinEngine,
    NaiveEngine,
    R,
    evaluate,
    example2_expr,
    example2_extended,
    example3_left,
    example3_right,
    join,
    project13,
    query_q,
    reach_down,
    reach_forward,
    star,
)
from repro.rdf.datasets import (
    EXAMPLE2_EXPECTED,
    EXAMPLE2_PRIME_EXTRA,
    EXAMPLE3_LEFT_EXPECTED,
    EXAMPLE3_RIGHT_EXPECTED,
    QUERY_Q_CITY_PAIRS,
    QUERY_Q_EXPECTED_PAIRS,
    QUERY_Q_NEGATIVE_PAIR,
    example3_store,
    figure1,
    social_network,
)
from repro.triplestore import Triplestore

ENGINES = [HashJoinEngine(), NaiveEngine(), FastEngine()]


@pytest.fixture(params=ENGINES, ids=lambda e: type(e).__name__)
def engine(request):
    return request.param


class TestExample2:
    """e = E ✶^{1,3',3}_{2=1'} E on Figure 1."""

    def test_result_table(self, engine):
        got = evaluate(example2_expr(), figure1(), engine)
        assert got == EXAMPLE2_EXPECTED

    def test_extended_adds_natexpress_route(self, engine):
        got = evaluate(example2_extended(), figure1(), engine)
        assert got == EXAMPLE2_EXPECTED | {EXAMPLE2_PRIME_EXTRA}


class TestExample3:
    """Left and right Kleene closures genuinely differ."""

    def test_right_closure(self, engine):
        got = evaluate(example3_right(), example3_store(), engine)
        assert got == EXAMPLE3_RIGHT_EXPECTED

    def test_left_closure(self, engine):
        got = evaluate(example3_left(), example3_store(), engine)
        assert got == EXAMPLE3_LEFT_EXPECTED

    def test_paper_difference(self):
        """The paper: right gives E ∪ {(a,b,d),(a,b,e)}, left E ∪ {(a,b,d)}."""
        right = evaluate(example3_right(), example3_store())
        left = evaluate(example3_left(), example3_store())
        assert right - left == {("a", "b", "e")}


class TestExample4:
    @pytest.mark.parametrize(
        "store,derived",
        [
            (Triplestore([("x", "m1", "y"), ("y", "m2", "z")]), ("x", "m1", "z")),
            (figure1(), ("St. Andrews", "Bus Op 1", "London")),
        ],
        ids=["two-hops", "figure1"],
    )
    def test_reach_forward_shape(self, engine, store, derived):
        got = evaluate(reach_forward(), store, engine)
        assert derived in got

    @pytest.mark.parametrize(
        "store,derived",
        [
            # (a,b,c) with (b,m,z): 1=2' joins b
            (Triplestore([("b", "m", "z"), ("a", "b", "c")]), ("a", "b", "z")),
            # Train Op 1 is part_of EastCoast
            (figure1(), ("Edinburgh", "Train Op 1", "EastCoast")),
        ],
        ids=["two-hops", "figure1"],
    )
    def test_reach_down_shape(self, engine, store, derived):
        # Reach⤓: (✶^{1',2',3}_{1=2'} E)* — each step's subject is the
        # accumulated triple's predicate.
        got = evaluate(reach_down(), store, engine)
        assert derived in got

    def test_query_q_structure(self):
        q = query_q()
        # ((E ✶^{1,3',3}_{2=1'})* ✶^{1,2,3'}_{3=1',2=2'})*
        assert q.side == "right"
        inner = q.expr
        assert inner.out == (0, 5, 2)


class TestQueryQ:
    def test_city_pairs(self, engine):
        pairs = project13(evaluate(query_q(), figure1(), engine))
        assert QUERY_Q_CITY_PAIRS <= pairs

    def test_full_answer(self, engine):
        pairs = project13(evaluate(query_q(), figure1(), engine))
        assert pairs == QUERY_Q_EXPECTED_PAIRS

    def test_st_andrews_brussels_not_in_q(self, engine):
        """The paper's negative example: the route needs two companies."""
        pairs = project13(evaluate(query_q(), figure1(), engine))
        assert QUERY_Q_NEGATIVE_PAIR not in pairs

    def test_edinburgh_london_via_eastcoast(self, engine):
        result = evaluate(query_q(), figure1(), engine)
        witnesses = {p for s, p, o in result if (s, o) == ("Edinburgh", "London")}
        # Both the direct operator and (recursively) its parents witness it.
        assert "Train Op 1" in witnesses
        assert "NatExpress" in witnesses

    def test_st_andrews_london_needs_transitivity(self, engine):
        """(St Andrews, London) holds only through NatExpress ⊇ EastCoast."""
        result = evaluate(query_q(), figure1(), engine)
        witnesses = {p for s, p, o in result if (s, o) == ("St. Andrews", "London")}
        assert witnesses == {"NatExpress"}


class TestSocialNetwork:
    """Section 2.3's network with quintuple data values (E16)."""

    def test_rho_quintuples(self):
        t = social_network()
        assert t.rho("o175") == ("Mario", "m@nes.com", 23, None, None)
        assert t.rho("c163")[3] == "rival"

    def test_connection_triples(self):
        t = social_network()
        assert ("o175", "c137", "o7521") in t.relation("E")

    def test_same_creation_date_join(self, engine):
        """Find pairs of connections created the same day via an η-join.

        c177 and c163 share created = 12-07-89 (their full quintuples
        differ only in type... they do differ, so we compare ρ equality
        on the whole value: only each with itself).
        """
        t = social_network()
        e = join(R("E"), R("E"), "2,1,2'", "rho(2)=rho(2')")
        got = evaluate(e, t, engine)
        middles = {(s, o) for s, _, o in got}
        # Whole-quintuple equality: each connection only matches itself.
        assert middles == {("c163", "c163"), ("c137", "c137"), ("c177", "c177")}

    def test_friend_of_friend_reachability(self, engine):
        """Mario reaches Donkey Kong both directly and via Luigi."""
        t = social_network()
        got = project13(evaluate(star(R("E"), "1,2,3'", "3=1'"), t, engine))
        assert ("o175", "o122") in got
