"""Tests for the TriAL expression AST and fragment classifiers."""

import pytest

from repro.errors import AlgebraError
from repro.core import (
    Diff,
    Intersect,
    Join,
    R,
    Rel,
    Select,
    Star,
    Union,
    Universe,
    in_reach_ta_eq,
    in_trial,
    in_trial_eq,
    is_equality_only,
    join,
    lstar,
    parse,
    reach_forward,
    select,
    star,
    star_is_reach,
)
from repro.core.expressions import REACH_COND_SAME_LABEL, REACH_OUT


class TestConstruction:
    def test_out_spec_string(self):
        j = Join(Rel("E"), Rel("E"), "1,3',3")
        assert j.out == (0, 5, 2)

    def test_bad_out_spec(self):
        with pytest.raises(AlgebraError):
            Join(Rel("E"), Rel("E"), (0, 9, 1))

    def test_select_rejects_right_positions(self):
        with pytest.raises(AlgebraError):
            Select(Rel("E"), "1=2'")

    def test_star_side_validation(self):
        with pytest.raises(AlgebraError):
            Star(Rel("E"), (0, 1, 2), (), side="middle")

    def test_operator_sugar(self):
        e = R("E")
        assert isinstance(e | e, Union)
        assert isinstance(e - e, Diff)
        assert isinstance(e & e, Intersect)


class TestTreeUtilities:
    def test_walk_and_size(self):
        e = join(R("E"), R("F") | R("E"), "1,2,3")
        assert e.size() == 5  # Join, Rel, Union, Rel, Rel
        assert {type(n).__name__ for n in e.walk()} == {"Join", "Rel", "Union"}

    def test_relation_names(self):
        e = join(R("E"), R("F"), "1,2,3") - R("G")
        assert e.relation_names() == {"E", "F", "G"}

    def test_is_recursive(self):
        assert reach_forward().is_recursive()
        assert not join(R("E"), R("E"), "1,2,3").is_recursive()

    def test_repr_parses_back(self):
        for e in (
            reach_forward(),
            select(R("E"), "2='part_of'"),
            join(R("E"), R("E"), "1,3',3", "2=1' & rho(1)!=rho(2')"),
            lstar(R("E"), "1',2',3", "1=2'"),
            (R("E") | R("F")) - Universe(),
            R("E") & R("F"),
        ):
            assert parse(repr(e)) == e


class TestFragments:
    def test_reach_star_detection(self):
        assert star_is_reach(star(R("E"), "1,2,3'", "3=1'"))
        assert star_is_reach(star(R("E"), "1,2,3'", "2=2' & 3=1'"))
        assert not star_is_reach(star(R("E"), "1,2,3'", "3=2'"))
        assert not star_is_reach(star(R("E"), "1,3',3", "2=1'"))
        assert not star_is_reach(lstar(R("E"), "1,2,3'", "3=1'"))

    def test_reach_constants_match_builder(self):
        s = star(R("E"), "1,2,3'", "3=1' & 2=2'")
        assert s.out == REACH_OUT
        assert frozenset(s.conditions) == frozenset(REACH_COND_SAME_LABEL)

    def test_equality_only(self):
        assert is_equality_only(join(R("E"), R("E"), "1,2,3", "1=2'"))
        assert not is_equality_only(select(R("E"), "1!=2"))

    def test_trial_membership(self):
        e = join(R("E"), R("E"), "1,2,3", "1=1'")
        assert in_trial(e) and in_trial_eq(e)
        assert not in_trial(reach_forward())

    def test_reach_ta_eq_membership(self):
        q_like = star(star(R("E"), "1,2,3'", "3=1'"), "1,2,3'", "3=1' & 2=2'")
        assert in_reach_ta_eq(q_like)
        assert not in_reach_ta_eq(star(R("E"), "1,3',3", "2=1'"))
        assert not in_reach_ta_eq(select(R("E"), "1!=2"))


class TestHash:
    """The hash is structural, like ``==``, and computed once per node."""

    TEXT = "join[1,3',3; 2=1' & 1!=3'](select[2='p'](E), star[1,2,3'; 3=1'](F))"

    def test_equal_expressions_built_apart_hash_equal(self):
        parsed = parse(self.TEXT)
        built = join(
            select(R("E"), "2='p'"), star(R("F"), "1,2,3'", "3=1'"), "1,3',3", "2=1' & 1!=3'"
        )
        assert parsed == built and parsed is not built
        hash(parsed)  # one side memoised, the other not yet
        assert hash(parsed) == hash(built)
        assert {parsed: "plan"}[built] == "plan"
        assert parse(self.TEXT.replace("'p'", "'q'")) != parsed

    def test_each_nodes_hash_is_computed_once(self, monkeypatch):
        from repro.core.expressions import Expr

        computed: list[int] = []
        for cls in Expr.__subclasses__():
            structural = cls._structural_hash

            def counting(self, structural=structural):
                computed.append(id(self))
                return structural(self)

            monkeypatch.setattr(cls, "_structural_hash", counting)
        expr = parse(self.TEXT)
        first = hash(expr)
        assert hash(expr) == hash(expr) == first
        assert hash(Union(expr, expr)) == hash(Union(expr, expr))
        nodes = [id(node) for node in expr.walk()]
        assert len(set(nodes)) == expr.size() == 5
        # Each node of ``expr`` once, then each of the two Union nodes once.
        assert sorted(computed[:5]) == sorted(nodes) and len(computed) == 7

    def test_the_memo_is_not_pickled(self):
        import pickle

        expr = parse(self.TEXT)
        hash(expr)
        loaded = pickle.loads(pickle.dumps(expr))
        assert loaded == expr
        assert all("_hash" not in node.__dict__ for node in loaded.walk())
        assert hash(loaded) == hash(expr)
