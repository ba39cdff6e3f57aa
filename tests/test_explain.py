"""Tests for the explain report: fragments, cost features, the plan a
session runs and the findings its analyzer reports."""

import pytest

from repro import Database
from repro.api import explain_report, plan_to_dict
from repro.core import (
    FastEngine,
    R,
    Universe,
    complement,
    join,
    query_q,
    reach_forward,
    select,
    star,
)
from repro.core.semijoin import semijoin
from repro.rdf import figure1


def logical(expr):
    return explain_report(expr).logical


class TestFragments:
    def test_query_q_fragment(self):
        """Q's inner star (E ✶^{1,3',3}_{2=1'})* is *not* one of the two
        reach shapes, so Q sits in the equality-only TriAL*= regime; only
        its outer star is reach-shaped."""
        report = logical(query_q())
        assert "TriAL*=" in report["fragment"]
        assert report["n_stars"] == 2 and report["n_reach_stars"] == 1

    def test_pure_reach_query_is_reach_fragment(self):
        nested = star(
            star(R("E"), "1,2,3'", "3=1'"), "1,2,3'", "3=1' & 2=2'"
        )
        report = logical(nested)
        assert report["fragment"] == "reachTA="
        assert "Proposition 5" in report["guarantee"]

    def test_plain_join_is_trial_eq(self):
        report = logical(join(R("E"), R("E"), "1,2,3'", "3=1'"))
        assert report["fragment"] == "TriAL="
        assert "Proposition 4" in report["guarantee"]

    def test_semijoin_fragment_detected(self):
        report = explain_report(semijoin(R("E"), R("F"), "3=1'"))
        assert report.logical["fragment"].startswith("semijoin")

    def test_inequalities_leave_the_equality_fragments(self):
        report = logical(select(R("E"), "1!=2"))
        assert report["fragment"] == "TriAL"
        assert "Theorem 3" in report["guarantee"]
        assert not report["equality_only"]

    def test_general_star_is_trial_star(self):
        report = logical(star(R("E"), "1,3',3", "2=1' & 1!=2"))
        assert report["fragment"] == "TriAL*"
        assert report["recursive"]

    def test_equality_only_star_gets_intermediate_bound(self):
        report = logical(star(R("E"), "1,3',3", "2=1'"))
        assert "TriAL*=" in report["fragment"]
        assert "|T|²" in report["guarantee"]

    def test_reach_star_counted(self):
        assert logical(reach_forward())["n_reach_stars"] == 1

    def test_no_engine_advice(self):
        """Every plan engine compiles the same plan, so the report names
        the plan that runs rather than an engine to pick."""
        assert set(logical(query_q())) == {
            "size", "relations", "recursive", "n_stars", "n_reach_stars",
            "uses_universe", "uses_complement", "equality_only", "fragment",
            "guarantee",
        }


class TestFeatures:
    def test_universe_and_complement_flags(self):
        report = logical(complement(R("E")))
        assert report["uses_universe"] and report["uses_complement"]

    def test_size_and_relations(self):
        report = logical(join(R("E"), R("F"), "1,2,3"))
        assert report["size"] == 3
        assert report["relations"] == ("E", "F")

    def test_text_is_multiline(self):
        text = str(explain_report(query_q()))
        assert "fragment   : TriAL*=" in text
        assert "physical plan (rows = output estimate" in text

    def test_plain_universe(self):
        report = logical(Universe())
        assert report["relations"] == ()
        assert report["uses_universe"]


class TestOneExplain:
    """The report describes the plan a session runs and the findings
    its analyzer reports — not a plan or a verdict of its own."""

    MIXED = "(star[1,2,3'; 3=1'](E) | select[1!=3](E))"

    def test_default_plan_is_the_session_plan(self):
        store = figure1()
        report = Database(store).explain(self.MIXED)
        assert report.plan == plan_to_dict(Database(store).plan(self.MIXED))
        kinds = set()

        def walk(node):
            kinds.add(node["op"])
            for child in node.get("children", ()):
                walk(child)

        walk(report.plan)
        assert "ReachStar" in kinds and "Star" not in kinds

    def test_engineless_builder_compiles_as_a_default_session(self):
        from repro.core.parser import parse

        store = figure1()
        report = explain_report(parse(self.MIXED), store)
        assert (report.compiled_by, report.backend) == ("VectorEngine", "columnar")
        assert report.plan == plan_to_dict(Database(store).plan(self.MIXED))
        # Every engine with reach operators compiles the one plan.
        fast = explain_report(parse(self.MIXED), store, FastEngine())
        assert report.plan_text == fast.plan_text

    @pytest.mark.parametrize(
        "query", ["select[1=2 & 2=1](E)", "(E | select[1='a' & 1='b'](E))"]
    )
    def test_analysis_is_the_session_analysis(self, query):
        db = Database(figure1())  # optimizer on: it would consume both
        expected = tuple(f.to_dict() for f in db.analyze(query))
        assert expected
        assert db.explain(query).analysis == expected
        assert db.prepare(query).explain().analysis == expected
        assert db.prepare(query).explain().plan == db.explain(query).plan

    def test_text_lists_findings(self):
        text = str(Database(figure1()).explain("select[1=2 & 2=1](E)"))
        assert "finding    : SEM-REDUNDANT" in text

    def test_verifier_rejection_becomes_violations(self, monkeypatch):
        """A plan the verifier refuses inside compile is reported, not
        raised."""
        from repro.analysis.invariants import Violation
        from repro.errors import PlanVerificationError

        bad = Violation("PLAN-COST", "negative cost", op="Scan(E)")

        def refuse(plan, *, expr=None, params=None):
            raise PlanVerificationError("rejected", (bad,))

        monkeypatch.setattr("repro.analysis.verify.assert_plan_valid", refuse)
        report = explain_report(R("E"))
        assert report.violations == (bad.to_dict(),)
        assert report.verified is False and report.plan is None
        text = report.text()
        assert "rejected by the plan verifier" in text
        assert "violation  : PLAN-COST negative cost (at Scan(E))" in text
