"""CLI smoke and behaviour tests."""

import pytest

from repro.cli import main
from repro.rdf.datasets import figure1
from repro.triplestore import dump_path


@pytest.fixture()
def store_path(tmp_path):
    path = tmp_path / "fig1.tstore"
    dump_path(figure1(), str(path))
    return str(path)


@pytest.fixture()
def program_path(tmp_path):
    path = tmp_path / "q.dl"
    path.write_text(
        "R(x,y,z) :- E(x,y,z).\n"
        "R(x,y,w) :- R(x,y,z), E(z,u,w).\n"
        "Ans(x,y,z) :- R(x,y,z).\n"
    )
    return str(path)


class TestQuery:
    def test_basic_query(self, store_path, capsys):
        assert main(["query", store_path, "E"]) == 0
        out = capsys.readouterr().out
        assert "# 7 triples" in out

    def test_star_query_with_engine(self, store_path, capsys):
        code = main(
            ["query", store_path, "star[1,2,3'; 3=1'](E)", "--engine", "fast", "--limit", "0"]
        )
        assert code == 0
        assert "Brussels" in capsys.readouterr().out

    def test_explain_flag_prints_the_report(self, store_path, capsys):
        code = main(["query", store_path, "select[1='a' & 1='b'](E)", "--explain"])
        assert code == 0  # the findings inform; the query still runs
        err = capsys.readouterr().err
        assert "physical plan (rows = output estimate" in err
        assert "finding    : SEM-UNSAT" in err

    def test_limit_truncates(self, store_path, capsys):
        assert main(["query", store_path, "E", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "more" in out
        assert "# 7 triples" in out  # total row count still reported

    def test_limit_decodes_only_shown_rows(self, store_path, capsys, monkeypatch):
        from repro.triplestore.columnar import ColumnarStore

        decoded = []
        real = ColumnarStore.decode_list

        def counting(self, keys):
            decoded.append(len(keys))
            return real(self, keys)

        monkeypatch.setattr(ColumnarStore, "decode_list", counting)
        code = main(
            ["query", store_path, "E", "--engine", "vector", "--limit", "2"]
        )
        assert code == 0
        assert sum(decoded) == 2  # the full 7-row relation was never decoded
        assert "# 7 triples" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "STORE", "part_of", "--lang", "rpq"],
            ["datalog", "STORE", "PROGRAM"],
            ["connect", "http://127.0.0.1:1", "E", "--stream"],
        ],
        ids=["query", "datalog", "connect"],
    )
    def test_negative_limit_is_an_argument_error(
        self, store_path, program_path, argv, capsys
    ):
        paths = {"STORE": store_path, "PROGRAM": program_path}
        with pytest.raises(SystemExit) as exc:
            main([paths.get(arg, arg) for arg in argv] + ["--limit", "-1"])
        assert exc.value.code == 2
        assert "row count >= 0" in capsys.readouterr().err

    def test_param_binding(self, store_path, capsys):
        code = main(
            ["query", store_path, "select[2=$label](E)", "--param", "label=part_of"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "part_of" in out and "# 4 triples" in out

    def test_unbound_param_is_reported(self, store_path, capsys):
        assert main(["query", store_path, "select[2=$label](E)"]) == 1
        assert "label" in capsys.readouterr().err

    def test_malformed_param_is_reported(self, store_path, capsys):
        code = main(["query", store_path, "E", "--param", "nonsense"])
        assert code == 1
        assert "--param" in capsys.readouterr().err

    def test_gxpath_lang_prints_pairs(self, store_path, capsys):
        code = main(["query", store_path, "next", "--lang", "gxpath"])
        assert code == 0
        assert "pairs" in capsys.readouterr().out

    def test_parse_error_is_reported(self, store_path, capsys):
        assert main(["query", store_path, "join[**](E)"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["query", "/nonexistent.tstore", "E"]) == 1


class TestDatalog:
    def test_run_program(self, store_path, program_path, capsys):
        code = main(["datalog", store_path, program_path, "--limit", "0"])
        assert code == 0
        assert "triples" in capsys.readouterr().out

    def test_validation_pass(self, store_path, program_path, capsys):
        code = main(
            ["datalog", store_path, program_path, "--validate", "ReachTripleDatalog"]
        )
        assert code == 0
        assert "valid" in capsys.readouterr().err

    def test_validation_fail(self, store_path, tmp_path, capsys):
        bad = tmp_path / "bad.dl"
        bad.write_text("Ans(x,y,z) :- E(x,y,z), E(z,y,x), E(y,x,z).\n")
        code = main(["datalog", store_path, str(bad), "--validate", "TripleDatalog"])
        assert code == 1


class TestInfo:
    def test_info(self, store_path, capsys):
        assert main(["info", store_path]) == 0
        out = capsys.readouterr().out
        assert "objects:   11" in out
        assert "triples:   7" in out


class TestExplain:
    def test_explain_query(self, capsys):
        assert main(["explain", "star[1,2,3'; 3=1'](E)"]) == 0
        out = capsys.readouterr().out
        assert "reachTA=" in out
        assert "Proposition 5" in out
        assert "ReachStar" in out

    def test_explain_plans_the_optimized_expression(self, capsys):
        assert main(["explain", "select[](E) | select[](E)"]) == 0
        out = capsys.readouterr().out
        assert "expression : E" in out and "TriAL" in out

    def test_plans_and_runs_what_a_session_runs(self, store_path, capsys):
        """The provably empty branch is pruned in ``repro explain``'s plan,
        and ``repro query`` prints ``Database.query``'s rows."""
        from repro import Database

        query = "(E | select[1='a' & 1='b'](E))"
        assert main(["explain", query]) == 1  # SEM-UNSAT, SEM-EMPTY
        assert "IndexLookup" not in capsys.readouterr().out
        assert main(["query", store_path, query, "--limit", "0"]) == 0
        printed = capsys.readouterr().out
        assert main(["query", store_path, "E", "--limit", "0"]) == 0
        assert printed == capsys.readouterr().out
        assert Database.open(store_path).query(query) == Database.open(store_path).query("E")

    def test_explain_json_is_valid_json(self, store_path, capsys):
        import json

        code = main(
            ["explain", "join[1,2,3'; 3=1'](E, E)", "--json", "--store", store_path]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["plan"]["op"] == "HashJoin"
        assert data["statistics"] == {"triples": 7, "objects": 11}
        assert data["violations"] == [] and data["analysis"] == []

    def test_explain_json_operator_kinds(self, capsys):
        import json

        code = main(["explain", "join[1,2,3'; 3=1'](E, E)", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["backend"] == "columnar"
        assert set(data["plan"]) == {
            "op", "label", "est_rows", "est_cost", "out", "conditions",
            "build_side", "access", "children",
        }

    def test_explain_json_names_the_session_plan(self, store_path, capsys):
        """With no engine, the report compiles as a default session does:
        reach stars run as ReachStar, not as a semi-naive Star."""
        import json

        from repro import Database
        from repro.api import plan_to_dict
        from repro.triplestore import load_path

        query = "(star[1,2,3'; 3=1'](E) | select[1!=3](E))"
        assert main(["explain", query, "--json", "--store", store_path]) == 0
        data = json.loads(capsys.readouterr().out)
        expected = plan_to_dict(Database(load_path(store_path)).plan(query))
        assert data["plan"] == expected
        assert data["plan"]["children"][0]["op"] == "ReachStar"

    def test_explain_store_directory(self, tmp_path, capsys):
        from repro import Database

        root = tmp_path / "durable"
        db = Database(path=root)
        db.install("E", figure1().relation("E"))
        db.close()
        assert main(["explain", "E", "--store", str(root)]) == 0
        assert "|T|=7, |O|=11" in capsys.readouterr().out

    # The semantic findings of the query as written.

    def test_findings_exit_one(self, capsys):
        assert main(["explain", "select[1='a' & 1='b'](E)"]) == 1
        out = capsys.readouterr()
        assert "finding    : SEM-UNSAT" in out.out
        assert "0 violation(s), 2 finding(s)" in out.err
        assert main(["explain", "(E - E)"]) == 1
        assert "finding    : SEM-EMPTY" in capsys.readouterr().out
        assert main(["explain", "select[1=2 & 2=1](E)"]) == 1
        assert "finding    : SEM-REDUNDANT" in capsys.readouterr().out

    def test_findings_describe_the_query_as_written(self, capsys):
        """The plan is of the optimized expression, the findings of the
        query as written: the pruning rewrites would consume them."""
        assert main(["explain", "select[1=2 & 2=1](E)"]) == 1
        out = capsys.readouterr().out
        assert "expression : select[2=1](E)" in out
        assert "finding    : SEM-REDUNDANT" in out

    def test_findings_in_json(self, capsys):
        import json

        assert main(["explain", "(E - E)", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in data["analysis"]] == ["SEM-EMPTY"]

    def test_unknown_relation_needs_a_store(self, store_path, capsys):
        assert main(["explain", "Zzz"]) == 0
        capsys.readouterr()
        assert main(["explain", "Zzz", "--store", store_path]) == 1
        assert "SEM-UNKNOWN-REL" in capsys.readouterr().out

    # The plan verifier's violations.

    def test_clean_plan_exits_zero(self, capsys):
        assert main(["explain", "join[1,2,3'; 3=1'](E, E)"]) == 0
        out = capsys.readouterr()
        assert "violation" not in out.out and out.err == ""

    def test_violations_exit_one(self, capsys, monkeypatch):
        from repro.analysis.invariants import Violation

        from repro.errors import PlanVerificationError

        bad = Violation("PLAN-COST", "negative cost", op="Scan(E)")

        def refuse(plan, *, expr=None, params=None):
            raise PlanVerificationError("rejected", (bad,))

        monkeypatch.setattr("repro.analysis.verify.assert_plan_valid", refuse)
        assert main(["explain", "E"]) == 1
        out = capsys.readouterr()
        assert "violation  : PLAN-COST negative cost (at Scan(E))" in out.out
        assert "1 violation(s), 0 finding(s)" in out.err

    def test_compile_time_rejection_exits_one(self, capsys, monkeypatch):
        """A plan the verifier refuses inside compile is reported as the
        report's violations, with no plan."""
        import json

        from repro.analysis.invariants import Violation
        from repro.errors import PlanVerificationError

        bad = Violation("PLAN-KEY", "bad key", op="Scan(E)")

        def refuse(plan, *, expr=None, params=None):
            raise PlanVerificationError("rejected", (bad,))

        monkeypatch.setattr("repro.analysis.verify.assert_plan_valid", refuse)
        assert main(["explain", "E", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["plan"] is None and data["verified"] is False
        assert data["violations"] == [bad.to_dict()]

    def test_one_explain_command(self, capsys):
        """Plan, violations and findings are one command with one flag
        set; no other command explains, verifies or analyzes a query."""
        import argparse

        from repro.cli import build_parser

        (sub,) = (
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        assert set(sub.choices) == {
            "query", "datalog", "info", "explain", "lint", "serve", "fsck",
            "compact", "upgrade", "dump", "connect",
        }
        flags = {
            opt for a in sub.choices["explain"]._actions for opt in a.option_strings
        }
        assert flags == {"-h", "--help", "--json", "--store"}
        with pytest.raises(SystemExit) as exc:
            main(["explain", "E", "--physical"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestServe:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("port", -1),
            ("port", 70000),
            ("max_inflight", 0),
            ("queue_depth", -1),
            ("page_size", 0),
            ("query_timeout", 0),
        ],
    )
    def test_config_refuses_out_of_range_values(self, field, value):
        from repro.errors import ReproError
        from repro.service import ServiceConfig

        with pytest.raises(ReproError, match=field):
            ServiceConfig(**{field: value})

    def test_out_of_range_port_is_an_error_not_a_traceback(
        self, store_path, capsys
    ):
        assert main(["serve", store_path, "--port", "70000"]) == 1
        assert "error: port must be in 0-65535" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "STORE", "E", "--engine", "sharded", "--executor", "process"],
            ["serve", "STORE", "--workers", "2"],
            ["query", "STORE", "E", "--backend", "columnar"],
            ["query", "STORE", "E", "--shards", "2"],
            ["serve", "STORE", "--backend", "sharded", "--shards", "2"],
            ["serve", "STORE", "--store-path", "DIR"],
        ],
        ids=[
            "query-executor", "serve-workers", "query-backend", "query-shards",
            "serve-shards", "serve-store-path",
        ],
    )
    def test_cli_removed_flags_are_gone(self, store_path, argv, capsys):
        """``query`` chooses with ``--engine`` and ``serve`` with
        ``--backend``; no other flag picks what executes, and the
        positional STORE is the one way to name the default tenant."""
        with pytest.raises(SystemExit) as exc:
            main([store_path if arg == "STORE" else arg for arg in argv])
        assert exc.value.code == 2
        capsys.readouterr()


def _choices(parser, command: str, flag: str):
    sub = next(a for a in parser._actions if a.dest == "command").choices[command]
    return next(a for a in sub._actions if flag in a.option_strings).choices


def test_engine_and_backend_choices_are_the_registries():
    """``query --engine`` offers exactly the engine registry's names and
    ``serve --backend`` exactly ``BACKENDS``; the parser reads both from
    plain names, and each backend's default engine runs that backend."""
    from repro.cli import build_parser
    from repro.core.engines import BACKEND_ENGINES, ENGINE_REGISTRY, engine_class
    from repro.db import BACKENDS

    parser = build_parser()
    assert _choices(parser, "query", "--engine") == sorted(ENGINE_REGISTRY)
    assert tuple(_choices(parser, "serve", "--backend")) == BACKENDS
    assert all(ENGINE_REGISTRY[name] is engine_class(name) for name in ENGINE_REGISTRY)
    assert [engine_class(BACKEND_ENGINES[b]).backend for b in BACKENDS] == list(BACKENDS)
