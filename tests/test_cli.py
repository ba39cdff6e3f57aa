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

    def test_optimize_flag(self, store_path, capsys):
        code = main(
            ["query", store_path, "select[](select[2='part_of'](E))", "--optimize"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "optimized" in err

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
            ["query", store_path, "E", "--backend", "columnar", "--limit", "2"]
        )
        assert code == 0
        assert sum(decoded) == 2  # the full 7-row relation was never decoded
        assert "# 7 triples" in capsys.readouterr().out

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

    def test_explain_with_optimize(self, capsys):
        assert main(["explain", "select[](E) | select[](E)", "--optimize"]) == 0
        assert "TriAL" in capsys.readouterr().out

    def test_explain_json_is_valid_json(self, store_path, capsys):
        import json

        code = main(
            ["explain", "join[1,2,3'; 3=1'](E, E)", "--json", "--store", store_path]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["plan"]["op"] == "HashJoin"
        assert data["statistics"] == {"triples": 7, "objects": 11}

    def test_explain_json_operator_kinds(self, capsys):
        import json

        code = main(["explain", "join[1,2,3'; 3=1'](E, E)", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["backend"] == "set"
        assert set(data["plan"]) == {
            "op", "label", "est_rows", "est_cost", "out", "conditions",
            "build_side", "access", "children",
        }
