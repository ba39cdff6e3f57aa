"""Repo-invariant linter tests (:mod:`repro.analysis.lint`).

The shipped tree must lint clean; each rule is then exercised against a
minimal fixture tree that plants exactly one violation, so a rule that
stops firing (or starts over-firing) fails a dedicated test.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import LINT_RULES
from repro.analysis.lint import Finding, main, run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body), encoding="utf-8")
    return root


def rules_of(findings) -> list[str]:
    return [f.rule for f in findings]


# --------------------------------------------------------------------- #
# The shipped tree
# --------------------------------------------------------------------- #


def test_shipped_tree_is_clean():
    assert run_lint(REPO_ROOT) == []


def test_finding_format():
    f = Finding("BARE-EXCEPT", "bare except", "src/x.py", 12)
    assert str(f) == "src/x.py:12: BARE-EXCEPT bare except"


# --------------------------------------------------------------------- #
# One fixture tree per rule
# --------------------------------------------------------------------- #


def test_bare_except(tmp_path):
    write_tree(tmp_path, {"src/repro/x.py": """\
        try:
            pass
        except:
            pass
    """})
    findings = run_lint(tmp_path)
    assert rules_of(findings) == ["BARE-EXCEPT"]
    assert findings[0].path == "src/repro/x.py"
    assert findings[0].line == 3


def test_lru_lock(tmp_path):
    write_tree(tmp_path, {"src/repro/db.py": """\
        import threading


        class _LRU:
            def __init__(self):
                self._lock = threading.Lock()
                self._data = {}

            def get(self, key):
                with self._lock:
                    return self._data.get(key)

            def peek(self, key):
                return self._data.get(key)
    """})
    findings = run_lint(tmp_path)
    assert rules_of(findings) == ["LRU-LOCK"]
    # Only the unlocked access in peek() fires; __init__ and the
    # with-self._lock access are allowed.
    assert findings[0].line == 14


def test_lru_lock_guards_the_running_weight_like_the_map(tmp_path):
    write_tree(tmp_path, {"src/repro/db.py": """\
        import threading


        class _LRU:
            def __init__(self):
                self._lock = threading.Lock()
                self._data = {}
                self._weight = 0

            def put(self, key, value):
                with self._lock:
                    self._data[key] = value
                    self._weight += len(value)

            def weight(self):
                return self._weight


        class Database:
            def rows(self):
                return self._results._weight
    """})
    findings = run_lint(tmp_path)
    assert rules_of(findings) == ["LRU-LOCK", "LRU-LOCK"]
    # The unlocked read inside the class, and the reach from outside it.
    assert [f.line for f in findings] == [16, 21]
    assert "_LRU._weight" in findings[0].message


def test_lru_lock_does_not_fire_outside_db(tmp_path):
    write_tree(tmp_path, {"src/repro/other.py": """\
        class _LRU:
            def peek(self):
                return self._data
    """})
    assert run_lint(tmp_path) == []


def test_err_raise_in_service(tmp_path):
    write_tree(tmp_path, {
        "src/repro/errors.py": """\
            class ReproError(Exception):
                pass
        """,
        "src/repro/service/handlers.py": """\
            from repro.errors import ReproError


            def ok():
                raise ReproError("fine")


            def bad():
                raise ValueError("leaks a stdlib type across the wire")
        """,
    })
    findings = run_lint(tmp_path)
    assert rules_of(findings) == ["ERR-RAISE"]
    assert "ValueError" in findings[0].message


def test_err_raise_not_scoped_to_other_modules(tmp_path):
    write_tree(tmp_path, {
        "src/repro/errors.py": "class ReproError(Exception):\n    pass\n",
        "src/repro/internal.py": "def f():\n    raise ValueError('internal')\n",
    })
    assert run_lint(tmp_path) == []


#: A README table plus a module reading from it: one variable by name,
#: one prefix (a dynamic read of everything under ``REPRO_SVC_``).
ENV_DOC_README = """\
    | env var | meaning |
    |---|---|
    | `REPRO_KNOB` | read by name |
    | `REPRO_SVC_PORT` | read under a prefix |
"""
ENV_DOC_MODULE = """\
    KNOB = "REPRO_KNOB"
    PREFIX = "REPRO_SVC_"
"""


def test_env_doc_read_variable_needs_a_row(tmp_path):
    write_tree(tmp_path, {
        "README.md": ENV_DOC_README,
        "src/repro/x.py": ENV_DOC_MODULE + '    HIDDEN = "REPRO_HIDDEN"\n',
    })
    findings = run_lint(tmp_path)
    assert rules_of(findings) == ["ENV-DOC"]
    assert (findings[0].path, findings[0].line) == ("src/repro/x.py", 3)
    assert "REPRO_HIDDEN" in findings[0].message


def test_env_doc_row_needs_a_reader(tmp_path):
    write_tree(tmp_path, {
        "README.md": ENV_DOC_README + "    | `REPRO_GONE` | its knob was deleted |\n",
        "src/repro/x.py": ENV_DOC_MODULE,
    })
    findings = run_lint(tmp_path)
    assert rules_of(findings) == ["ENV-DOC"]
    assert (findings[0].path, findings[0].line) == ("README.md", 5)
    assert "REPRO_GONE" in findings[0].message


ERRORS_FIXTURE = """\
    class ReproError(Exception):
        pass


    class AlgebraError(ReproError):
        pass


    class ParseError(ReproError):
        pass
"""


def test_err_map_missing_leaf(tmp_path):
    write_tree(tmp_path, {
        "src/repro/errors.py": ERRORS_FIXTURE,
        "src/repro/service/protocol.py": """\
            from repro.errors import AlgebraError, ReproError

            _STATUS_MAP = (
                (AlgebraError, 400),
                (ReproError, 400),
            )
        """,
    })
    findings = run_lint(tmp_path)
    assert rules_of(findings) == ["ERR-MAP"]
    assert "ParseError" in findings[0].message


def test_err_order_unreachable_entry(tmp_path):
    write_tree(tmp_path, {
        "src/repro/errors.py": ERRORS_FIXTURE,
        "src/repro/service/protocol.py": """\
            from repro.errors import AlgebraError, ParseError, ReproError

            _STATUS_MAP = (
                (ParseError, 400),
                (ReproError, 400),
                (AlgebraError, 418),
            )
        """,
    })
    findings = run_lint(tmp_path)
    assert rules_of(findings) == ["ERR-ORDER"]
    assert "AlgebraError" in findings[0].message


def test_err_map_clean_fixture(tmp_path):
    write_tree(tmp_path, {
        "src/repro/errors.py": ERRORS_FIXTURE,
        "src/repro/service/protocol.py": """\
            from repro.errors import AlgebraError, ParseError, ReproError

            _STATUS_MAP = (
                (AlgebraError, 400),
                (ParseError, 400),
                (ReproError, 400),
            )
        """,
    })
    assert run_lint(tmp_path) == []


def test_stor_atomic_bare_write(tmp_path):
    write_tree(tmp_path, {"src/repro/storage/bad.py": """\
        def save(path, data):
            with open(path, "wb") as fp:
                fp.write(data)
    """})
    findings = run_lint(tmp_path)
    assert rules_of(findings) == ["STOR-ATOMIC"]
    assert findings[0].path == "src/repro/storage/bad.py"


def test_stor_atomic_bare_replace(tmp_path):
    write_tree(tmp_path, {"src/repro/storage/swap.py": """\
        import os


        def promote(tmp, final):
            os.replace(tmp, final)
    """})
    findings = run_lint(tmp_path)
    assert rules_of(findings) == ["STOR-ATOMIC"]
    assert "os.replace" in findings[0].message or "fsync" in findings[0].message


def test_stor_atomic_satisfied_by_fsync_and_rename(tmp_path):
    write_tree(tmp_path, {"src/repro/storage/good.py": """\
        import os


        def save(path, data):
            tmp = path + ".tmp"
            with open(tmp, "wb") as fp:
                fp.write(data)
                fp.flush()
                os.fsync(fp.fileno())
            os.replace(tmp, path)
    """})
    assert run_lint(tmp_path) == []


def test_stor_atomic_satisfied_by_helper(tmp_path):
    write_tree(tmp_path, {"src/repro/storage/helper.py": """\
        from repro.storage.fsutil import atomic_write_bytes


        def save(path, data):
            atomic_write_bytes(path, data)
    """})
    assert run_lint(tmp_path) == []


def test_stor_atomic_append_mode_exempt(tmp_path):
    write_tree(tmp_path, {"src/repro/storage/log.py": """\
        def append(path, data):
            with open(path, "ab") as fp:
                fp.write(data)
    """})
    assert run_lint(tmp_path) == []


def test_stor_atomic_not_scoped_outside_storage(tmp_path):
    write_tree(tmp_path, {"src/repro/elsewhere.py": """\
        def save(path, data):
            with open(path, "wb") as fp:
                fp.write(data)
    """})
    assert run_lint(tmp_path) == []


def test_stor_nopickle_flags_a_new_site(tmp_path):
    write_tree(tmp_path, {"src/repro/storage/segments.py": """\
        import pickle


        def read_meta(payload):
            return pickle.loads(payload)
    """})
    findings = run_lint(tmp_path)
    assert rules_of(findings) == ["STOR-NOPICKLE"]
    assert findings[0].line == 5
    assert "read_meta" in findings[0].message


def test_stor_nopickle_sees_aliases_and_from_imports(tmp_path):
    write_tree(tmp_path, {"src/repro/storage/x.py": """\
        import pickle as pk
        from pickle import load as slurp

        STATE = pk.loads(b"")


        def f(fp):
            return slurp(fp)
    """})
    findings = run_lint(tmp_path)
    assert rules_of(findings) == ["STOR-NOPICKLE", "STOR-NOPICKLE"]
    assert [f.line for f in findings] == [4, 8]


def test_stor_nopickle_allows_the_listed_sites_up_to_their_count(tmp_path):
    write_tree(tmp_path, {
        "src/repro/storage/segments.py": """\
            import pickle


            def _read_pickled_meta(fp):
                return pickle.loads(fp.read())
        """,
        "src/repro/storage/wal.py": """\
            import pickle


            def recover(payloads):
                first = pickle.loads(payloads[0])
                return first, pickle.loads(payloads[1])
        """,
    })
    findings = run_lint(tmp_path)
    assert rules_of(findings) == ["STOR-NOPICKLE"]
    assert (findings[0].path, findings[0].line) == ("src/repro/storage/wal.py", 6)


def test_stor_nopickle_not_scoped_outside_storage(tmp_path):
    write_tree(tmp_path, {"src/repro/elsewhere.py": """\
        import pickle


        def read(payload):
            return pickle.loads(payload)
    """})
    assert run_lint(tmp_path) == []


# --------------------------------------------------------------------- #
# Filtering, ordering, discovery
# --------------------------------------------------------------------- #


@pytest.fixture()
def two_rule_tree(tmp_path):
    return write_tree(tmp_path, {
        "src/repro/a.py": """\
            try:
                pass
            except:
                pass
        """,
        "src/repro/storage/b.py": """\
            def save(path, data):
                with open(path, "wb") as fp:
                    fp.write(data)
        """,
    })


def test_select_and_ignore(two_rule_tree):
    assert rules_of(run_lint(two_rule_tree)) == ["BARE-EXCEPT", "STOR-ATOMIC"]
    assert rules_of(
        run_lint(two_rule_tree, select=["STOR-ATOMIC"])
    ) == ["STOR-ATOMIC"]
    assert rules_of(
        run_lint(two_rule_tree, ignore=["STOR-ATOMIC"])
    ) == ["BARE-EXCEPT"]


def test_unknown_rule_raises(two_rule_tree):
    with pytest.raises(ValueError, match="BOGUS"):
        run_lint(two_rule_tree, select=["BOGUS"])
    with pytest.raises(ValueError, match="known rules"):
        run_lint(two_rule_tree, ignore=["NOPE"])


@pytest.mark.parametrize("rule", ["SHM-UNLINK", "SPAWN-STATE"])
def test_process_executor_rules_are_gone(two_rule_tree, rule):
    # Both guarded the removed worker-process shard executor.
    assert rule not in LINT_RULES
    with pytest.raises(ValueError, match=rule):
        run_lint(two_rule_tree, select=[rule])


def test_paths_restrict_the_walk(two_rule_tree):
    findings = run_lint(two_rule_tree, paths=["src/repro/storage/b.py"])
    assert rules_of(findings) == ["STOR-ATOMIC"]


def test_findings_are_sorted(two_rule_tree):
    findings = run_lint(two_rule_tree)
    assert findings == sorted(
        findings, key=lambda f: (f.path, f.line, f.rule, f.message)
    )


# --------------------------------------------------------------------- #
# Entry points: repro lint, python -m, scripts/lint.py
# --------------------------------------------------------------------- #


def test_main_exit_codes(two_rule_tree, capsys):
    assert main(["--root", str(two_rule_tree)]) == 1
    out = capsys.readouterr()
    assert "BARE-EXCEPT" in out.out and "STOR-ATOMIC" in out.out
    assert "2 finding(s)" in out.err
    assert main(["--root", str(two_rule_tree), "--select", "LRU-LOCK"]) == 0
    assert main(["--root", str(two_rule_tree), "--select", "BOGUS"]) == 2
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr()
    assert all(rule in out.out for rule in LINT_RULES)


def test_cli_lint_subcommand(two_rule_tree):
    from repro.cli import main as cli_main

    assert cli_main(["lint", "--root", str(two_rule_tree)]) == 1
    assert cli_main(["lint", "--root", str(REPO_ROOT)]) == 0


def test_cli_lint_plan_subcommand(capsys):
    from repro.cli import main as cli_main

    rc = cli_main(["lint-plan", "join[1,2,3'; 3=1'](E, E)"])
    assert rc == 0
    assert "plan verified" in capsys.readouterr().err


def test_scripts_lint_wrapper():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "lint.py")],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_module_runnable():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint", "--list-rules"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "BARE-EXCEPT" in proc.stdout
