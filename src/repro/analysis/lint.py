"""The repo-invariant linter: ``ast``-based rules for this codebase.

Generic linters cannot know that ``_LRU._data`` is only safe under
``self._lock``, that a durable write needs fsync and rename-into-place,
or that the service boundary must raise only ``repro.errors``
types that the wire protocol maps to a status code.  Previous PRs
enforced those invariants by review; this module encodes them as
checkable rules (catalogued in
:data:`repro.analysis.invariants.LINT_RULES`) so they hold by CI
instead of by memory.

Run as ``repro lint`` (``scripts/lint.py`` runs it on the repository
it lives in).  Output is deterministic ``path:line: RULE-ID message``
lines sorted by location; exit code 1 when anything fires, 0 on a clean
tree, 2 on an unknown rule ID.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from repro.analysis.invariants import RULES, Finding

__all__ = ["Finding", "lint_file", "run_lint"]


def _finding(path: str, line: int, rule: str, message: str) -> Finding:
    """A lint finding (source-located) on the unified analysis record."""
    return Finding(rule, message, path, line)


# --------------------------------------------------------------------- #
# Small AST helpers
# --------------------------------------------------------------------- #


def _call_name(node: ast.Call) -> Optional[str]:
    """The trailing name of a call target (``f`` in both ``f()`` and ``m.f()``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _with_holds_lock(node) -> bool:
    """Matches ``with self._lock:`` (also as one of several items)."""
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Attribute) and expr.attr == "_lock":
            return True
    return False


# --------------------------------------------------------------------- #
# Per-file rules
# --------------------------------------------------------------------- #


def _check_bare_except(tree: ast.AST, rel: str) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield _finding(
                rel,
                node.lineno,
                "BARE-EXCEPT",
                "bare 'except:' swallows KeyboardInterrupt/SystemExit; "
                "name the exception types",
            )


#: What ``_LRU``'s lock guards: the map and the running total of its
#: values' weights, which must move together.
_LRU_GUARDED = frozenset({"_data", "_weight"})


def _check_lru_lock(tree: ast.AST, rel: str) -> Iterator[Finding]:
    """``_LRU``'s map and running weight only under ``with self._lock``
    (db.py only)."""
    findings: list[Finding] = []

    class Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.class_stack: list[str] = []
            self.func_stack: list[str] = []
            self.lock_depth = 0

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            self.class_stack.append(node.name)
            self.generic_visit(node)
            self.class_stack.pop()

        def _visit_func(self, node) -> None:
            self.func_stack.append(node.name)
            self.generic_visit(node)
            self.func_stack.pop()

        visit_FunctionDef = _visit_func
        visit_AsyncFunctionDef = _visit_func

        def _visit_with(self, node) -> None:
            held = _with_holds_lock(node)
            self.lock_depth += held
            self.generic_visit(node)
            self.lock_depth -= held

        visit_With = _visit_with
        visit_AsyncWith = _visit_with

        def visit_Attribute(self, node: ast.Attribute) -> None:
            if node.attr in _LRU_GUARDED:
                in_lru = "_LRU" in self.class_stack
                if not in_lru:
                    findings.append(
                        _finding(
                            rel,
                            node.lineno,
                            "LRU-LOCK",
                            f"_LRU.{node.attr} accessed from outside the "
                            "class; go through its locked "
                            "get/evict/clear/info methods",
                        )
                    )
                elif self.lock_depth == 0 and (
                    not self.func_stack or self.func_stack[-1] != "__init__"
                ):
                    findings.append(
                        _finding(
                            rel,
                            node.lineno,
                            "LRU-LOCK",
                            f"_LRU.{node.attr} touched outside "
                            "'with self._lock'",
                        )
                    )
            self.generic_visit(node)

    Visitor().visit(tree)
    return iter(findings)


def _check_err_raise(
    tree: ast.AST, rel: str, error_classes: frozenset[str]
) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        # Re-raising a caught variable (lowercase) and non-Name forms
        # (``raise box["error"]``) are fine: the object was already
        # typed where it was first raised.
        if name is None or not name[:1].isupper():
            continue
        if name not in error_classes:
            yield _finding(
                rel,
                node.lineno,
                "ERR-RAISE",
                f"raises {name}, not a repro.errors type; the wire protocol "
                "cannot map it to a status code",
            )


#: Calls that prove a function flushes to stable storage (directly or
#: via the repro.storage.fsutil helpers, which fsync internally).
_FSYNC_EVIDENCE = frozenset(
    {"fsync", "fsync_fileobj", "fsync_dir", "atomic_write_bytes"}
)
#: Calls that prove new content is renamed into place, not written over
#: the final path.
_RENAME_EVIDENCE = frozenset({"replace", "rename", "atomic_write_bytes"})


def _open_write_mode(node: ast.Call) -> Optional[str]:
    """The mode string of a builtin ``open`` call, if statically known."""
    if not (isinstance(node.func, ast.Name) and node.func.id == "open"):
        return None
    mode = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def _check_stor_atomic(tree: ast.AST, rel: str) -> Iterator[Finding]:
    """STOR-ATOMIC: crash-safe write discipline under repro/storage/.

    Per function: opening a file for (over)writing (``w``/``x`` modes,
    ``write_text``, ``write_bytes``) requires both fsync and
    rename-into-place evidence in the same function; an
    ``os.replace``/``os.rename`` requires fsync evidence.  Append and
    read-modify handles (``ab``, ``r+b`` — the WAL's) are exempt: their
    protocols fsync at the commit point, not per write.
    """
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        write_opens: list[tuple[int, str]] = []
        renames: list[int] = []
        evidence_fsync = False
        evidence_rename = False
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name in _FSYNC_EVIDENCE:
                evidence_fsync = True
            if name in _RENAME_EVIDENCE:
                evidence_rename = True
            if name in ("replace", "rename") and isinstance(
                node.func, ast.Attribute
            ):
                renames.append(node.lineno)
            mode = _open_write_mode(node)
            if mode is not None and ("w" in mode or "x" in mode):
                write_opens.append((node.lineno, mode))
            if name in ("write_text", "write_bytes"):
                write_opens.append((node.lineno, name))
        for line, what in write_opens:
            if not (evidence_fsync and evidence_rename):
                yield _finding(
                    rel,
                    line,
                    "STOR-ATOMIC",
                    f"file opened for writing ({what!r}) without fsync + "
                    "rename-into-place in the same function; durable "
                    "writes must stage a tmp sibling, fsync it, and "
                    "os.replace it (see repro.storage.fsutil)",
                )
        for line in renames:
            if not evidence_fsync:
                yield _finding(
                    rel,
                    line,
                    "STOR-ATOMIC",
                    "os.replace/os.rename without a flush+fsync in the "
                    "same function; renaming un-synced content commits "
                    "a file whose bytes may not survive a crash",
                )


def _check_stor_nopickle(tree: ast.AST, rel: str) -> Iterator[Finding]:
    """STOR-NOPICKLE: no ``import pickle`` (aliased, ``from``-imported
    or of the ``_pickle`` accelerator) in this module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] in ("pickle", "_pickle") for name in names):
            yield _finding(
                rel,
                node.lineno,
                "STOR-NOPICKLE",
                "pickle is imported; store and service code keep data as "
                "data (see repro.storage.dictionary), since unpickling "
                "what a store directory or a client supplies runs code",
            )


#: The modules a client process loads, and every package init that
#: resolves its names on first use: at module level each may import only
#: the stdlib and the others.
_LEAN_MODULES = frozenset(
    {
        "repro",
        "repro.analysis",
        "repro.core",
        "repro.core.engines",
        "repro.errors",
        "repro.service",
        "repro.service.client",
        "repro.service.ws",
        "repro.storage",
        "repro.triplestore",
    }
)
#: ``cli.py``'s module level: the parser's choices and the error it
#: catches.  Each subcommand imports what it runs.
_CLI_IMPORTS = frozenset({"repro.core.engines", "repro.errors"})


def _module_imports(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """The import statements a module runs when it is imported: those in
    its body and in module-level ``if``/``try`` blocks, but not under
    ``if TYPE_CHECKING:``."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            test = node.test
            if (test.id if isinstance(test, ast.Name) else getattr(test, "attr", "")) != "TYPE_CHECKING":
                yield from _module_imports(node.body)
            yield from _module_imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, *(h.body for h in node.handlers), node.orelse, node.finalbody):
                yield from _module_imports(block)


def _import_targets(node: ast.stmt, src: Path) -> list[str]:
    """The modules an import statement loads: ``from package import
    name`` loads ``package.name`` when that is a module of the tree (a
    relative import is named as written, and so never allowed)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    assert isinstance(node, ast.ImportFrom)
    base = "." * node.level + (node.module or "")
    targets = []
    for alias in node.names:
        sub = src / base.replace(".", "/") / alias.name
        is_module = sub.with_suffix(".py").is_file() or (sub / "__init__.py").is_file()
        targets.append(f"{base}.{alias.name}" if is_module else base)
    return targets


def _check_import_layer(tree: ast.Module, module: str, rel: str, root: Path) -> Iterator[Finding]:
    """IMPORT-LAYER: the module-level imports of a lean module or of
    ``cli.py`` name only the stdlib and what :data:`_LEAN_MODULES` /
    :data:`_CLI_IMPORTS` allow."""
    allowed = _CLI_IMPORTS if module == "repro.cli" else _LEAN_MODULES
    for node in _module_imports(tree.body):
        for target in dict.fromkeys(_import_targets(node, root / "src")):
            if target.split(".")[0] in sys.stdlib_module_names or target in allowed:
                continue
            yield _finding(
                rel,
                node.lineno,
                "IMPORT-LAYER",
                f"imports {target} at module level; {module} may import only "
                f"the stdlib and {', '.join(sorted(allowed))}, so that "
                "importing it loads no more (import it where it is used)",
            )


# --------------------------------------------------------------------- #
# Cross-file rules: the errors.py ↔ protocol.py contract
# --------------------------------------------------------------------- #


def _error_hierarchy(tree: ast.AST) -> dict[str, tuple[str, ...]]:
    """``{class name: direct base names}`` for every class in errors.py."""
    classes: dict[str, tuple[str, ...]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            classes[node.name] = tuple(
                b.id for b in node.bases if isinstance(b, ast.Name)
            )
    return classes


def _ancestors(name: str, classes: dict[str, tuple[str, ...]]) -> set[str]:
    out: set[str] = set()
    stack = list(classes.get(name, ()))
    while stack:
        base = stack.pop()
        if base in out or base not in classes:
            continue
        out.add(base)
        stack.extend(classes[base])
    return out


def _status_map_entries(tree: ast.AST):
    """The ``_STATUS_MAP`` assignment: ``(node, [(name, line), ...])``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        if "_STATUS_MAP" in names:
            entries = []
            if isinstance(node.value, (ast.Tuple, ast.List)):
                for elt in node.value.elts:
                    if (
                        isinstance(elt, (ast.Tuple, ast.List))
                        and elt.elts
                        and isinstance(elt.elts[0], ast.Name)
                    ):
                        entries.append((elt.elts[0].id, elt.lineno))
            return node, entries
    return None, []


def _check_status_map(
    errors_tree: ast.AST, protocol_tree: ast.AST, protocol_rel: str
) -> Iterator[Finding]:
    classes = _error_hierarchy(errors_tree)
    node, entries = _status_map_entries(protocol_tree)
    if node is None:
        yield _finding(
            protocol_rel,
            1,
            "ERR-MAP",
            "no _STATUS_MAP assignment found; the wire protocol has no "
            "exception→status table to check",
        )
        return
    mapped = {name for name, _ in entries}
    parents = {base for bases in classes.values() for base in bases}
    leaves = [name for name in classes if name not in parents]
    for leaf in leaves:
        if leaf not in mapped:
            yield _finding(
                protocol_rel,
                node.lineno,
                "ERR-MAP",
                f"errors.{leaf} has no explicit _STATUS_MAP entry; leaf "
                "types must not rely on the family fallthrough",
            )
    # ERR-ORDER: isinstance dispatch is first-match, so an entry preceded
    # by one of its base classes can never fire.
    for i, (name, line) in enumerate(entries):
        ancestors = _ancestors(name, classes)
        for prior, _ in entries[:i]:
            if prior in ancestors:
                yield _finding(
                    protocol_rel,
                    line,
                    "ERR-ORDER",
                    f"{name} entry is unreachable: its base class {prior} "
                    "matches first",
                )
                break


# --------------------------------------------------------------------- #
# Cross-file rule: REPRO_* env vars ↔ README documentation
# --------------------------------------------------------------------- #

#: A REPRO_* environment-variable name as it appears in a string literal.
_ENV_VAR_RE = re.compile(r"^REPRO_[A-Z0-9_]+$")


def _env_literals(tree: ast.AST) -> Iterator[tuple[str, int]]:
    """Every ``REPRO_*`` string literal in a module, with its line."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _ENV_VAR_RE.match(node.value)
        ):
            yield node.value, node.lineno


def _documented_env_vars(readme_text: str) -> dict[str, int]:
    """REPRO_* names in README table rows (lines starting '|'), each with
    the line number of the first row naming it."""
    documented: dict[str, int] = {}
    for lineno, line in enumerate(readme_text.splitlines(), start=1):
        if line.lstrip().startswith("|"):
            for name in re.findall(r"REPRO_[A-Z0-9_]+", line):
                documented.setdefault(name, lineno)
    return documented


def _check_env_doc(root: Path) -> Iterator[Finding]:
    """ENV-DOC: the README tables and the REPRO_* vars read under src/ agree.

    The repo names every ``REPRO_*`` variable it reads as a string
    literal (``WAL_LIMIT_ENV = "REPRO_STORAGE_WAL_LIMIT"`` and friends),
    so the read sites are exactly the string literals matching the name
    shape.  Both directions are checked: a variable read under src/
    needs a README table row, and a row must name a variable something
    under src/ reads — a row that outlived its knob is a finding at
    ``README.md:<line>``.
    """
    readme = root / "README.md"
    if not readme.is_file():
        return  # synthetic trees without docs have nothing to check
    documented = _documented_env_vars(readme.read_text(encoding="utf-8"))
    src = root / "src"
    if not src.is_dir():
        return
    read: set[str] = set()
    for path in sorted(src.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        rel = _rel_path(path, root)
        for name, line in _env_literals(tree):
            read.add(name)
            if name not in documented:
                yield _finding(
                    rel,
                    line,
                    "ENV-DOC",
                    f"{name} is read here but missing from the README "
                    "environment-variable table",
                )
    for name, line in documented.items():
        if name not in read:
            yield _finding(
                _rel_path(readme, root),
                line,
                "ENV-DOC",
                f"{name} has a README table row but nothing under src/ "
                "reads it; drop the row",
            )


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #


def _rel_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_file(
    path: Path, root: Path, error_classes: frozenset[str]
) -> list[Finding]:
    """All per-file findings for one source file (scoped by its path)."""
    rel = _rel_path(path, root)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    findings: list[Finding] = []
    findings.extend(_check_bare_except(tree, rel))
    if rel.endswith("repro/db.py"):
        findings.extend(_check_lru_lock(tree, rel))
    if rel.endswith("repro/api.py") or "repro/service/" in rel:
        findings.extend(_check_err_raise(tree, rel, error_classes))
    if "repro/storage/" in rel:
        findings.extend(_check_stor_atomic(tree, rel))
    if "repro/storage/" in rel or "repro/service/" in rel:
        findings.extend(_check_stor_nopickle(tree, rel))
    module = rel.removeprefix("src/").removesuffix(".py").replace("/", ".").removesuffix(".__init__")
    if rel.startswith("src/") and module in _LEAN_MODULES | {"repro.cli"}:
        findings.extend(_check_import_layer(tree, module, rel, root))
    return findings


def _discover(root: Path, paths: Optional[Sequence[str]]) -> list[Path]:
    if paths:
        targets = [Path(p) if Path(p).is_absolute() else root / p for p in paths]
    else:
        targets = [root / d for d in ("src", "scripts", "tests", "benchmarks")]
    files: list[Path] = []
    for target in targets:
        if target.is_file():
            files.append(target)
        elif target.is_dir():
            files.extend(
                p
                for p in sorted(target.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
    return files


def run_lint(
    root: str | Path = ".",
    *,
    paths: Optional[Sequence[str]] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> list[Finding]:
    """Lint the tree under ``root`` and return sorted findings.

    ``paths`` restricts the walk to specific files/directories (still
    resolved against ``root`` for rule scoping); ``select`` keeps only
    the named rules, ``ignore`` drops them.  Unknown rule IDs raise
    ``ValueError`` — a typo must not silently lint nothing.
    """
    root = Path(root)
    for name, ids in (("select", select), ("ignore", ignore)):
        unknown = sorted(set(ids or ()) - set(RULES))
        if unknown:
            raise ValueError(
                f"unknown {name} rule(s) {', '.join(unknown)}; known rules: "
                + ", ".join(sorted(RULES))
            )
    errors_path = root / "src" / "repro" / "errors.py"
    error_classes: frozenset[str] = frozenset()
    errors_tree = None
    if errors_path.is_file():
        errors_tree = ast.parse(errors_path.read_text(encoding="utf-8"))
        error_classes = frozenset(_error_hierarchy(errors_tree))
    findings: list[Finding] = []
    for path in _discover(root, paths):
        findings.extend(lint_file(path, root, error_classes))
    protocol_path = root / "src" / "repro" / "service" / "protocol.py"
    if errors_tree is not None and protocol_path.is_file():
        protocol_tree = ast.parse(protocol_path.read_text(encoding="utf-8"))
        findings.extend(
            _check_status_map(
                errors_tree, protocol_tree, _rel_path(protocol_path, root)
            )
        )
    findings.extend(_check_env_doc(root))
    if select:
        keep = set(select)
        findings = [f for f in findings if f.rule in keep]
    if ignore:
        drop = set(ignore)
        findings = [f for f in findings if f.rule not in drop]
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings
