"""Print the size of the package source and the number of settable options.

    python3 tools/source_stats.py

For every module of ``src/thurston_kit`` prints its line count, its
number of settable keyword options and its number of public names, then
the totals.  The options are function, method and lambda parameters that
have a default, plus fields with a default in classes decorated with
``dataclass`` (a ``field(...)`` without ``default`` or
``default_factory`` sets none).  The public names are the module's
top-level ``def``, ``class`` and assigned names that do not start with
``_``.  Then the number of optional flags of ``cli.py``: the options of
``_TOP_OPTIONS`` and of each command of ``_COMMANDS`` whose default is
not ``_REQUIRED``.  Then the package's environment reads: calls of
``os.environ.get`` and ``os.getenv``, and loading subscripts of
``os.environ``; the options count covers every setting only while this
reads 0.  Last come the line totals of ``tests`` and of ``tools``, so
one run gives a change's net lines on each side, and a change that moves
code between the tests and the tools shows its net on both.  Reads the
files next to this script; imports nothing from the package.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "thurston_kit"
TESTS = ROOT / "tests"
TOOLS = ROOT / "tools"


def _called_name(node: ast.expr) -> str | None:
    """``f`` for ``f``, ``m.f``, ``f(...)`` and ``m.f(...)``."""
    target = node.func if isinstance(node, ast.Call) else node
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_called_name(deco) == "dataclass" for deco in node.decorator_list)


def _has_default(value: ast.expr | None) -> bool:
    """Whether a dataclass field's right-hand side gives it a default: any
    value but a ``field(...)`` call without ``default`` or ``default_factory``."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and _called_name(value) == "field":
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return True


def settable_options(tree: ast.AST) -> int:
    """Parameters with a default plus dataclass fields with a default."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and _has_default(s.value) for s in node.body)
    return count


def public_names(tree: ast.Module) -> int:
    """Top-level functions, classes and assigned names not starting with ``_``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            stored = (n for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
            names.update(n.id for n in stored if isinstance(n.ctx, ast.Store))
    return sum(not name.startswith("_") for name in names)


def optional_flags(tree: ast.Module) -> int:
    """Options with a default in the command table: entries of the
    ``_TOP_OPTIONS`` dict and of the options dict, the third item, of each
    ``_COMMANDS`` entry whose default, the second item, is not ``_REQUIRED``."""
    tables: list[ast.expr] = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            names = {getattr(target, "id", None) for target in node.targets}
            if "_TOP_OPTIONS" in names:
                tables.append(node.value)
            if "_COMMANDS" in names:
                tables += [entry.elts[2] for entry in node.value.values if isinstance(entry, ast.Tuple)]
    specs = [spec for table in tables if isinstance(table, ast.Dict) for spec in table.values]
    return sum(isinstance(spec, ast.Tuple) and getattr(spec.elts[1], "id", None) != "_REQUIRED" for spec in specs)


def _is_environ(node: ast.expr) -> bool:
    """Whether ``node`` is ``os.environ``."""
    return isinstance(node, ast.Attribute) and node.attr == "environ" and getattr(node.value, "id", None) == "os"


def environment_reads(tree: ast.AST) -> int:
    """Calls of ``os.environ.get`` and ``os.getenv``, and subscripts of
    ``os.environ`` that load a value (an assignment to one is not a read)."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func
            count += ((target.attr == "get" and _is_environ(target.value))
                      or (target.attr == "getenv" and getattr(target.value, "id", None) == "os"))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            count += _is_environ(node.value)
    return count


def line_total(directory: Path) -> int:
    """Lines of the ``*.py`` files directly in ``directory``."""
    return sum(len(path.read_text().splitlines()) for path in directory.glob("*.py"))


def main() -> None:
    total_lines = total_options = total_names = total_reads = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        lines, options, names = len(text.splitlines()), settable_options(tree), public_names(tree)
        print(f"{path.name:<16}{lines:>6} lines{options:>6} options{names:>6} names")
        total_lines += lines
        total_options += options
        total_names += names
        total_reads += environment_reads(tree)
    print(f"{'total':<16}{total_lines:>6} lines{total_options:>6} options{total_names:>6} names")
    print(f"{'cli flags':<16}{optional_flags(ast.parse((SRC / 'cli.py').read_text())):>6}")
    print(f"{'env reads':<16}{total_reads:>6}")
    print(f"{'tests':<16}{line_total(TESTS):>6} lines")
    print(f"{'tools':<16}{line_total(TOOLS):>6} lines")


if __name__ == "__main__":
    main()
