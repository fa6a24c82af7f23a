"""The declared surface of ``src/``: every public name is called, declared
or a paper hook.

The design rule is that code nothing calls gets deleted, not kept for
symmetry.  This gate builds the reference graph of ``src/`` with
:mod:`ast` and asserts on a completeness record: every public top-level
function or class, and every public method of a public class, must be

* referenced somewhere in ``src/`` other than its own definition — a
  function or class by a ``Name``, an ``Attribute``, an import alias or
  an identifier inside a string annotation, a method only by an
  ``Attribute`` (a local variable or parameter of the same name is not
  a call of it); the re-exports of an ``__init__`` and ``__all__`` do
  not count;
* declared in ``docs/API.md``: a top-level name in a table's item
  column or anywhere in the row whose item column names its module, a
  method anywhere in the row whose item column names its class; or
* defined in one of the paper-hook modules DESIGN.md §4b names.

The record also lists the ``stale`` item-column names of ``docs/API.md``
that ``src/`` no longer defines.  ``python tests/test_surface.py``
prints the record.
"""

from __future__ import annotations

import ast
import builtins
import keyword
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
API = ROOT / "docs" / "API.md"

#: The paper hooks DESIGN.md §4b names, kept whole whatever calls them.
HOOK_MODULES = (
    "repro/mo/similarity.py",
    "repro/mo/beads.py",
    "repro/mo/flow.py",
    "repro/mo/movingregion.py",
)

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions(tree: ast.Module) -> Iterator[Tuple[str, str]]:
    """``(qualified name, name)`` of each public top-level function or
    class and each public method of a public class."""
    for node in tree.body:
        if not (isinstance(node, _DEFS) and _public(node.name)):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS[:2]) and _public(item.name):
                    yield f"{node.name}.{item.name}", item.name


def _annotation_names(node: ast.AST) -> Iterator[str]:
    """The identifiers of an annotation, string annotations parsed."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed)
        elif isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _annotations(node: ast.AST) -> Iterator[ast.AST]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                    args.vararg, args.kwarg):
            if arg is not None and arg.annotation is not None:
                yield arg.annotation
        if node.returns is not None:
            yield node.returns
    elif isinstance(node, ast.AnnAssign):
        yield node.annotation


def references(
    tree: ast.Module, package_init: bool
) -> Tuple[Set[str], Set[str]]:
    """The names ``tree`` refers to, and those of them it refers to as an
    ``Attribute`` (what can reach a method).  A definition's own body
    does not refer to it; an ``__init__``'s ``from ... import``
    re-exports it."""
    found: Set[str] = set()
    attributes: Set[str] = set()

    def visit(node: ast.AST, enclosing: Tuple[str, ...]) -> None:
        names: List[str] = []
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
            if node.attr not in enclosing:
                attributes.add(node.attr)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.extend(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom) and not package_init:
            names.extend(alias.name for alias in node.names)
        for annotation in _annotations(node):
            names.extend(_annotation_names(annotation))
        found.update(name for name in names if name not in enclosing)
        if isinstance(node, _DEFS):
            enclosing = enclosing + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, ())
    return found, attributes


def bound_names(tree: ast.Module) -> Set[str]:
    """Every name ``tree`` binds: definitions, parameters, assignment
    targets (attributes too) and import aliases."""
    bound: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DEFS):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
            node.ctx, ast.Store
        ):
            bound.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.update((alias.asname or alias.name).split("."))
    return bound


def _cells(row: str) -> List[str]:
    return [cell.strip() for cell in re.split(r"(?<!\\)\|", row.strip())[1:-1]]


def _identifiers(text: str) -> Set[str]:
    """The identifiers inside the code spans of ``text``, string
    literals left out."""
    names: Set[str] = set()
    for span in re.findall(r"`([^`]*)`", text):
        span = re.sub(r"\"[^\"]*\"|'[^']*'", "", span)
        names.update(re.findall(r"[A-Za-z_]\w*", span))
    return names


def api_rows(text: str) -> List[Tuple[Set[str], Set[str]]]:
    """``(item-column identifiers, row identifiers)`` of each table row
    of ``docs/API.md`` (header and rule rows left out)."""
    rows = []
    for line in text.splitlines():
        cells = _cells(line) if line.startswith("|") else []
        if len(cells) < 2 or set(cells[0]) <= set("-: ") or cells[0] == "Item":
            continue
        rows.append((_identifiers(cells[0]), _identifiers(" ".join(cells))))
    return rows


@dataclass
class Surface:
    """The completeness record: how each public name is accounted for."""

    public: int = 0
    referenced: int = 0
    declared: int = 0
    hooks: int = 0
    orphans: List[str] = field(default_factory=list)
    stale: List[str] = field(default_factory=list)


def surface(sources: Dict[str, str], api: str) -> Surface:
    """The record of ``sources`` (path relative to ``src/`` -> text)
    against the declared surface ``api``."""
    trees = {path: ast.parse(text, path) for path, text in sources.items()}
    referenced: Set[str] = set()
    attributes: Set[str] = set()
    universe = set(dir(builtins)) | set(keyword.kwlist)
    for path, tree in trees.items():
        names, attrs = references(tree, path.endswith("__init__.py"))
        referenced |= names
        attributes |= attrs
        universe |= bound_names(tree)
        universe.update(Path(path).with_suffix("").parts)
    rows = api_rows(api)
    items = set().union(*(item for item, _ in rows))
    record = Surface()
    for path, tree in sorted(trees.items()):
        module = path[:-3].replace("/", ".")
        for qualified, name in definitions(tree):
            record.public += 1
            # A method's row names its class; a function's, its module.
            method = "." in qualified
            owner = qualified.split(".")[0] if method else module.split(".")[-1]
            if name in (attributes if method else referenced):
                record.referenced += 1
            elif (not method and name in items) or any(
                owner in item and name in row for item, row in rows
            ):
                record.declared += 1
            elif path in HOOK_MODULES:
                record.hooks += 1
            else:
                record.orphans.append(f"{module}.{qualified}")
    record.stale = sorted(items - universe)
    return record


def src_surface() -> Surface:
    sources = {
        path.relative_to(SRC).as_posix(): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }
    return surface(sources, API.read_text())


@pytest.fixture(scope="module")
def record() -> Surface:
    return src_surface()


def test_every_public_name_is_called_declared_or_a_hook(record):
    assert record.public > 500, record
    assert record.orphans == [], (
        f"{len(record.orphans)} public names nothing in src/ refers to, "
        f"not declared in docs/API.md and not a paper hook: "
        f"{record.orphans}"
    )


def test_every_declared_name_exists(record):
    assert record.stale == [], (
        f"docs/API.md declares names src/ no longer defines: {record.stale}"
    )


def test_the_gate_sees_an_orphan():
    sources = {
        "pkg/__init__.py": "from pkg.mod import used, unused, Kept\n"
                           "__all__ = ['used', 'unused', 'Kept']\n",
        "pkg/mod.py": (
            "def used():\n    return unused_too\n"
            "def unused():\n    return unused()\n"
            "def annotated(x: 'Kept') -> None:\n"
            "    orphan = used()\n    return orphan\n"
            "class Kept:\n"
            "    def declared(self): pass\n"
            "    def orphan(self): pass\n"
        ),
    }
    api = "| Item | Purpose |\n|---|---|\n| `annotated`, `Kept`, `gone` | `declared` |\n"
    record = surface(sources, api)
    assert record.orphans == ["pkg.mod.unused", "pkg.mod.Kept.orphan"]
    assert record.stale == ["gone"]
    assert (record.public, record.referenced, record.declared) == (6, 2, 2)


if __name__ == "__main__":
    record = src_surface()
    print(f"public {record.public}  referenced {record.referenced}  "
          f"declared {record.declared}  hooks {record.hooks}")
    print(f"orphans ({len(record.orphans)}):")
    for name in record.orphans:
        print(f"  {name}")
    print(f"stale ({len(record.stale)}): {record.stale}")
