"""Every module of ``predsim`` uses each name it imports, and the package
reads each of its private names.

Checked with ``ast`` alone: a name counts as used where the module reads
it, and in ``__init__`` where ``__all__`` exports it."""

import ast
from pathlib import Path

import pytest

import predsim

MODULES = sorted(Path(predsim.__file__).parent.glob("*.py"))


def _imported(tree):
    """Each name an import binds, with the line of its import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    """The names the module's ``__all__`` exports."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return exported


def _read(tree):
    """The names the module reads, and those its ``__all__`` exports."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _read(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def _defined(tree):
    """Each module-level function, class or constant, with its line."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def _loaded(tree):
    """The names a module reads, as a name or an attribute, and those its
    ``__all__`` exports."""
    return _exported(tree) | {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_package_reads_every_private_name():
    # Every private name, and every name of a private module, is read
    # somewhere in the package: a helper or constant nothing reads is dead.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    read = set().union(*map(_loaded, trees.values()))
    unread = [
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in _defined(tree)
        if not name.startswith("__")
        and (name.startswith("_") or module.startswith("_") and module != "__init__.py")
        and name not in read
    ]
    assert not unread, f"defined but never read: {', '.join(unread)}"
