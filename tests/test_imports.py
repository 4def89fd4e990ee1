"""Every module of ``predsim`` uses each name it imports, and the package
reads each of its private names.

Checked from ``conftest.read_source`` alone: a name counts as used where
the module reads it, and in ``__init__`` where ``__all__`` exports it."""

from pathlib import Path

import pytest

import predsim

from conftest import read_source

MODULES = sorted(Path(predsim.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    source = read_source(path.stem)
    used = source.names | source.exported
    unused = [
        f"{name} (line {line})" for module, _, name, line in source.imports
        if module != "__future__" and name not in used
    ]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_package_reads_every_private_name():
    # Every private name, and every name of a private module, is read
    # somewhere in the package: a helper or constant nothing reads is dead.
    sources = {path.name: read_source(path.stem) for path in MODULES}
    read = set().union(*(s.exported | s.attributes | s.loaded for s in sources.values()))
    unread = [
        f"{module}: {name} (line {line})"
        for module, source in sources.items()
        for name, line in source.defined
        if not name.startswith("__")
        and (name.startswith("_") or module.startswith("_") and module != "__init__.py")
        and name not in read
    ]
    assert not unread, f"defined but never read: {', '.join(unread)}"
