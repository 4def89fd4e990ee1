"""Every module of ``predsim`` uses each name it imports, the package
reads each of its private names, and the suite reads each of its shared
helpers.

Checked from ``conftest.read_source`` alone: a name counts as used where
the module reads it, and in ``__init__`` where ``__all__`` exports it."""

from pathlib import Path

import pytest

import predsim

from conftest import TESTS, read_source

MODULES = sorted(Path(predsim.__file__).parent.glob("*.py"))
TEST_MODULES = sorted(path.stem for path in TESTS.glob("*.py"))


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


def test_suite_reads_every_shared_helper():
    # Every function, class and constant of the shared test modules is
    # read in its own module or in one that imports it from there, and a
    # fixture where a test names it as a parameter.
    sources = {module: read_source(module, folder=TESTS) for module in TEST_MODULES}
    fixtures = set().union(*(source.parameters for source in sources.values()))
    read = set()
    for reader, source in sources.items():
        read |= {(reader, name) for name in source.loaded}
        read |= {(module, name) for module, name, bound, _ in source.imports if bound in source.loaded}
    unread = [
        f"{module}: {name} (line {line})"
        for module in ("conftest", "oracles")
        for name, line in sources[module].defined
        if (module, name) not in read and name not in fixtures
    ]
    assert not unread, f"defined but never read: {', '.join(unread)}"
