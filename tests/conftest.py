import ast
import contextlib
import functools
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import settings

import predsim
from predsim import Corpus, Hierarchy, RetrievalEngine, retrieval
from predsim.cli import main

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = Path(predsim.__file__).parent

# Tier-1 draws a fixed 150 examples per property test.  HYPOTHESIS_PROFILE=ci
# draws 2,000, in CI's one run of the whole suite on every leg, so that
# the file-format and literal properties of tests/test_formats.py, whose
# line blocks, chunk boundaries, comment runs and recurring names need
# many draws to meet, and the sorted-key properties of
# tests/test_arrays.py reach rare draws.  The profile sets the example
# count only: both files set deadline=None themselves.
settings.register_profile("tier1", max_examples=150)
settings.register_profile("ci", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

# Hand-enumerated concept fixture.  Ancestor sets:
#   C1 -> {C1, A, R}        C2 -> {C2, A, R}         (siblings: 2/4 = 0.5)
#   OA -> {OA, U1, U2, X1, X2, X3}                   (6 members)
#   OB -> {OB, V1, V2, V3, X1, X2, X3}               (7 members; overlap 3 -> 0.3)
#   D1 -> {D1, E1}                                   (disjoint from the rest)
CONCEPT_EDGES = [
    ("C1", "A"),
    ("C2", "A"),
    ("A", "R"),
    ("OA", "U1"),
    ("U1", "U2"),
    ("U2", "X1"),
    ("X1", "X2"),
    ("X2", "X3"),
    ("OB", "V1"),
    ("V1", "V2"),
    ("V2", "V3"),
    ("V3", "X1"),
    ("D1", "E1"),
]

# TREATS/PREVENTS/CAUSES are siblings under AFFECTS -> RELATED:
#   sim(TREATS, PREVENTS) = |{AFFECTS, RELATED}| / 4 = 0.5
RELATION_EDGES = [
    ("TREATS", "AFFECTS"),
    ("PREVENTS", "AFFECTS"),
    ("CAUSES", "AFFECTS"),
    ("AFFECTS", "RELATED"),
]


@pytest.fixture
def concept_h():
    return Hierarchy(CONCEPT_EDGES, source="concept-fixture")


@pytest.fixture
def relation_h():
    return Hierarchy(RELATION_EDGES, source="relation-fixture")


@pytest.fixture
def small_corpus():
    return Corpus(
        [
            ("d1", "C1", "TREATS", "OA"),
            ("d1", "C1", "CAUSES", "D1"),
            ("d2", "C1", "TREATS", "OA"),
            ("d2", "C1", "CAUSES", "D1"),
            ("d3", "C2", "TREATS", "OB"),
            ("d4", "D1", "PREVENTS", "E1"),
        ],
        source="corpus-fixture",
    )


@pytest.fixture
def engine(concept_h, relation_h):
    return RetrievalEngine(concept_h, relation_h)


@pytest.fixture
def cli(capsys):
    """Run ``predsim.cli.main`` on a list of arguments; return its exit
    code and what it wrote to stdout and to stderr."""

    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    return run


def run_python(*args):
    """Run ``python *args`` in a child of this interpreter, from the
    repository root with ``src`` first on its path, and return the
    finished process, its output read as UTF-8.  The child runs under
    this interpreter's dev mode, default-encoding warnings and ``-W``
    options, so CI's conditions reach it too."""
    flags = ["-X", "dev"] if sys.flags.dev_mode else []
    if sys.flags.warn_default_encoding:
        flags += ["-X", "warn_default_encoding"]
    flags += [f"-W{option}" for option in sys.warnoptions]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, *args], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, encoding="utf-8", timeout=120,
    )


def quiet(load):
    """``load``, taking one argument, with the warning a cycle raises
    ignored: the caller means the cycle."""

    def run(arg):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return load(arg)

    return run


def spy(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that each call runs as before and is
    recorded, and return the list of ``(args, result)`` of the calls in
    order; a method's ``args`` begin with its instance.  The list holds
    the arguments, so a wrapper that must not keep them stays hand-written."""
    original = getattr(owner, name)
    calls = []

    def recorded(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, name, recorded)
    return calls


@contextlib.contextmanager
def fast_switching():
    """Make threads switch as often as the interpreter lets them, for the
    block."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def stub_sim(table: dict, default: float = 0.0):
    """Similarity source backed by an unordered pair table; identity is 1."""

    def sim(a, b):
        if a == b:
            return 1.0
        return table.get((a, b), table.get((b, a), default))

    return sim


@contextlib.contextmanager
def traced_memory():
    """Trace allocations for the block, and yield a reader of the bytes
    held and the traced peak since entry.  It is the suite's one
    ``tracemalloc`` session: a caller that measures a load or a call runs
    it once untraced first, since numpy's first calls allocate caches."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]

        def memory():
            held, peak = tracemalloc.get_traced_memory()
            return held - start, peak - start

        yield memory
    finally:
        tracemalloc.stop()


class Source(NamedTuple):
    """What the code of a module, or of one ``def`` in it, reads and
    defines, as :func:`read_source` finds it."""

    names: frozenset  # every name it reads or binds
    loaded: frozenset  # the names it reads
    parameters: frozenset  # the parameter names of each def inside it
    attributes: frozenset
    imports: tuple  # (from module, or None for ``import``; name; bound name; line)
    strings: frozenset  # its string constants, docstrings included
    text: frozenset  # its string constants, docstrings aside
    defined: tuple  # (name, line) of each top-level def, class or assigned name
    exported: frozenset  # what its ``__all__`` exports
    functions: tuple  # (name, Source) of each def inside it, in walk order
    classes: frozenset  # the name of each class inside it

    @property
    def used(self):
        """Its names, attributes, the parts of the names it imports and
        its string constants, docstrings aside."""
        parts = {part for _, name, _, _ in self.imports for part in name.split(".")}
        return self.names | self.attributes | parts | self.text


def _source(code):
    """The :class:`Source` of one parsed module or ``def``."""
    nodes = list(ast.walk(code))
    docstrings = {
        id(node.body[0].value) for node in nodes
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
    }
    names = [node for node in nodes if isinstance(node, ast.Name)]
    strings = [
        node for node in nodes if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    imports = []
    for node in nodes:
        if isinstance(node, ast.Import):
            imports += [(None, alias.name, alias.asname or alias.name.split(".")[0], node.lineno)
                        for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imports += [(node.module or "", alias.name, alias.asname or alias.name, node.lineno)
                        for alias in node.names]
    defined, exported = [], set()
    for node in code.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.name, node.lineno))
        elif isinstance(node, ast.Assign):
            targets = [target.id for target in node.targets if isinstance(target, ast.Name)]
            defined.extend((target, node.lineno) for target in targets)
            if "__all__" in targets:
                exported.update(ast.literal_eval(node.value))
    return Source(
        names=frozenset(node.id for node in names),
        loaded=frozenset(node.id for node in names if isinstance(node.ctx, ast.Load)),
        parameters=frozenset(node.arg for node in nodes if isinstance(node, ast.arg)),
        attributes=frozenset(node.attr for node in nodes if isinstance(node, ast.Attribute)),
        imports=tuple(imports),
        strings=frozenset(node.value for node in strings),
        text=frozenset(node.value for node in strings if id(node) not in docstrings),
        defined=tuple(defined),
        exported=frozenset(exported),
        functions=tuple(
            (node.name, _source(node)) for node in nodes[1:] if isinstance(node, ast.FunctionDef)
        ),
        classes=frozenset(node.name for node in nodes[1:] if isinstance(node, ast.ClassDef)),
    )


@functools.cache
def read_source(module, function=None, folder=PACKAGE):
    """The :class:`Source` of ``predsim``'s module ``module`` (``"corpus"``,
    ``"__init__"``), or of the test module of that name with ``folder``
    ``TESTS``, or of the first ``def`` named ``function`` in it.  It is
    the suite's one reader of source code."""
    if function is not None:
        return next(found for name, found in read_source(module, folder=folder).functions
                    if name == function)
    return _source(ast.parse((folder / f"{module}.py").read_text(encoding="utf-8")))


# Tile sizes, in elements, that move the member chunk and tile
# boundaries: ``retrieval.TILE_ELEMENTS`` bounds both.  On the small
# random cases a member's Jaccard rows are mostly wider than these, so
# most chunks hold one member: tiles of 1 element give each document a
# tile of its own, for queries and for ``find`` alike; tiles of 3
# elements split a corpus part-way and give each document larger than a
# tile a tile of its own; tiles of 16 elements hold several documents.
# Chunks and tiles of several members are checked at the default size and
# by ``test_chunk_rows_stay_within_a_tile``.
KERNEL_SIZES = (1, 3, 16)


def each_kernel_size(monkeypatch):
    """Yield each of ``KERNEL_SIZES`` with ``retrieval.TILE_ELEMENTS`` set
    to it."""
    for tile in KERNEL_SIZES:
        with monkeypatch.context() as patch:
            patch.setattr(retrieval, "TILE_ELEMENTS", tile)
            yield tile
