"""Property tests for the three file formats.

Round trips: a corpus written by ``write_predications_file`` reloads to an
equal corpus, and a formatted predication or pattern literal parses back.
Adversarial lines: text built from CRLF and LF endings, a byte-order
mark, ``#`` comments, blank lines, identifiers holding a tab, ``|``,
``\\r`` or ``?`` and, in a file, a byte that is not UTF-8 must either
load to the records that the format's rules below give, or raise
``LoadError`` naming the line where those rules first fail.  The rules
are written out here independently of the loaders.
"""

import gc
import re
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from predsim import (
    Corpus,
    Hierarchy,
    LoadError,
    Predication,
    PredicationPattern,
    format_pattern,
    format_predication,
    load_gold_file,
    load_hierarchy_file,
    load_predications_file,
    parse_gold,
    parse_hierarchy,
    parse_pattern,
    parse_predication,
    parse_predications,
    write_predications_file,
)
from predsim import _input

# The example budget comes from the loaded profile (tests/conftest.py).
SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

# -- the format rules -------------------------------------------------------


class Rejected(Exception):
    """The rules reject line ``lineno`` (None: no data line at all)."""

    def __init__(self, lineno):
        self.lineno = lineno


def _plain_id(value: str) -> bool:
    return value != "" and not set(value) & set("\t\r\n")


def _slot_id(value: str) -> bool:
    return _plain_id(value) and "|" not in value and value != "?"


def data_lines(lines):
    """(line number, fields) of every line that is not blank or a comment."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if line.strip() == "" or line.lstrip().startswith("#"):
            continue
        yield lineno, line.split("\t")


def predication_rules(lines):
    docs = {}
    for lineno, fields in data_lines(lines):
        if len(fields) != 4:
            raise Rejected(lineno)
        doc, *slots = fields
        if not _plain_id(doc) or not all(map(_slot_id, slots)):
            raise Rejected(lineno)
        docs.setdefault(doc, set()).add(tuple(slots))
    if not docs:
        raise Rejected(None)
    return docs


def hierarchy_rules(lines):
    edges = set()
    for lineno, fields in data_lines(lines):
        if len(fields) != 2 or not all(map(_plain_id, fields)) or fields[0] == fields[1]:
            raise Rejected(lineno)
        edges.add(tuple(fields))
    return edges


def gold_rules(lines):
    ranked = {}
    for lineno, fields in data_lines(lines):
        if len(fields) != 3:
            raise Rejected(lineno)
        seed, related, rank_text = fields
        try:
            rank = int(rank_text)
        except ValueError:
            raise Rejected(lineno) from None
        ranks = ranked.setdefault(seed, {})
        if not (_plain_id(seed) and _plain_id(related)) or rank < 1 or seed == related:
            raise Rejected(lineno)
        if rank in ranks or related in ranks.values():
            raise Rejected(lineno)
        ranks[rank] = related
    if not ranked:
        raise Rejected(None)
    return {seed: tuple(r[k] for k in sorted(r)) for seed, r in ranked.items()}


# -- what the loaders give, in the same terms --------------------------------


def corpus_records(corpus):
    return {
        doc: {(p.subject, p.relation, p.object) for p in corpus[doc]}
        for doc in corpus.doc_ids()
    }


def quiet(load):
    def run(arg):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # cycles are allowed
            return load(arg)

    return run


FORMATS = {
    "predications": (4, predication_rules, parse_predications, load_predications_file,
                     corpus_records),
    "hierarchy": (2, hierarchy_rules, quiet(parse_hierarchy), quiet(load_hierarchy_file),
                  lambda h: set(h.edges)),
    "gold": (3, gold_rules, parse_gold, load_gold_file, lambda g: dict(g)),
}

LINE_NUMBER = re.compile(r": line (\d+): ")


def outcome(load, arg, view):
    """The loaded records, or the line number the LoadError names."""
    try:
        return "loaded", view(load(arg))
    except LoadError as err:
        found = LINE_NUMBER.search(str(err))
        return "rejected", int(found.group(1)) if found else None


def expected(rules, lines):
    try:
        return "loaded", rules(lines)
    except Rejected as rejected:
        return "rejected", rejected.lineno


# -- strategies ---------------------------------------------------------------

PLAIN = ["a", "b", "c", "A1", "x y", "1", "2", "#x", " a"]
ADVERSARIAL = ["", "?", "a|b", "a\tb", "a\rb", "|", "0", "-1", "\ufeffa"]
fields = st.sampled_from(PLAIN + ADVERSARIAL)
ENDINGS = st.sampled_from(["\n", "\r\n"])


def record_lines(n_fields):
    record = st.integers(n_fields - 1, n_fields + 1).flatmap(
        lambda k: st.lists(fields, min_size=k, max_size=k).map("\t".join)
    )
    clean = st.lists(st.sampled_from(PLAIN), min_size=n_fields, max_size=n_fields).map(
        "\t".join
    )
    # Blank lines and comments, some with as many tabs as a data line,
    # after white space that is neither a blank nor ASCII.
    filler = st.sampled_from(["", "  ", "\t", "# comment", "  # indented\tcomment", "#",
                              "\x1c#\ta\tb\tc", "\x85 #\ta\tb\tc", "\u3000\t\t\t"])
    return st.lists(
        st.tuples(st.one_of(clean, clean, record, filler), ENDINGS), max_size=12
    ).map(lambda pairs: [line + end for line, end in pairs])


# -- tests ---------------------------------------------------------------------


# A byte that is not UTF-8, as the text layer escapes it.
BAD_CHARACTER = re.compile("[\udc80-\udcff]")


def expected_from_file(rules, data):
    """What the rules give for the lines of a file's bytes, or the first
    line holding a byte that is not UTF-8 if no line before it is rejected.
    One leading BOM is dropped and a lone \\r ends a line, as in any text
    file read with universal newlines."""
    text = data.decode("utf-8-sig", "surrogateescape")
    lines = [part + "\n" for part in re.split(r"\r\n|\r|\n", text)]
    bad = next((k for k, line in enumerate(lines, 1) if BAD_CHARACTER.search(line)), None)
    if bad is None:
        return expected(rules, lines)
    found = expected(rules, lines[:bad - 1])
    return found if found[0] == "rejected" and found[1] is not None else ("rejected", bad)


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_adversarial_lines_follow_the_format_rules(name, tmp_path, monkeypatch):
    n_fields, rules, parse, load_file, view = FORMATS[name]
    path = tmp_path / f"{name}.tsv"
    # The readers tokenize blocks of lines; a file is read a chunk of
    # characters at a time and cut into blocks.  Blocks of one and two lines
    # split runs of comments, put a bad line in a later block than a good one
    # and make names recur across blocks.  Chunks of a few characters put a
    # \r\n, a BOM, a character of several bytes, a comment run and a byte
    # that is not UTF-8 across reads.
    block_sizes = (1, 2, _input.BLOCK_LINES)
    chunk_sizes = (1, 2, 3, 7, _input._CHUNK_CHARS)

    @SETTINGS
    @given(record_lines(n_fields), st.booleans(), st.booleans(),
           st.one_of(st.none(), st.none(), st.integers(0, 1 << 12)))
    def check(lines, bom, open_end, bad_at):
        if open_end and lines:  # the last line without its break
            lines[-1] = lines[-1].rstrip("\r\n")
        text = ("\ufeff" if bom else "") + "".join(lines)
        data = text.encode("utf-8")
        if bad_at is not None:  # a byte that starts no UTF-8 sequence
            bad_at %= len(data) + 1
            data = data[:bad_at] + b"\xff" + data[bad_at:]
        path.write_bytes(data)
        from_file = expected_from_file(rules, data)
        for size in block_sizes:
            with monkeypatch.context() as patch:
                patch.setattr(_input, "BLOCK_LINES", size)
                # Given as lines, every character stays where it is, a BOM too.
                assert outcome(parse, lines, view) == expected(rules, lines)
                for chunk in chunk_sizes:
                    patch.setattr(_input, "_CHUNK_CHARS", chunk)
                    assert outcome(load_file, path, view) == from_file, (size, chunk)

    check()


IDENTIFIERS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r|"),
    min_size=1,
    max_size=6,
)
# the sampled lists start lines that read back as blank, as a comment or
# without their BOM, and hold a lone surrogate, which UTF-8 cannot encode
DOC_IDS = st.one_of(IDENTIFIERS, st.sampled_from(["#d", " #d", "\ufeffd", " ", "\x0b", "d\udc80"]))
SLOTS = st.one_of(IDENTIFIERS, st.sampled_from(["#s", " ", "\ud800"])).filter(lambda s: s != "?")


def reads_back(line: str) -> bool:
    head = line.lstrip()
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return head != "" and not head.startswith("#") and not line.startswith("\ufeff")


@SETTINGS
@given(
    st.dictionaries(
        DOC_IDS,
        st.lists(st.tuples(SLOTS, SLOTS, SLOTS), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    )
)
def test_write_then_parse_round_trips(tmp_path, docs):
    records = [(doc, *triple) for doc, triples in docs.items() for triple in triples]
    corpus = Corpus(records)
    path = tmp_path / "round.tsv"
    if not all(reads_back("\t".join(record)) for record in records):
        with pytest.raises(ValueError, match="would not read back"):
            write_predications_file(corpus, path)
        return
    write_predications_file(corpus, path)
    again = load_predications_file(path)
    assert again == corpus
    assert corpus_records(again) == {doc: set(triples) for doc, triples in docs.items()}
    assert again.stats.duplicates_dropped == 0
    with open(path, encoding="utf-8") as handle:
        assert parse_predications(handle) == corpus


# -- the block reader against the record reader ---------------------------------

# Names that cross the block reader's 8-byte words: non-ASCII, longer than
# 8 bytes, holding a NUL (so "a" and "a\x00" must differ) or a lone
# surrogate, which a line given in memory may hold; and a few that fail
# their checks, so that the first error must come out the same.
NAMES = st.one_of(
    st.text(alphabet=st.characters(blacklist_characters="\t\n\r"), min_size=1, max_size=10),
    st.sampled_from(["a", "a\x00", "\x00", "abcdefgh", "abcdefghi", "abcdefgh\x00",
                     "\xe9\xe9\xe9\xe9\xe9", "\ud800", "a\udc80b", "\U0001f600", "?", "a|b", ""]),
)


def same_corpus(a, b):
    assert a.doc_ids() == b.doc_ids()
    assert a.concept_names == b.concept_names
    assert a.relation_names == b.relation_names
    for name in ("subjects", "relations", "objects", "predication_codes", "doc_offsets"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tolist() == y.tolist(), name
    assert a.stats == b.stats


def built(build, *args):
    """The corpus, or the LoadError message with "line" read as "record"."""
    try:
        return build(*args)
    except LoadError as err:
        return str(err).replace(": line ", ": record ", 1)


def warned(build, *args):
    """:func:`built`, and the text of each warning raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = built(build, *args)
    return result, [str(warning.message) for warning in caught]


def same_hierarchy(a, b):
    assert a._names == b._names
    assert list(a._numbers.items()) == list(b._numbers.items())
    assert a._parent_starts == b._parent_starts and a._parent_nodes == b._parent_nodes
    assert a._height.dtype == b._height.dtype and a._height.tolist() == b._height.tolist()
    assert (a.edge_count, a.source) == (b.edge_count, b.source)


# A few short names recur, so that edges repeat, close cycles and loop on
# themselves.
EDGE_NAMES = st.one_of(NAMES, st.sampled_from(["a", "b", "c"]))


SURROGATE = re.compile("[\ud800-\udfff]")


def written(records, path):
    """The records that are data lines and that a UTF-8 file holds as
    given, each written to ``path`` as a line.  A name holding a lone
    surrogate, which UTF-8 cannot encode, is left out, and so is a first
    field that begins with the byte-order mark the file reader drops."""
    kept = [
        record for record in records
        if list(data_lines(["\t".join(record)]))
        and not SURROGATE.search("".join(record)) and not record[0].startswith("\ufeff")
    ]
    path.write_bytes("".join("\t".join(record) + "\n" for record in kept).encode("utf-8"))
    return kept


def same_load(got, want, same):
    """Both are the same error message, or ``same`` holds of them."""
    if isinstance(want, str):
        assert got == want
    else:
        same(got, want)


# The records read one at a time against the same records as lines given
# in memory, which keep every drawn name, lone surrogates included.  Lines
# given in memory go to the per-record loop, not the block path; the file
# tests below read the same records in blocks.
@SETTINGS
@given(st.lists(st.tuples(NAMES, NAMES, NAMES, NAMES), max_size=12))
def test_lines_given_in_memory_equal_records(records):
    # Records whose line reads as blank or a comment are not data lines.
    records = [r for r in records if list(data_lines(["\t".join(r)]))]
    lines = ["\t".join(record) + "\n" for record in records]
    same_load(built(parse_predications, lines, "s"), built(Corpus, records, "s"), same_corpus)


@SETTINGS
@given(st.lists(st.tuples(EDGE_NAMES, EDGE_NAMES), max_size=12))
def test_hierarchy_lines_given_in_memory_equal_edges(edges):
    edges = [edge for edge in edges if list(data_lines(["\t".join(edge)]))]
    lines = ["\t".join(edge) + "\n" for edge in edges]
    from_lines, lines_warned = warned(parse_hierarchy, lines, "s")
    from_records, records_warned = warned(Hierarchy, edges, "s")
    assert lines_warned == records_warned
    same_load(from_lines, from_records, same_hierarchy)


# The same records as a file, which the block path reads in blocks of 1,
# 3 or BLOCK_LINES lines.  The file keeps the names written() admits.
@SETTINGS
@given(st.lists(st.tuples(NAMES, NAMES, NAMES, NAMES), max_size=12), st.sampled_from([1, 3, None]))
def test_file_block_path_equals_record_path(tmp_path, monkeypatch, records, size):
    path = tmp_path / "predications.tsv"
    records = written(records, path)
    with monkeypatch.context() as patch:
        if size is not None:
            patch.setattr(_input, "BLOCK_LINES", size)
        from_file = built(load_predications_file, path)
    same_load(from_file, built(Corpus, records, str(path)), same_corpus)


@SETTINGS
@given(st.lists(st.tuples(EDGE_NAMES, EDGE_NAMES), max_size=12), st.sampled_from([1, 3, None]))
def test_hierarchy_file_block_path_equals_record_path(tmp_path, monkeypatch, edges, size):
    path = tmp_path / "hierarchy.tsv"
    edges = written(edges, path)
    with monkeypatch.context() as patch:
        if size is not None:
            patch.setattr(_input, "BLOCK_LINES", size)
        from_file, file_warned = warned(load_hierarchy_file, path)
    from_records, records_warned = warned(Hierarchy, edges, str(path))
    assert file_warned == records_warned
    same_load(from_file, from_records, same_hierarchy)


# Every place where the block path refuses a block.  A new name that
# fails its check, in each table and slot: a block's fields hold no tab or
# line break, so these are the failures left.  A self-loop is the last.
BAD_RECORDS = {
    "predications": [
        ("", "s", "r", "o"), ("d", "", "r", "o"), ("d", "s", "", "o"), ("d", "s", "r", ""),
        ("d", "s|", "r", "o"), ("d", "s", "|", "o"), ("d", "s", "r", "a|o"),
        ("d", "?", "r", "o"), ("d", "s", "?", "o"), ("d", "s", "r", "?"),
    ],
    "hierarchy": [("", "p"), ("c", ""), ("x", "x")],
}
# The other refusals, each as the line put in a block, apart from a block
# of comments and blanks only, and lines that fail to be read part-way
# through a block.  Two names longer than 8 bytes share a block key (see
# test_names_of_equal_block_keys_load_as_records).  The cases after the
# field count are lines given in memory only, which the per-record loop
# reads: in a file, a \r ends a line.
REFUSED_LINES = {
    "predications": {
        "equal-keys": "d\taaaaaaaab\tr\tdaaaaaaaa\n",
        "field-count": "d\ts\tr\n",
        "not-str": None,
        "cr-in-field": "d\ts\rt\tr\to\n",
        "cr-in-comment": "# a\rb\n",
        "break-in-comment": "# a\nd\ts\tr\to\n",
    },
    "hierarchy": {
        "equal-keys": "aaaaaaaab\tdaaaaaaaa\n",
        "field-count": "c\tp\tq\n",
        "not-str": b"c\tp\n",
        "cr-in-field": "c\rx\tp\n",
        "cr-in-comment": "# a\rb\n",
        "break-in-comment": "# a\nc\tp\n",
    },
}
FROM_FILES = {"comment-block", "equal-keys", "field-count"}
REFUSALS = [
    pytest.param(name, bad, id=f"{name}-bad{k}")
    for k, (name, bad) in enumerate(
        (name, bad) for name, records in BAD_RECORDS.items() for bad in records
    )
] + [
    pytest.param(name, case, id=f"{name}-{case}")
    for name in REFUSED_LINES
    for case in ["comment-block", *REFUSED_LINES[name], "read-fails"]
]
# The test's blocks: three of this many lines.
SMALL_BLOCK = 5
# A block of comments and blanks only, some with as many tabs as a data line.
COMMENT_BLOCK = ["# c\tc\tc\n", "\n", "  # c\n", "\t\t\t\n", "#\n"]


def _read(read, arg):
    """The corpus or hierarchy, or the error's type and text, and the text
    of each warning.  Refused is not caught: it must not escape a load,
    not even as the context of its error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = read(arg)
        except (LoadError, OSError) as err:
            result = type(err).__name__, str(err)
            while err is not None:
                assert not isinstance(err, _input.Refused)
                err = err.__context__
    return result, [str(warning.message) for warning in caught]


def _failing_read(lines, at):
    yield from lines[:at]
    raise OSError("read failed")


@pytest.mark.parametrize("name, bad", REFUSALS)
@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_bad_new_name_in_a_full_block(name, bad, at, tmp_path, monkeypatch):
    # Each refusal in the first, a middle and the last of three blocks,
    # read from lines and from a file, gives what the per-record loop
    # gives for every block: the same corpus or hierarchy, or the same
    # error at the same line, and the same warnings.
    size = SMALL_BLOCK
    if name == "predications":
        parse, load_file, build = parse_predications, load_predications_file, Corpus
        records = [(f"d{k % 3}", f"s{k % 4}", "r", f"o{k}") for k in range(3 * size)]
        same = same_corpus
    else:
        parse, load_file, build = parse_hierarchy, load_hierarchy_file, Hierarchy
        records = [(f"c{k}", f"p{k % 4}") for k in range(3 * size)]
        records[3] = ("p0", "c0")  # a cycle, which warns
        same = same_hierarchy
    block = {"first": 0, "middle": 1, "last": 2}[at]
    place = block * size + {"first": 0, "middle": size // 2, "last": size - 1}[at]
    lines = ["\t".join(record) + "\n" for record in records]
    if isinstance(bad, tuple):
        records[place] = bad
        lines[place] = "\t".join(bad) + "\n"
    elif bad == "comment-block":
        lines[block * size:(block + 1) * size] = COMMENT_BLOCK
    elif bad != "read-fails":
        lines[place] = REFUSED_LINES[name][bad]
    path = tmp_path / "input.tsv"
    inputs = {"lines": lambda: lines}
    if bad == "read-fails":
        inputs = {"lines": lambda: _failing_read(lines, place)}
    elif isinstance(bad, tuple) or bad in FROM_FILES:
        path.write_text("".join(lines), encoding="utf-8")
        inputs["file"] = lambda: path
    read_as_records = []
    record_reader = _input.line_records

    def line_records(lines, n_fields, source, first=1):
        read_as_records.append(first)
        return record_reader(lines, n_fields, source, first)

    def refuse(block, n_fields):
        raise _input.Refused

    for kind, given in inputs.items():
        read = parse if kind == "lines" else load_file
        with monkeypatch.context() as patch:
            patch.setattr(_input, "BLOCK_LINES", size)
            patch.setattr(_input, "line_records", line_records)
            read_as_records.clear()
            result, warned = _read(read, given())
            if kind == "lines":  # lines given in memory are read in one record pass
                assert read_as_records == [1]
            else:
                assert read_as_records == [block * size + 1], kind
            patch.setattr(_input, "_tokenize", refuse)
            want, want_warned = _read(read, given())
        assert warned == want_warned, kind
        if isinstance(want, tuple):
            assert result == want, kind
        else:
            same(result, want)
    if isinstance(bad, tuple):  # and the records themselves, read one at a time
        message = built(parse, lines, "s")
        assert message == built(build, records, "s")
        assert message.startswith(f"s: record {place + 1}: ")


@pytest.mark.parametrize("name", ["predications", "hierarchy"])
def test_file_lines_become_no_str(name, tmp_path, monkeypatch):
    # A file's blocks are cut from the UTF-8 of its chunks of text: no line
    # is joined, and a block's lines are decoded only if the block path
    # refuses it, which it does not here.  CRLF endings, a BOM, comments
    # and characters of several bytes cross the blocks and the chunks.
    n_fields, _, parse, load_file, view = FORMATS[name]
    lines = [
        "\t".join(f"caf\u00e9{k}-{j}" for j in range(n_fields)) + ("\r\n" if k % 3 else "\n")
        for k in range(5_000)
    ]
    lines[::700] = ["# a comment\n"] * len(lines[::700])
    path = tmp_path / f"{name}.tsv"
    path.write_bytes(("\ufeff" + "".join(lines)).encode("utf-8"))
    want = view(parse(lines))

    def lines_of(data):
        raise AssertionError("a block's lines decoded")

    monkeypatch.setattr(_input, "_lines", lines_of)
    monkeypatch.setattr(_input, "_CHUNK_CHARS", 1_000)
    assert view(load_file(path)) == want


@pytest.mark.parametrize("name", ["predications", "hierarchy"])
def test_only_files_are_tokenized(name, tmp_path, monkeypatch):
    # Lines given in memory go straight to the per-record loop; the lines
    # of a file holding the same text are tokenized, a block at a time.
    n_fields, _, parse, load_file, view = FORMATS[name]
    lines = ["\t".join(f"n{k}-{j}" for j in range(n_fields)) + "\n" for k in range(10)]
    path = tmp_path / f"{name}.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    tokenize = _input._tokenize
    tokenized = []

    def refuse(block, n_fields):
        raise AssertionError("lines given in memory tokenized")

    def counted(block, n_fields):
        tokenized.append(block.first)
        return tokenize(block, n_fields)

    with monkeypatch.context() as patch:
        patch.setattr(_input, "_tokenize", refuse)
        want = view(parse(lines))
    assert len(want) == len(lines)
    monkeypatch.setattr(_input, "BLOCK_LINES", 4)
    monkeypatch.setattr(_input, "_tokenize", counted)
    assert view(load_file(path)) == want
    assert tokenized == [1, 5, 9]


# Lines given in memory are never cut into blocks.
def test_line_break_inside_a_line_given_in_memory():
    # Inside a comment it is part of the comment.
    corpus = parse_predications(["d\ta\tr\tb\n", "# note\nd\tx\tr\ty\n", "d\ta\tr\tc\n"])
    same_corpus(corpus, Corpus([("d", "a", "r", "b"), ("d", "a", "r", "c")]))
    # Inside a data line it is in a field, which no check passes.
    with pytest.raises(LoadError) as raised:
        parse_predications(["d\ta\tr\tb\n", "d\ta\nb\tr\tc\n"], "m")
    assert str(raised.value) == "m: line 2: predication: subject contains a forbidden character"


# -- text that is not UTF-8 ----------------------------------------------------

GOOD_LINES = {
    "hierarchy": (load_hierarchy_file, "c{k}\tparent"),
    "predications": (load_predications_file, "d{k}\tA\tR\tB"),
    "gold": (load_gold_file, "s{k}\tr\t1"),
}
# A byte that starts no UTF-8 sequence, an encoded surrogate, and a
# sequence cut short by the end of its line.
BAD_BYTES = (b"\xff", b"\xed\xa0\x80", b"\xe2\x82")


def _bad_file(path, name, lines, bad_at, bad, ending=b"\n", bom=False):
    """``lines`` good lines of the format, each naming its number, the
    one numbered ``bad_at`` holding ``bad`` in its last field."""
    good = GOOD_LINES[name][1]
    rows = [good.format(k=k).encode("utf-8") for k in range(1, lines + 1)]
    rows[bad_at - 1] += bad
    path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + b"".join(row + ending for row in rows))
    return path


@pytest.mark.parametrize("name", sorted(GOOD_LINES))
@pytest.mark.parametrize("bad", BAD_BYTES)
def test_bad_byte_names_its_line(name, bad, tmp_path):
    path = _bad_file(tmp_path / f"{name}.tsv", name, 3, 2, bad)
    with pytest.raises(LoadError) as raised:
        GOOD_LINES[name][0](path)
    assert str(raised.value) == f"{path}: line 2: not valid UTF-8"


@pytest.mark.parametrize("name", sorted(GOOD_LINES))
def test_bad_byte_past_the_first_chunk(name, tmp_path):
    # 3,000 lines of at least 9 bytes: the bad byte lies far past the
    # first 8 KiB that a text reader decodes at once.
    path = _bad_file(tmp_path / f"{name}.tsv", name, 3000, 2999, b"\xff", bom=True)
    assert path.stat().st_size > 2 * 8192
    with pytest.raises(LoadError) as raised:
        GOOD_LINES[name][0](path)
    assert str(raised.value) == f"{path}: line 2999: not valid UTF-8"


@pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
def test_bad_byte_line_counts_every_line_break(ending, tmp_path):
    # A lone \r ends a line too, as the loaders read text.
    path = _bad_file(tmp_path / "corpus.tsv", "predications", 5, 4, b"\xff", ending)
    with pytest.raises(LoadError) as raised:
        load_predications_file(path)
    assert str(raised.value) == f"{path}: line 4: not valid UTF-8"


def test_bad_line_before_a_bad_byte_in_the_same_block(tmp_path):
    # The predications reader reads up to BLOCK_LINES lines before it checks
    # any.  A bad byte 2,000 lines on stops that read, and the lines read
    # before it are checked first, as a reader of one line at a time would.
    path = _bad_file(tmp_path / "corpus.tsv", "predications", 2100, 2000, b"\xff")
    lines = path.read_bytes().split(b"\n")
    lines[4] = b"d5\t?\tR\tB"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(LoadError) as raised:
        load_predications_file(path)
    assert str(raised.value) == (
        f"{path}: line 5: predication: subject may not be the reserved token '?'"
    )


@pytest.mark.parametrize("name", sorted(GOOD_LINES))
@pytest.mark.parametrize("bad", [b"\xff", b"\t"])  # a bad byte, a field too many
def test_error_part_way_through_a_file_leaves_it_closed(name, bad, tmp_path):
    # The error comes at line 2,999 of 3,000, where the reader has raised
    # or is left suspended; a file left open warns when it is collected.
    path = _bad_file(tmp_path / f"{name}.tsv", name, 3000, 2999, bad)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(LoadError, match=r": line 2999: "):
            GOOD_LINES[name][0](path)
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_bad_byte_in_a_comment(tmp_path):
    # A comment is skipped only once decoded, so its bytes must be UTF-8 too.
    path = tmp_path / "concepts.tsv"
    path.write_bytes(b"a\tb\n# caf\xe9\nb\tc\n")
    with pytest.raises(LoadError) as raised:
        load_hierarchy_file(path)
    assert str(raised.value) == f"{path}: line 2: not valid UTF-8"


# -- predication and pattern literals --------------------------------------------

LITERAL_SLOTS = ("subject", "relation", "object")


def literal_problem(text, wildcards):
    """The first problem the literal syntax finds in ``text``, or None."""
    fields = text.split("|")
    if len(fields) != 3:
        return f"expected 3 fields, got {len(fields)}"
    for field, slot in zip(fields, LITERAL_SLOTS):
        if field == "?":
            if not wildcards:
                return f"wildcard {slot} not allowed here"
        elif field == "":
            return f"empty {slot}"
        elif set(field) & set("\t\n\r"):
            return f"{slot} contains a forbidden character"
    return None


# Slots that fail their check, or, holding "|", change the field count.
LITERAL_FIELDS = st.one_of(
    IDENTIFIERS, st.sampled_from(["?", "", "a\tb", "\r", "\n", "a|b", "|", " ", "#"])
)


@SETTINGS
@given(st.lists(LITERAL_FIELDS, min_size=1, max_size=4))
def test_literals_follow_the_literal_syntax(fields):
    text = "|".join(fields)
    for kind, parse, wildcards in (
        ("predication", parse_predication, False), ("pattern", parse_pattern, True)
    ):
        problem = literal_problem(text, wildcards)
        if problem is None and kind == "pattern" and text == "?|?|?":
            problem = "pattern must bind at least one slot"  # the pattern's own rule
        elif problem is not None:
            problem = f"{kind} literal {text!r}: {problem}"
        try:
            parsed = parse(text)
        except LoadError as err:
            assert str(err) == problem
            continue
        assert problem is None
        slots = [None if field == "?" else field for field in text.split("|")]
        if kind == "predication":
            # No slot is a wildcard here, and both parsers read the same slots.
            assert parsed == Predication(*slots)
            assert format_predication(parsed) == text
            assert parse_pattern(text) == PredicationPattern(*slots)
        else:
            assert parsed == PredicationPattern(*slots)
            assert format_pattern(parsed) == text
