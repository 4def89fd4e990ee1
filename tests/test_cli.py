import warnings

import pytest

from predsim import parse_gold
from predsim.cli import EXIT_DOMAIN, EXIT_LOAD, EXIT_OK, EXIT_USAGE, _build_parser

from conftest import CONCEPT_EDGES, RELATION_EDGES, ROOT, run_python

CORPUS_LINES = [
    "d1\tC1\tTREATS\tOA",
    "d1\tC1\tCAUSES\tD1",
    "d2\tC1\tTREATS\tOA",
    "d2\tC1\tCAUSES\tD1",
    "d3\tC2\tTREATS\tOB",
    "d4\tD1\tPREVENTS\tE1",
]


@pytest.fixture
def files(tmp_path):
    concepts = tmp_path / "concepts.tsv"
    concepts.write_text(
        "".join(f"{c}\t{p}\n" for c, p in CONCEPT_EDGES), encoding="utf-8"
    )
    relations = tmp_path / "relations.tsv"
    relations.write_text(
        "".join(f"{c}\t{p}\n" for c, p in RELATION_EDGES), encoding="utf-8"
    )
    preds = tmp_path / "predications.tsv"
    preds.write_text("".join(line + "\n" for line in CORPUS_LINES), encoding="utf-8")
    gold = tmp_path / "gold.tsv"
    gold.write_text("d1\td2\t1\nd1\td3\t2\n", encoding="utf-8")
    return {
        "dir": tmp_path,
        "base": [
            "--concepts", str(concepts),
            "--relations", str(relations),
            "--predications", str(preds),
        ],
        "gold": str(gold),
    }


class TestRelated:
    def test_happy_path(self, files, cli):
        code, out, err = cli(["related", *files["base"], "--seed", "d1", "--top", "3"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 3
        scores = []
        for rank, line in enumerate(lines, start=1):
            r, doc_id, score = line.split("\t")
            assert int(r) == rank
            scores.append(float(score))
        assert scores == sorted(scores, reverse=True)
        assert lines[0].startswith("1\td2\t1.000000")
        assert "# corpus: 4 documents" in err

    def test_unknown_seed_exits_2(self, files, cli):
        code, _, err = cli(["related", *files["base"], "--seed", "d99"])
        assert code == EXIT_DOMAIN
        assert "d99" in err

    def test_top_zero_is_usage_error(self, files, cli):
        code, _, err = cli(["related", *files["base"], "--seed", "d1", "--top", "0"])
        assert code == EXIT_USAGE
        assert "positive" in err

    def test_missing_file_exits_1(self, files, cli):
        argv = ["related", "--concepts", str(files["dir"] / "nope.tsv"),
                *files["base"][2:], "--seed", "d1"]
        code, _, err = cli(argv)
        assert code == EXIT_LOAD
        assert "nope.tsv" in err

    def test_file_not_utf8_names_its_line(self, files, cli):
        bad = files["dir"] / "bad.tsv"
        bad.write_bytes(b"d1\tC1\tTREATS\tOA\nd2\t\xffC1\tTREATS\tOA\n")
        argv = ["related", *files["base"][:4], "--predications", str(bad), "--seed", "d1"]
        code, out, err = cli(argv)
        assert code == EXIT_LOAD
        assert out == ""
        assert err == f"predsim: error: {bad}: line 2: not valid UTF-8\n"

    def test_output_file(self, files, cli, tmp_path):
        out_path = tmp_path / "results.tsv"
        code, out, _ = cli(["related", *files["base"], "--seed", "d1", "--output", str(out_path)])
        assert code == EXIT_OK
        assert out == ""
        assert out_path.read_text(encoding="utf-8").startswith("1\td2\t1.000000")


class TestQuery:
    def test_single_predication(self, files, cli):
        code, out, _ = cli(["query", *files["base"], "--pred", "C1|TREATS|OA"])
        assert code == EXIT_OK
        assert len(out.splitlines()) == 4  # no document excluded

    def test_two_predications(self, files, cli):
        code, out, _ = cli(["query", *files["base"], "--pred", "C1|TREATS|OA", "--pred", "C1|CAUSES|D1"])
        assert code == EXIT_OK
        first = out.splitlines()[0].split("\t")
        assert first[1] == "d1"
        assert first[2] == "1.000000"

    def test_malformed_literal_is_usage_error(self, files, cli):
        code, _, err = cli(["query", *files["base"], "--pred", "ASPIRIN|TREATS"])
        assert code == EXIT_USAGE
        assert "ASPIRIN|TREATS" in err

    def test_wildcard_in_query_is_usage_error(self, files, cli):
        code, _, err = cli(["query", *files["base"], "--pred", "?|TREATS|OA"])
        assert code == EXIT_USAGE
        assert "wildcard" in err


class TestFind:
    def test_pattern_listing(self, files, cli):
        code, out, _ = cli(["find", *files["base"], "--pattern", "?|TREATS|OA", "--top", "10"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 4
        rank, literal, score, docs = lines[0].split("\t")
        assert (rank, literal, score, docs) == ("1", "C1|TREATS|OA", "1.000000", "d1,d2")

    def test_top_truncates(self, files, cli):
        code, out, _ = cli(["find", *files["base"], "--pattern", "?|TREATS|OA", "--top", "2"])
        assert code == EXIT_OK
        assert len(out.splitlines()) == 2

    def test_fully_bound_pattern(self, files, cli):
        code, out, _ = cli(["find", *files["base"], "--pattern", "C1|TREATS|OA"])
        assert code == EXIT_OK
        assert out.splitlines()[0].split("\t")[1] == "C1|TREATS|OA"

    def test_all_wildcards_is_usage_error(self, files, cli):
        code, _, err = cli(["find", *files["base"], "--pattern", "?|?|?"])
        assert code == EXIT_USAGE
        assert "at least one slot" in err

    def test_zero_weight_on_all_bound_slots_is_usage_error(self, files, cli):
        code, _, err = cli(["find", *files["base"], "--pattern", "C1|?|?", "--ws", "0"])
        assert code == EXIT_USAGE
        assert "zero weight" in err

    @pytest.mark.parametrize("command", ["related", "query", "find", "eval"])
    def test_weight_sum_that_overflows_refused_before_any_file_is_read(
        self, files, cli, command
    ):
        extra = {
            "related": ["--seed", "d1"],
            "query": ["--pred", "C1|TREATS|OA"],
            "find": ["--pattern", "C1|?|?"],
            "eval": ["--gold", files["gold"]],
        }[command]
        argv = [command, *files["base"][:4], "--predications", str(files["dir"] / "nope.tsv"),
                *extra, "--ws", "1e308", "--wr", "1e308", "--wo", "1e308"]
        code, out, err = cli(argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "weight sum must be finite and positive" in err

    def test_zero_weight_pattern_refused_before_any_file_is_read(self, files, cli):
        argv = ["find", *files["base"][:4], "--predications", str(files["dir"] / "nope.tsv"),
                "--pattern", "C1|?|?", "--ws", "0"]
        code, _, err = cli(argv)
        assert code == EXIT_USAGE
        assert "zero weight" in err


class TestEval:
    def test_sweep_csv(self, files, cli):
        code, out, _ = cli(["eval", *files["base"], "--gold", files["gold"], "--at", "1,2,3"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "n,precision,recall,f_measure"
        assert len(lines) == 4
        assert lines[1].startswith("1,")

    def test_duplicate_cutoffs_collapse(self, files, cli):
        code, out, _ = cli(["eval", *files["base"], "--gold", files["gold"], "--at", "5,5"])
        assert code == EXIT_OK
        assert len(out.splitlines()) == 2

    def test_empty_gold_exits_1(self, files, cli, tmp_path):
        empty = tmp_path / "empty_gold.tsv"
        empty.write_text("# nothing here\n", encoding="utf-8")
        code, _, err = cli(["eval", *files["base"], "--gold", str(empty)])
        assert code == EXIT_LOAD
        assert "no gold records" in err

    def test_missing_seed_exits_2(self, files, cli, tmp_path):
        gold = tmp_path / "bad_gold.tsv"
        gold.write_text("zz\td1\t1\n", encoding="utf-8")
        code, _, err = cli(["eval", *files["base"], "--gold", str(gold)])
        assert code == EXIT_DOMAIN
        assert "zz" in err

    def test_per_seed_csv_written(self, files, cli, tmp_path):
        per_seed = tmp_path / "per_seed.csv"
        code, _, _ = cli(["eval", *files["base"], "--gold", files["gold"],
                          "--at", "2", "--per-seed", str(per_seed)])
        assert code == EXIT_OK
        assert per_seed.read_text(encoding="utf-8").startswith(
            "seed,n,precision,recall,f_measure"
        )


class TestFlagsAndDeterminism:
    def test_bad_weight_is_usage_error(self, files, cli):
        code, _, err = cli(["related", *files["base"], "--seed", "d1", "--ws", "-1"])
        assert code == EXIT_USAGE
        assert "ws" in err

    def test_bad_threshold_is_usage_error(self, files, cli):
        code, _, err = cli(["related", *files["base"], "--seed", "d1", "--threshold", "1.5"])
        assert code == EXIT_USAGE
        assert "threshold" in err

    def test_missing_subcommand_is_usage_error(self, cli):
        code, _, _ = cli([])
        assert code == EXIT_USAGE

    def test_help_exits_0(self, cli):
        code, out, _ = cli(["--help"])
        assert code == 0
        assert "related" in out

    def test_repeated_invocations_byte_identical(self, files, cli):
        argv = ["eval", *files["base"], "--gold", files["gold"], "--at", "1,2,3"]
        outputs = [cli(argv)[1] for _ in range(2)]
        assert outputs[0] == outputs[1]

    def test_weights_change_scores(self, files, cli):
        _, default_out, _ = cli(["related", *files["base"], "--seed", "d1", "--top", "2"])
        _, reweighted_out, _ = cli(["related", *files["base"], "--seed", "d1", "--top", "2", "--wr", "0"])
        assert default_out != reweighted_out

    @pytest.mark.parametrize("command", [
        ["related", "--seed", "d001"],
        ["query", "--pred", "ASPIRIN|TREATS|HEADACHE"],
    ])
    def test_negative_zero_prints_as_zero(self, command, cli):
        # argparse reads "-0" as -0.0, which SimWeights and SimConfig accept;
        # the kernel's weighted sums must still print as with +0.0.
        data = ROOT / "demos" / "data"
        name, *options = command
        argv = [name, *options,
                "--concepts", str(data / "concepts.tsv"),
                "--relations", str(data / "relations.tsv"),
                "--predications", str(data / "predications.tsv")]
        outputs = []
        for zero in ("-0", "0"):
            code, out, err = cli([*argv, "--ws", zero, "--wr", zero, "--wo", "1", "--threshold", zero])
            assert code == EXIT_OK, err
            outputs.append(out.encode("utf-8"))
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) > 3


class TestCounts:
    """A gold rank, ``--top`` and each ``--at`` cutoff are read as ASCII
    decimal digits only; ``--at`` allows blanks around its commas."""

    SITES = ["gold rank", "--top", "--at"]

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("text", ["1_0", "\u0663", " +2 ", "+2", "-1", "0", "x", ""])
    def test_refused(self, files, cli, tmp_path, site, text):
        shown = text.strip() if site == "--at" else text
        if shown == "0":
            problem = "must be a positive integer, got 0"
        else:
            problem = f"must be an integer written in ASCII digits only, got {shown!r}"
        if site == "gold rank":
            gold = tmp_path / "rank_gold.tsv"
            gold.write_text(f"d1\td2\t{text}\n", encoding="utf-8")
            code, _, err = cli(["eval", *files["base"], "--gold", str(gold)])
            assert code == EXIT_LOAD
            assert err.splitlines()[-1] == f"predsim: error: {gold}: line 1: rank {problem}"
        elif site == "--top":
            code, _, err = cli(["related", *files["base"], "--seed", "d1", "--top", text])
            assert code == EXIT_USAGE
            assert err == f"predsim related: error: argument --top: N {problem}\n"
        else:
            code, _, err = cli(["eval", *files["base"], "--gold", files["gold"], "--at", text])
            assert code == EXIT_USAGE
            assert err == f"predsim eval: error: argument --at: N {problem}\n"

    @pytest.mark.parametrize("site", SITES)
    def test_accepted(self, files, site):
        if site == "gold rank":
            gold = parse_gold(["s\td1\t007\n", "s\td2\t10\n", "s\td3\t6\n"])
            assert gold["s"] == ("d3", "d1", "d2")
        elif site == "--top":
            args = _build_parser().parse_args(["find", *files["base"], "--pattern", "?|R|?",
                                               "--top", "007"])
            assert args.top == 7
        else:
            args = _build_parser().parse_args(["eval", *files["base"], "--gold", files["gold"],
                                               "--at", "007, 10 ,5"])
            assert args.at == [7, 10, 5]


class TestWarnings:
    """Each warning a command raises is one ``predsim: warning:`` line on
    stderr, whatever the caller's warning filters."""

    @pytest.mark.parametrize("caller_filter", ["error", "ignore"])
    def test_cycle_warning_through_related(self, files, cli, caller_filter):
        _, acyclic_out, _ = cli(["related", *files["base"], "--seed", "d1"])
        cyclic = files["dir"] / "cyclic.tsv"
        cyclic.write_text(
            "".join(f"{c}\t{p}\n" for c, p in CONCEPT_EDGES) + "CX\tCY\nCY\tCX\n",
            encoding="utf-8",
        )
        argv = ["related", "--concepts", str(cyclic), *files["base"][2:], "--seed", "d1"]
        with warnings.catch_warnings():
            warnings.simplefilter(caller_filter)
            code, out, err = cli(argv)
        assert code == EXIT_OK
        assert out == acyclic_out
        assert [line for line in err.splitlines() if not line.startswith("# ")] == [
            f"predsim: warning: {cyclic}: hierarchy contains a cycle "
            "(2 nodes involved, e.g. CX, CY); cycle members become mutual ancestors"
        ]
        assert "UserWarning" not in err and ".py:" not in err

    def test_absent_gold_warning_through_eval(self, files, cli, tmp_path):
        gold = tmp_path / "absent_gold.tsv"
        gold.write_text("d1\td2\t1\nd1\tdX\t2\nd1\tdY\t3\n", encoding="utf-8")
        code, out, err = cli(["eval", *files["base"], "--gold", str(gold), "--at", "1,2"])
        assert code == EXIT_OK
        assert out.splitlines()[0] == "n,precision,recall,f_measure"
        assert [line for line in err.splitlines() if not line.startswith("# ")] == [
            "predsim: warning: seed 'd1': 2 gold documents absent from corpus "
            "(dX, dY); dropped from the relevant set"
        ]


class TestModuleEntryPoint:
    def test_python_m_matches_main(self, files, cli):
        argv = ["related", *files["base"], "--seed", "d1", "--top", "3"]
        code, expected, _ = cli(argv)
        assert code == EXIT_OK
        done = run_python("-m", "predsim.cli", *argv)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout == expected
