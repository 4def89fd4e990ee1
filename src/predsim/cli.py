"""Command-line interface.

Subcommands: ``related`` (documents related to a seed document),
``query`` (documents matching an ad-hoc predication set), ``find``
(predications matching a pattern), and ``eval`` (precision/recall/F sweep
against a gold file).

Ranked listings go to standard output (or ``--output``) as tab-separated
``rank  id-or-literal  score`` records with scores to 6 decimal places;
diagnostics go to standard error, each warning as one
``predsim: warning: <message>`` line.  Exit codes: 0 success, 1 load or
internal failure, 2 domain lookup failure (unknown seed, missing gold
seeds), 64 usage error.

From a checkout: ``PYTHONPATH=src python -m predsim.cli COMMAND ...``.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from ._input import read_count
from .corpus import load_gold_file, load_predications_file
from .docsim import SimConfig
from .errors import EmptySetError, LoadError, UnknownDocumentError
from .evaluation import run_eval
from .ontology import load_hierarchy_file
from .predication import (
    PredicationSet,
    SimWeights,
    bound_weight,
    format_predication,
    parse_pattern,
    parse_predication,
)
from .retrieval import RetrievalEngine

EXIT_OK = 0
EXIT_LOAD = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64


class UsageError(Exception):
    """Bad flags or malformed command-line literals (exit 64)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}")


def _count(text: str) -> int:
    """``--top`` or one ``--at`` cutoff, read by :func:`read_count`."""
    try:
        return read_count(text, "N")
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    files = common.add_argument_group("input files")
    files.add_argument("--concepts", required=True, metavar="PATH",
                       help="concept hierarchy file (child<TAB>parent per line)")
    files.add_argument("--relations", required=True, metavar="PATH",
                       help="relationship hierarchy file (same format)")
    files.add_argument("--predications", required=True, metavar="PATH",
                       help="corpus file (doc<TAB>subject<TAB>relation<TAB>object)")
    tuning = common.add_argument_group("similarity configuration")
    tuning.add_argument("--ws", type=float, default=1.0, metavar="W",
                        help="subject weight (default 1)")
    tuning.add_argument("--wr", type=float, default=1.0, metavar="W",
                        help="relation weight (default 1)")
    tuning.add_argument("--wo", type=float, default=1.0, metavar="W",
                        help="object weight (default 1)")
    tuning.add_argument("--threshold", type=float, default=0.0, metavar="T",
                        help="zero out best-match pairs scoring below T (default 0)")
    common.add_argument("--output", metavar="PATH",
                        help="write results to PATH instead of standard output")
    ranked = argparse.ArgumentParser(add_help=False)
    ranked.add_argument("--top", type=_count, default=10, metavar="N")

    parser = _Parser(prog="predsim",
                     description="Predication-based semantic document retrieval.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    related = sub.add_parser("related", parents=[common, ranked],
                             help="rank documents related to a seed document")
    related.add_argument("--seed", required=True, metavar="DOC_ID")
    related.set_defaults(func=_cmd_related)

    query = sub.add_parser("query", parents=[common, ranked],
                           help="rank documents against ad-hoc predications")
    query.add_argument("--pred", action="append", required=True, metavar="S|R|O",
                       help="predication literal; repeat for a multi-member query")
    query.set_defaults(func=_cmd_query)

    find = sub.add_parser("find", parents=[common, ranked],
                          help="rank corpus predications against a pattern")
    find.add_argument("--pattern", required=True, metavar="S|R|O",
                      help="pattern literal; use ? for a wildcard slot")
    find.set_defaults(func=_cmd_find)

    evalp = sub.add_parser("eval", parents=[common],
                           help="precision/recall/F sweep against a gold file")
    evalp.add_argument("--gold", required=True, metavar="PATH",
                       help="gold file (seed<TAB>related<TAB>rank per line)")
    evalp.add_argument("--at", type=lambda text: [_count(n.strip()) for n in text.split(",")],
                       default=[5, 10, 15, 20, 25, 30],
                       metavar="N,N,...", help="cutoffs to evaluate (default 5..30)")
    evalp.add_argument("--per-seed", metavar="PATH", dest="per_seed",
                       help="also write a per-seed CSV to PATH")
    evalp.set_defaults(func=_cmd_eval)
    return parser


def _build_config(args) -> SimConfig:
    try:
        weights = SimWeights(ws=args.ws, wr=args.wr, wo=args.wo)
        return SimConfig(weights=weights, pair_threshold=args.threshold)
    except ValueError as err:
        raise UsageError(f"predsim: error: {err}") from None


def _load_inputs(args, config: SimConfig):
    concepts = load_hierarchy_file(args.concepts)
    relations = load_hierarchy_file(args.relations)
    corpus = load_predications_file(args.predications)
    print(f"# concepts: {len(concepts)} nodes, {concepts.edge_count} edges",
          file=sys.stderr)
    print(f"# relations: {len(relations)} nodes, {relations.edge_count} edges",
          file=sys.stderr)
    stats = corpus.stats
    print(f"# corpus: {stats.documents} documents, {stats.predications} predications, "
          f"{stats.duplicates_dropped} duplicates dropped", file=sys.stderr)
    engine = RetrievalEngine(concepts, relations, config)
    return engine, corpus


def _emit(output: str | None, text: str) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _format_documents(results) -> str:
    return "".join(f"{r.rank}\t{r.doc_id}\t{r.score:.6f}\n" for r in results)


def _format_predications(results) -> str:
    return "".join(
        f"{r.rank}\t{format_predication(r.predication)}\t{r.score:.6f}"
        f"\t{','.join(r.documents)}\n"
        for r in results
    )


def _cmd_related(args) -> int:
    engine, corpus = _load_inputs(args, _build_config(args))
    results = engine.related_documents(corpus, args.seed, args.top)
    _emit(args.output, _format_documents(results))
    return EXIT_OK


def _cmd_query(args) -> int:
    try:
        preds = [parse_predication(text) for text in args.pred]
    except LoadError as err:
        raise UsageError(f"predsim query: error: {err}") from None
    engine, corpus = _load_inputs(args, _build_config(args))
    query = PredicationSet.from_iterable(preds)
    results = engine.query_documents(corpus, query, args.top)
    _emit(args.output, _format_documents(results))
    return EXIT_OK


def _cmd_find(args) -> int:
    try:
        pattern = parse_pattern(args.pattern)
        config = _build_config(args)
        bound_weight(pattern, config.weights)
    except ValueError as err:  # LoadError is a ValueError
        raise UsageError(f"predsim find: error: {err}") from None
    engine, corpus = _load_inputs(args, config)
    results = engine.related_predications(corpus, pattern, args.top)
    _emit(args.output, _format_predications(results))
    return EXIT_OK


def _cmd_eval(args) -> int:
    engine, corpus = _load_inputs(args, _build_config(args))
    gold = load_gold_file(args.gold)
    report = run_eval(engine, corpus, gold, args.at)
    _emit(args.output, report.to_csv())
    if args.per_seed:
        Path(args.per_seed).write_text(report.per_seed_csv(), encoding="utf-8")
    return EXIT_OK


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"predsim: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command; every warning it raises goes to stderr as one
    ``predsim: warning:`` line, whatever the caller's warning filters."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _show_warning
        try:
            args = _build_parser().parse_args(argv)
            return args.func(args)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        except UsageError as err:
            print(err, file=sys.stderr)
            return EXIT_USAGE
        except (UnknownDocumentError, EmptySetError) as err:
            print(f"predsim: error: {err}", file=sys.stderr)
            return EXIT_DOMAIN
        except (ValueError, OSError) as err:  # LoadError is a ValueError
            print(f"predsim: error: {err}", file=sys.stderr)
            return EXIT_LOAD


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
