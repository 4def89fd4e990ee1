"""The predsim benchmark: seeded inputs, three workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one closed-loop client, one process, no threads; the engine and
``SimConfig`` take their defaults):

- ``related-1k``: one long-lived engine over 1k documents answers
  ``related_documents(top 10)`` for distinct seed documents.  Nearly all
  time goes to the scoring cascade, and the similarity cache warms up.
- ``adhoc-10k``: one long-lived engine over 10k documents plus three very
  large ones answers a seeded mix of ``query_documents`` (1-3
  predications) and ``related_predications`` (1-3 bound slots).  Loading
  dominates set-up; each operation is a thin query over a large corpus.
- ``eval-cli``: repeated in-process ``predsim eval`` invocations over 1k
  documents and a 10-seed gold file.  Every call reloads all files and
  starts with cold caches, as a command-line user does.

Generating inputs is untimed and runs in a child process, so the peak RSS
reported is the workload's own.  ``setup_s`` is the median of several
set-ups (load both hierarchies, the corpus and, on ``eval-cli``, the gold
file, then construct the engine).  The timed phase runs a fixed number of
operations, ``ops_per_second * --seconds``, sized so the phase lasts about
``--seconds`` on the machine described in ``baseline.json``.

End-to-end metrics: ``setup_s``, ``ops_per_s`` (completed operations per
second over the timed phase; ``eval-cli`` counts one gold seed as one
operation) and ``peak_rss_mb``.  Medians and tails per operation kind
(``related_p50_ms``, ``query_tail_ms``, ``eval_s`` and so on) go to the
details line only, because on a shared 2-vCPU host their run-to-run spread
is too wide to gate.

Host speed: on a shared virtual machine the CPU share the host grants
changes by up to 2x over seconds to minutes, and the guest does not see it
(no steal time is reported; CPU time equals wall time).  So ``setup_s`` and
``ops_per_s`` count seconds at a fixed reference speed.  While set-ups and
operations run, a timer interrupts them every ``SAMPLE_S`` seconds to time
a fixed pure-Python reference task (Jaccard of random pairs of a few
thousand frozensets, stored in a dict, as in the scoring cascade).  The
work done since the previous reading is scaled by ``REFERENCE_S`` over this
reading, and the time spent in the reference task is left out.  The
reference data add about 5 MB to the peak RSS of every workload.  The
wall-clock figures (``wall_setup_s``, ``wall_ops_per_s``) and the median
host speed go to the details line.

Correctness gate: every result is spot-checked against the brute-force
reference in ``reference.py``, and at the seed and seconds recorded in
``expected.json`` the sha256 of the rendered rankings must match.  A
mismatch counts as a failed operation and the command exits 1.

With ``--trace 1`` a third of the operations run twice, each time on a
freshly loaded engine: first untraced, then under ``tracing.Tracer``.  The
run prints the per-layer metrics and writes the trace to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds details: input sizes, latencies per operation kind with their tail
percentile and sample count, ``error_rate``, the rankings hash and any
problems found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TOP = 10
OUTSIDERS = 40
EVAL_CUTOFFS = (5, 10, 15, 20, 25, 30)
EVAL_CHECKED_SEEDS = 2
TAIL_BEYOND = 10
# The reference task took REFERENCE_S seconds on the machine described in
# baseline.json when the host was not contended.  It runs every SAMPLE_S
# seconds of wall time.
REFERENCE_S = 0.0055
SAMPLE_S = 0.1

# Bound in main() once the source tree is known to exist.
predsim = None
reference = None


@dataclass
class Outcome:
    kind: str
    text: str  # the result in the CLI's output format; hashed by the gate
    raw: object  # what the spot check needs


def render_documents(header: str, results) -> str:
    return header + "".join(f"{r.rank}\t{r.doc_id}\t{r.score:.6f}\n" for r in results)


def load_engine(inputs: Path):
    concepts = predsim.load_hierarchy_file(inputs / "concepts.tsv")
    relations = predsim.load_hierarchy_file(inputs / "relations.tsv")
    corpus = predsim.load_predications_file(inputs / "predications.tsv")
    return predsim.RetrievalEngine(concepts, relations), corpus


def check_documents(ref, query, candidates, got, rng, always=()) -> list[str]:
    outsiders = rng.sample(candidates, min(OUTSIDERS, len(candidates))) + list(always)
    return reference.check_ranking(
        got, min(TOP, len(candidates)), lambda d: ref.doc_sim(ref.docs[d], query), outsiders
    )


class Related:
    """Long-lived engine, ``related_documents`` for distinct seeds."""

    ops_per_second = 3.0
    setup_repeats = 9
    long_lived = True

    def setup(self, inputs: Path):
        return load_engine(inputs)

    def operations(self, ops: dict) -> list:
        return ops["seeds"]

    def run(self, session, seed: str) -> Outcome:
        engine, corpus = session
        results = engine.related_documents(corpus, seed, TOP)
        text = render_documents(f"# related {seed}\n", results)
        return Outcome("related", text, [(r.doc_id, r.score) for r in results])

    def check(self, ref, seed: str, outcome: Outcome, rng: random.Random) -> list[str]:
        others = [d for d in ref.docs if d != seed]
        return check_documents(ref, ref.docs[seed], others, outcome.raw, rng)


class Adhoc:
    """Long-lived engine over a large corpus, thin queries and patterns."""

    ops_per_second = 0.96
    setup_repeats = 3
    long_lived = True

    def setup(self, inputs: Path):
        return load_engine(inputs)

    def operations(self, ops: dict) -> list:
        return ops["ops"]

    def run(self, session, op: dict) -> Outcome:
        engine, corpus = session
        if op["kind"] == "query":
            query = predsim.PredicationSet.from_iterable(
                predsim.parse_predication(p) for p in op["preds"]
            )
            results = engine.query_documents(corpus, query, TOP)
            text = render_documents(f"# query {' '.join(op['preds'])}\n", results)
            return Outcome("query", text, [(r.doc_id, r.score) for r in results])
        pattern = predsim.parse_pattern(op["pattern"])
        results = engine.related_predications(corpus, pattern, TOP)
        rows = [(predsim.format_predication(r.predication), r.score, list(r.documents))
                for r in results]
        text = f"# find {op['pattern']}\n" + "".join(
            f"{rank}\t{lit}\t{score:.6f}\t{','.join(docs)}\n"
            for rank, (lit, score, docs) in enumerate(rows, 1)
        )
        return Outcome("find", text, rows)

    def check(self, ref, op: dict, outcome: Outcome, rng: random.Random) -> list[str]:
        if op["kind"] == "query":
            query = [tuple(p.split("|")) for p in op["preds"]]
            large = [d for d in ref.docs if d.startswith("L")]
            return check_documents(ref, query, list(ref.docs), outcome.raw, rng, large)
        pattern = tuple(None if s == "?" else s for s in op["pattern"].split("|"))
        problems = [
            f"{lit}: documents {docs} differ from the reference"
            for lit, _, docs in outcome.raw
            if docs != ref.occurrences.get(tuple(lit.split("|")))
        ]
        outsiders = ["|".join(p) for p in rng.sample(list(ref.occurrences), OUTSIDERS)]
        return problems + reference.check_ranking(
            [(lit, score) for lit, score, _ in outcome.raw],
            min(TOP, len(ref.occurrences)),
            lambda lit: ref.pattern(pattern, tuple(lit.split("|"))),
            outsiders,
        )


class EvalCli:
    """Cold ``predsim eval`` invocations, each reloading every file."""

    ops_per_second = 0.28
    setup_repeats = 9
    long_lived = False

    def setup(self, inputs: Path):
        return load_engine(inputs), predsim.load_gold_file(inputs / "gold.tsv")

    def operations(self, ops: dict) -> list:
        return list(range(ops["invocations"]))

    def run(self, inputs: Path, index: int) -> Outcome:
        csv, per_seed = inputs / f"eval-{index}.csv", inputs / f"eval-{index}-seeds.csv"
        argv = ["eval", "--concepts", str(inputs / "concepts.tsv"),
                "--relations", str(inputs / "relations.tsv"),
                "--predications", str(inputs / "predications.tsv"),
                "--gold", str(inputs / "gold.tsv"),
                "--output", str(csv), "--per-seed", str(per_seed)]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = predsim.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"predsim eval exited {code}: {stderr.getvalue().strip()}")
        macro, seeds = csv.read_text(encoding="utf-8"), per_seed.read_text(encoding="utf-8")
        csv.unlink()
        per_seed.unlink()
        return Outcome("eval", macro + seeds, (macro, seeds))

    def check(self, ref, index: int, outcome: Outcome, rng: random.Random) -> list[str]:
        """Recompute two seeds' rows from scratch; the macro rows must be
        the means of the per-seed rows."""
        macro, seeds = outcome.raw
        rows = {tuple(line.split(",")[:2]): line for line in seeds.splitlines()[1:]}
        problems = []
        checked = random.Random(len(ref.gold)).sample(sorted(ref.gold), EVAL_CHECKED_SEEDS)
        for seed in checked:
            ranked = [d for d, _ in ref.related(seed, max(EVAL_CUTOFFS))]
            relevant = ref.gold[seed]
            for n in EVAL_CUTOFFS:
                hits = len(set(ranked[:n]) & relevant)
                p, r = hits / len(ranked[:n]), hits / len(relevant)
                f = 2 * p * r / (p + r) if p + r else 0.0
                expected = f"{seed},{n},{p:.4f},{r:.4f},{f:.4f}"
                if rows.get((seed, str(n))) != expected:
                    problems.append(f"per-seed row {rows.get((seed, str(n)))!r} != {expected!r}")
        for line in macro.splitlines()[1:]:
            n, *values = line.split(",")
            at_n = [[float(x) for x in row.split(",")[2:]]
                    for (_, k), row in rows.items() if k == n]
            for i, value in enumerate(values):
                if abs(float(value) - statistics.fmean(v[i] for v in at_n)) > 1.01e-4:
                    problems.append(f"macro row {line!r} is not the mean of the seed rows")
        return problems


WORKLOADS = {"related-1k": Related, "adhoc-10k": Adhoc, "eval-cli": EvalCli}


def generate(name: str, seed: int, n_ops: int, inputs: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", name, "--seed", str(seed),
         "--ops", str(n_ops), "--out", str(inputs)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


class HostSpeed:
    """Times intervals in seconds at the reference speed.

    Use as a context manager: inside it, ``SIGALRM`` runs the reference
    task every ``SAMPLE_S`` seconds.  Between ``start()`` and ``stop()`` the
    work time since the previous reading is scaled by ``REFERENCE_S`` over
    the next reading; ``stop()`` takes a last reading.
    """

    def __init__(self):
        rng = random.Random(12345)
        vocabulary = [f"C{i:05d}" for i in range(20000)]
        self._sets = [frozenset(rng.choice(vocabulary) for _ in range(10 + rng.randrange(20)))
                      for _ in range(2500)]
        self._pairs = [(rng.randrange(2500), rng.randrange(2500)) for _ in range(1500)]
        self.readings: list[float] = []
        self.sampling_s = 0.0  # wall time spent in the reference task
        self._mark: float | None = None  # end of the last reading in an interval
        self._scaled = self._own = 0.0
        self._busy = False

    def _task(self) -> int:
        memo = {}
        total = 0.0
        for i, j in self._pairs:
            a, b = self._sets[i], self._sets[j]
            total += len(a & b) / len(a | b)
            memo[a, b] = total
        return len(memo)

    def _read(self, *_signal) -> None:
        if self._busy or self._mark is None:
            return
        self._busy = True
        t0 = time.perf_counter()
        self._task()
        t1 = time.perf_counter()
        self.readings.append(t1 - t0)
        self.sampling_s += t1 - t0
        self._own += t0 - self._mark
        self._scaled += (t0 - self._mark) * REFERENCE_S / (t1 - t0)
        self._mark = t1
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> None:
        self._scaled = self._own = 0.0
        self._mark = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """Seconds at the reference speed and wall seconds, since ``start()``."""
        self._read()
        self._mark = None
        return self._scaled, self._own

    def speed(self) -> float:
        """Median host speed over the run; 1 is the reference speed."""
        return REFERENCE_S / statistics.median(self.readings)


def run_ops(workload, session, ops: list, tracer=None, host=None):
    """Closed loop over ``ops``: latencies, outcomes (None if raised), errors.

    Latencies leave out the time ``host`` spent in its reference task."""
    latencies, outcomes, errors = [], [], []
    for i, op in enumerate(ops):
        sampled = host.sampling_s if host else 0.0
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = workload.run(session, op)
            else:
                with tracer.span("operation"):
                    outcome = workload.run(session, op)
        except Exception as err:  # a failed operation is counted, not fatal
            outcome = None
            errors.append((i, f"{type(err).__name__}: {err}"))
        latencies.append(time.perf_counter() - t0 - ((host.sampling_s if host else 0.0) - sampled))
        outcomes.append(outcome)
    return latencies, outcomes, errors


def spot_check(workload, inputs: Path, ops: list, outcomes: list, seed: int):
    """``(operation index, problem)`` for each result the reference rejects."""
    ref = reference.Reference(inputs)
    rng = random.Random(seed * 7919 + 17)
    return [
        (i, problem)
        for i, (op, outcome) in enumerate(zip(ops, outcomes))
        if outcome is not None
        for problem in workload.check(ref, op, outcome, rng)
    ]


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it.

    None when that percentile would not lie above the median, that is,
    with fewer than ``2 * TAIL_BEYOND + 1`` samples.
    """
    n = len(values)
    if n <= 2 * TAIL_BEYOND:
        return None, None
    return sorted(values)[n - TAIL_BEYOND - 1], round(100 * (n - TAIL_BEYOND) / n, 2)


def latency_details(outcomes: list, latencies: list) -> dict:
    """Medians and tails over all operations and per operation kind."""
    kinds: dict[str, list[float]] = {"op": latencies}
    for outcome, seconds in zip(outcomes, latencies):
        if outcome is not None:
            kinds.setdefault(outcome.kind, []).append(seconds)
    details = {}
    for kind, values in kinds.items():
        if kind == "eval":
            details["eval_s"] = {"value": statistics.median(values), "unit": "s",
                                 "samples": len(values)}
            continue
        value, pct = tail(values)
        details[f"{kind}_p50_ms"] = {"value": 1000 * statistics.median(values), "unit": "ms",
                                     "samples": len(values)}
        details[f"{kind}_tail_ms"] = {"value": None if value is None else 1000 * value,
                                      "unit": "ms", "percentile": pct, "samples": len(values)}
    return details


def expected_hash(name: str, seed: int, seconds: int) -> str | None:
    record = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    if record["seed"] == seed and record["seconds"] == seconds:
        return record["sha256"].get(name)
    return None


def measure(name, workload, inputs, ops, seed, seconds, units):
    setups, wall_setups = [], []
    session = None
    with HostSpeed() as host:
        for _ in range(workload.setup_repeats):
            session = None  # free the previous set-up before timing the next
            host.start()
            session = workload.setup(inputs)
            scaled, wall = host.stop()
            setups.append(scaled)
            wall_setups.append(wall)
        if not workload.long_lived:
            session = inputs
        host.start()
        latencies, outcomes, errors = run_ops(workload, session, ops, host=host)
        scaled, wall = host.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    session = None
    problems = errors + spot_check(workload, inputs, ops, outcomes, seed)
    digest = hashlib.sha256("".join(o.text for o in outcomes if o).encode()).hexdigest()
    expected = expected_hash(name, seed, seconds)
    if expected is not None and digest != expected:
        problems += [(i, f"rankings sha256 {digest} != {expected}") for i in range(len(ops))]
    completed = sum(o is not None for o in outcomes)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": completed * units / scaled, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    details = {
        "wall_setup_s": statistics.median(wall_setups),
        "wall_ops_per_s": completed * units / wall,
        "host_speed": host.speed(),
        "setup_runs_s": setups,
        "timed_phase_s": wall,
        "latency": latency_details(outcomes, latencies),
        "rankings_sha256": digest,
        "expected_sha256": expected,
    }
    return metrics, len(ops), problems, details


def measure_traced(name, workload, inputs, ops, seed):
    from tracing import Tracer, per_layer_metrics

    subset = ops[: max(1, len(ops) // 3)]

    def session():
        return workload.setup(inputs) if workload.long_lived else inputs

    t0 = time.perf_counter()
    _, plain, errors = run_ops(workload, session(), subset)
    untraced_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        _, traced, traced_errors = run_ops(workload, session(), subset, tracer)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics, absent = per_layer_metrics(tracer, traced_s / untraced_s - 1)
    n = len(subset)
    problems = errors + [(n + i, e) for i, e in traced_errors]
    problems += [
        (n + i, "traced output differs from untraced")
        for i, (a, b) in enumerate(zip(plain, traced))
        if a is not None and b is not None and a.text != b.text
    ]
    problems += [(n + i, p) for i, p in spot_check(workload, inputs, subset, traced, seed)]
    trace_path = OUT / f"trace-{name}-seed{seed}.json"
    trace_path.write_text(json.dumps(tracer.to_json()) + "\n", encoding="utf-8")
    details = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "absent": absent,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return metrics, 2 * n, problems, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="predsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "predsim" / "__init__.py").is_file():
        print(f"perfbench: no predsim source tree at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    global predsim, reference
    import predsim as package
    import predsim.cli  # noqa: F401  (eval-cli calls predsim.cli.main)
    import reference as reference_module

    predsim, reference = package, reference_module

    workload = WORKLOADS[args.workload]()
    n_ops = max(1, round(workload.ops_per_second * args.seconds))
    inputs = OUT / f"inputs-{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        sizes = generate(args.workload, args.seed, n_ops, inputs)
        ops = workload.operations(json.loads((inputs / "ops.json").read_text(encoding="utf-8")))
        units = sizes["gold_seeds"] or 1  # eval-cli counts one gold seed as one operation
        if args.trace:
            metrics, runs, problems, details = measure_traced(
                args.workload, workload, inputs, ops, args.seed)
        else:
            metrics, runs, problems, details = measure(
                args.workload, workload, inputs, ops, args.seed, args.seconds, units)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    attempted = runs * units
    failed = len({i for i, _ in problems}) * units
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": sizes, "error_rate": failed / attempted,
        "problems": [f"op {i}: {p}" for i, p in problems[:20]], **details,
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
