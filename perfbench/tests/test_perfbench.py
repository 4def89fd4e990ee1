"""Tests of the benchmark itself.

They check that the generator is byte-deterministic per seed, that every
metric named in ``BENCHMARK.json`` is emitted with its unit, that the
correctness gate fails when a score or a ranking is altered on purpose,
that the tracer reports a function that no longer exists as absent, and
that host-speed scaling leaves out the time of its own reference task.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import predsim  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def generated(out: Path, workload: str, seed: int, hash_seed: str) -> dict[str, bytes]:
    # A different string-hash seed per process exposes any set-order leak.
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    subprocess.run(
        [sys.executable, str(BENCH / "gen.py"), "--workload", workload, "--seed", str(seed),
         "--ops", "12", "--out", str(out)],
        check=True, capture_output=True, env=env,
    )
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_generator_is_byte_deterministic_per_seed(tmp_path, workload):
    first = generated(tmp_path / "a", workload, 5, "1")
    again = generated(tmp_path / "b", workload, 5, "2")
    other = generated(tmp_path / "c", workload, 6, "1")
    assert first == again
    assert first.keys() == other.keys()
    for name in ("concepts.tsv", "predications.tsv"):
        assert first[name] != other[name], name


def bench(capsys, workload: str, trace: int) -> tuple[int, dict, dict]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted_with_its_unit(capsys, workload, trace):
    code, details, result = bench(capsys, workload, trace)
    assert code == 0, details["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    assert details["inputs"]["documents"] > 0


def altered(method, change):
    def wrapped(*args, **kwargs):
        return change(method(*args, **kwargs))
    return wrapped


def test_gate_fails_when_a_score_is_altered(capsys, monkeypatch):
    original = predsim.RetrievalEngine.related_documents
    nudge = lambda results: [dataclasses.replace(r, score=r.score * (1 - 1e-6)) for r in results]
    monkeypatch.setattr(predsim.RetrievalEngine, "related_documents", altered(original, nudge))
    code, details, result = bench(capsys, "related-1k", 0)
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("!= reference" in p for p in details["problems"])


def test_gate_fails_when_a_ranking_is_altered(capsys, monkeypatch):
    original = predsim.RetrievalEngine.related_documents
    swap = lambda results: [results[1], results[0], *results[2:]]
    monkeypatch.setattr(predsim.RetrievalEngine, "related_documents", altered(original, swap))
    code, details, result = bench(capsys, "related-1k", 0)
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("out of order" in p for p in details["problems"])


def test_gate_fails_when_the_rankings_hash_differs(capsys, monkeypatch):
    monkeypatch.setattr(run, "expected_hash", lambda *args: "0" * 64)
    code, details, result = bench(capsys, "related-1k", 0)
    assert code == 1 and result["failed"] == result["attempted"]
    assert any("sha256" in p for p in details["problems"])


def test_tracer_reports_a_missing_function_as_absent(monkeypatch):
    monkeypatch.delattr(predsim.corpus, "SimCache")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics, absent = tracing.per_layer_metrics(tracer, 0.0)
    assert tracer.absent == ["predsim.corpus.SimCache.lookup_or_compute"]
    assert sorted(absent) == sorted(n for n in tracing.PER_LAYER if n.startswith("corpus.cache_"))
    assert all(metrics[n]["value"] == 0 for n in absent)


def test_host_speed_leaves_out_its_reference_task():
    with run.HostSpeed() as host:
        host.start()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 5 * run.SAMPLE_S:
            sum(range(1000))
        scaled, wall = host.stop()
        elapsed = time.perf_counter() - t0
    assert len(host.readings) >= 3
    assert wall == pytest.approx(elapsed - host.sampling_s, abs=1e-3)
    # Each piece of work is scaled by REFERENCE_S over the reading after it.
    speeds = [run.REFERENCE_S / r for r in host.readings]
    assert min(speeds) * 0.99 <= scaled / wall <= max(speeds) * 1.01
