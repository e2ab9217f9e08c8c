"""Smoke test for the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

Checks that each run prints a valid result line carrying exactly the metrics
BENCHMARK.json names, with valid names and units; that two runs of one seed
agree on every deterministic output; and that the benchmark fails cleanly
when the program is absent.
"""

from __future__ import annotations

import functools
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("encoder_train", "attention_train", "evaluate")
TINY = ("--samples", "60", "--seconds", "0.1")
SEED = 3
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--trace", str(trace), *TINY],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@functools.lru_cache(maxsize=None)
def _run(workload, trace, attempt=0):
    """(result, summary) of one run; `attempt` tells repeated runs apart."""
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["summary"]


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_emits_every_metric(workload, trace, kind):
    result, summary = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, summary["problems"]
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _spec()[kind]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(metric["unit"]) and metric["unit"] == expected[name], name
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_runs_of_one_seed_agree(workload):
    for trace in (0, 1):
        (first, s1), (second, s2) = _run(workload, trace), _run(workload, trace, attempt=1)
        assert (s1["train_loss"], s1["bleu4"], s1["avg_auc"]) == (s2["train_loss"], s2["bleu4"], s2["avg_auc"])
        counts = lambda r: {k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
        assert counts(first) == counts(second)


def test_workloads_share_one_encoder_training_pass():
    summaries = [_run(w, 0)[1] for w in WORKLOADS]
    assert len({(s["train_loss"], s["bleu4"], s["avg_auc"]) for s in summaries}) == 1


def test_layers_are_attributed_to_the_workloads_that_use_them():
    calls = {w: {k: v["value"] for k, v in _run(w, 1)[0]["metrics"].items()} for w in WORKLOADS}
    assert calls["encoder_train"]["autodiff.backward.calls"] > 0
    assert calls["encoder_train"]["attention.concept_attend.calls"] == 0
    assert calls["encoder_train"]["metrics.score_generation.s"] == 0
    for scheme in ("concat", "early", "late"):
        assert calls["attention_train"][f"attention.fuse.{scheme}.calls"] > 0
    assert calls["attention_train"]["autodiff.tape_nodes"] > calls["encoder_train"]["autodiff.tape_nodes"]
    assert calls["evaluate"]["autodiff.backward.calls"] == 0
    assert calls["evaluate"]["metrics.score_generation.s"] > 0
    for w in WORKLOADS:
        assert calls[w]["corpus.generate_dataset.s"] > 0
        assert calls[w]["encoder.encode.calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("encoder_train", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
