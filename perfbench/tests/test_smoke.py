"""Toy-size smoke run of the benchmark.

    python3 -m pytest -q perfbench/tests

Runs every workload at toy size, untraced and traced, and checks that each
metric BENCHMARK.json names appears with its unit, that outputs pass the
benchmark's checks, and that layer metrics are non-zero where the layer does
work on that workload.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CV = [w for w in WORKLOADS if w.startswith("cv-")]

# Layer metrics that must be non-zero, by the workloads where the layer works.
ACTIVE = {
    "models.forward.calls": WORKLOADS,
    "models.forward.us_per_inst": WORKLOADS,
    "models.backward.us_per_inst": WORKLOADS,
    "models.tokens_per_inst": WORKLOADS,
    "harness.encode_input.calls": WORKLOADS,
    "harness.encode_input.useful_ratio": WORKLOADS,
    "nncore.embed.calls": WORKLOADS,
    "nncore.softmax_xent.us_per_call": WORKLOADS,
    "corpus.parse_conllu.us_per_sent": WORKLOADS,
    "corpus.load_events.s": WORKLOADS,
    "nncore.rmsprop.steps": CV,
    "nncore.rmsprop.us_per_step": CV,
    "harness.train.self_s": CV,
    "harness.evaluate.self_s": CV,
    "harness.fold.p50_s": CV,
    "harness.fold.max_s": CV,
    "chain.extract.calls": ["cv-lstm-window", "cv-cnn-chain-ft", "infer-saliency"],
    "nncore.load_checkpoint.s": ["infer-saliency"],
    "saliency.compute.us_per_call": ["infer-saliency"],
    "saliency.emit.us_per_call": ["infer-saliency"],
    "trace.overhead_ratio": WORKLOADS,
    "trace.coverage": WORKLOADS,
}


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, proc.stderr
    return out["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result(workload, 0)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    metrics = result(workload, 1)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] >= 0, m["name"]
    for name, where in ACTIVE.items():
        assert (metrics[name]["value"] > 0) == (workload in where), name
    embeds = metrics["nncore.embed.calls"]["value"]
    encodes = metrics["harness.encode_input.calls"]["value"]
    if workload == "cv-cnn-chain-ft":
        assert embeds > encodes
    else:
        assert embeds == encodes


def test_fails_without_program():
    bare = BENCH / "out" / "bare"  # a directory with only the benchmark's own files
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import depchain
    import depchain.harness
    import depchain.saliency
    import tracer

    before = (depchain.harness.model_loss, depchain.saliency.model_loss,
              depchain.nncore.RmsProp.step, depchain.cross_validate)
    t = tracer.Tracer()
    t.install()
    assert depchain.harness.model_loss is not before[0]
    assert depchain.saliency.model_loss is depchain.harness.model_loss
    assert depchain.nncore.RmsProp.step is not before[2]
    assert t.uninstall()
    after = (depchain.harness.model_loss, depchain.saliency.model_loss,
             depchain.nncore.RmsProp.step, depchain.cross_validate)
    assert all(a is b for a, b in zip(before, after))
    assert t.missing == []
