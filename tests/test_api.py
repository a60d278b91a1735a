"""The public API is declared once: the package exports its modules' __all__ lists,
and the benchmark, which reads them, still runs end to end."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import depchain
from depchain import chain, corpus, errors, harness, models, nncore, saliency

MODULES = (chain, corpus, errors, harness, models, nncore, saliency)

# Every name perfbench/run.py reads through the package (``dc.<name>``).
BENCH_NAMES = [
    "SynthConfig", "TrainConfig", "classify", "compute_saliency", "cross_validate",
    "emit_heatmap", "encode_input", "extract_chain", "extract_window", "generate_synthetic",
    "index_sentences", "load_events", "load_trained", "parse_conllu", "parse_heatmap_csv",
    "save_trained", "serialize_conllu", "serialize_events", "train",
]


def test_package_exports_exactly_the_module_lists():
    error_classes = {n for n, v in vars(errors).items()
                     if isinstance(v, type) and issubclass(v, Exception)}
    assert sorted(errors.__all__) == sorted(error_classes) and len(error_classes) == 5

    expected = ["__version__"] + [name for m in MODULES for name in m.__all__]
    assert len(set(expected)) == len(expected)
    assert sorted(depchain.__all__) == sorted(expected)

    for m in MODULES:
        for name in m.__all__:
            assert getattr(depchain, name) is getattr(m, name), name
    assert depchain.__version__

    assert len(set(BENCH_NAMES)) == 19
    assert set(BENCH_NAMES) <= set(depchain.__all__)


ROOT = Path(__file__).resolve().parent.parent


def test_bench_runs_every_workload(tmp_path):
    # on a copy of the bench and the package, so run records stay out of the checkout
    skip = shutil.ignore_patterns("__pycache__", "out")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "1", "--trace", "0", "--size", "toy"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] is True and out["failed"] == 0, proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for m in spec["end_to_end"]:
            metric = out["metrics"][f"{workload['name']}/{m['name']}"]
            assert metric["unit"] == m["unit"] and metric["value"] > 0, (workload, m)
