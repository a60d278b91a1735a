"""The public API is declared once: the package exports its modules' __all__ lists."""

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
