"""End-to-end command-line coverage, driven in-process through main()."""

import hashlib
import importlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import depchain
from depchain import cli, harness
from depchain import (
    TrainConfig,
    heatmap_filename,
    index_sentences,
    load_events,
    load_trained,
    parse_conllu,
    parse_heatmap_csv,
    representation_ids,
    save_trained,
)
from depchain.cli import _config_from_args, build_parser, main
from depchain.models import param_shapes
from depchain.nncore import ParamSet, blas_info

from test_corpus import FIXTURE
from test_harness import lone_reader

EVENTS = '{"doc_id": "doc1", "sent_id": "s1", "token_id": 8, "label": "FU"}\n'

TINY_HYPERS = [
    "--epochs", "1", "--hidden", "4", "--emb-dim", "6", "--batch-size", "8",
]


def write_fixture(tmp_path):
    conllu = tmp_path / "corpus.conllu"
    events = tmp_path / "events.jsonl"
    conllu.write_text(FIXTURE, encoding="utf-8")
    events.write_text(EVENTS, encoding="utf-8")
    return str(conllu), str(events)


def gen_corpus(tmp_path, n=12, seed=3):
    out = tmp_path / "data"
    rc = main(["gen", "--out", str(out), "--n", str(n), "--seed", str(seed)])
    assert rc == 0
    return str(out / "corpus.conllu"), str(out / "events.jsonl")


def overflow_logits(values):
    """Set a recurrent model's parameters (name -> array) so that every
    weight stays finite but saturated gates and a huge readout overflow the
    logits of every mention."""
    values["b"][: 3 * len(values["U"])] = 50.0
    values["Wy"][...] = 1.7e308
    values["by"][...] = 1.7e308


def overflow_input_gradient(values):
    """Set a recurrent model's parameters and its embedding table (under
    "table") so that every value and every logit stays finite but the input
    gradient overflows. Each embedding is 2**-3 in every dimension and the u
    gate's W columns alternate +-2**40 down its (even) rows: the input terms
    cancel exactly, so u, every cell state and every hidden state are 0 and
    the logits are by, 0. A readout of about 1e308 then sends each cell
    state a gradient near 1e308, which W's 2**40 carries past float64."""
    dim, hidden = values["table"].shape[1], len(values["U"])
    values["table"][...] = 2.0**-3
    for name in ("W", "U", "b", "by"):
        values[name][...] = 0.0
    values["W"][:, :hidden] = np.where(np.arange(dim) % 2, -(2.0**40), 2.0**40)[:, None]
    values["Wy"][...] = [1.5e308, -1.5e308, 1e308]


def overflowing_checkpoint(tmp_path, conllu, events, overflow=overflow_logits):
    """A train_tiny checkpoint rewritten through ``overflow``, which gets the
    parameters by name and the embedding table as "table"."""
    ckpt = train_tiny(tmp_path, conllu, events)
    with open(ckpt, "rb") as f:
        header, payload = f.read().split(b"\n", 1)
    doc = json.loads(header)
    shapes = param_shapes("lstm", doc["dim"], doc["config"]["hidden"])
    shapes["table"] = (len(doc["vocab"]) + 1, doc["dim"])
    flat = np.frombuffer(payload, dtype="<f8").copy()
    overflow(ParamSet(shapes, flat).values)
    with open(ckpt, "wb") as f:
        f.write(header + b"\n" + flat.tobytes())
    return ckpt


def overflow_one_input_gradient(values, row):
    """overflow_input_gradient, narrowed to the inputs that read table row
    ``row``: only their input gradient overflows. The i gate's W columns are
    1 and its bias puts it at sigmoid(-50) on a 2**-3 row, so every other
    token passes the cell's gradient to u a factor 1e-22 down and stays
    finite; ``row`` holds a value that opens the gate, sigmoid(50), while
    the u gate's columns still cancel it exactly. A readout of 1e307, -1e307
    and 1e307 keeps the hidden state's gradient finite at every gold label."""
    overflow_input_gradient(values)
    dim, hidden = values["table"].shape[1], len(values["U"])
    values["W"][:, hidden : 2 * hidden] = 1.0
    values["b"][hidden : 2 * hidden] = -dim / 8 - 50
    values["table"][row] = 1 / 8 + 100 / dim
    values["Wy"][...] = [1e307, -1e307, 1e307]


def python_m_depchain(*args, options=()):
    """`python [options] -m depchain args` over this checkout's package (the
    package directory's parent first on PYTHONPATH, as a checkout's src), as
    a finished process with its stdout and stderr as text."""
    src = str(Path(depchain.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *options, "-m", "depchain", *args],
                          capture_output=True, text=True, env=env)


def train_tiny(tmp_path, conllu, events, name="model.ckpt", extra=(), model="lstm"):
    ckpt = str(tmp_path / name)
    rc = main(
        ["train", "--model", model, "--repr", "chain",
         "--conllu", conllu, "--events", events, "--out", ckpt]
        + TINY_HYPERS + list(extra)
    )
    assert rc == 0
    return ckpt


class TestGen:
    def test_outputs_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "data"
        rc = main(["gen", "--out", str(out), "--n", "10", "--seed", "1"])
        assert rc == 0
        assert (out / "corpus.conllu").is_file()
        assert (out / "events.jsonl").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["seed"] == 1
        assert manifest["config"]["n"] == 10
        assert str(out / "corpus.conllu") in manifest["outputs"]
        assert "10 sentences" in capsys.readouterr().out

    def test_deterministic_across_directories(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen", "--out", str(a), "--n", "15", "--seed", "7"])
        main(["gen", "--out", str(b), "--n", "15", "--seed", "7"])
        assert (a / "corpus.conllu").read_bytes() == (b / "corpus.conllu").read_bytes()
        assert (a / "events.jsonl").read_bytes() == (b / "events.jsonl").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen", "--out", str(a), "--n", "15", "--seed", "7"])
        main(["gen", "--out", str(b), "--n", "15", "--seed", "8"])
        assert (a / "corpus.conllu").read_bytes() != (b / "corpus.conllu").read_bytes()

    def test_weights_flag(self, tmp_path):
        out = tmp_path / "w"
        rc = main(["gen", "--out", str(out), "--n", "10", "--seed", "0",
                   "--weights", "0.5,0.3,0.2"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["label_weights"] == [0.5, 0.3, 0.2]

    @pytest.mark.parametrize("bad, message", [
        pytest.param("0.5,0.5", "(0.5, 0.5) is not three real numbers", id="0.5,0.5"),
        pytest.param("0.9,0.3,0.2", "label_weights must sum to 1", id="0.9,0.3,0.2"),
        pytest.param("a,b,c", "--weights must be comma-separated reals", id="a,b,c"),
        pytest.param("-1,1,1", "label_weights must be three reals in [0, 1]", id="-1,1,1"),
        pytest.param("nan,0.5,0.5", "label_weights must be three reals in [0, 1]",
                     id="nan,0.5,0.5"),
    ])
    def test_bad_weights_usage_error(self, tmp_path, capsys, bad, message):
        # "=" keeps argparse from reading "-1,1,1" as an option
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--out", str(tmp_path), "--n", "5", "--seed", "0",
                  f"--weights={bad}"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--n", "0"], "--n: n_sentences must be >= 1, got 0"),
        (["--n", "-3"], "--n: n_sentences must be >= 1, got -3"),
        (["--distractor-len", "-1"], "--distractor-len: distractor_len must be >= 0, got -1"),
        (["--seed", "-1"], "--seed: seed must be >= 0, got -1"),
        (["--weights", "0.5,0.5"],
         "--weights: synth config label_weights (0.5, 0.5) is not three real numbers"),
        (["--weights", "0.5,0.3,0.1,0.1"], "--weights: synth config label_weights (0.5, 0.3, "
                                           "0.1, 0.1) is not three real numbers"),
        (["--weights=-1,1,1"], "--weights: label_weights must be three reals in [0, 1]"),
        (["--weights", "nan,0.5,0.5"], "--weights: label_weights must be three reals in [0, 1]"),
        (["--weights", "0.9,0.3,0.2"], "--weights: label_weights must sum to 1"),
        (["--weights", "a,b,c"], "--weights must be comma-separated reals"),
    ], ids=["n-zero", "n-negative", "distractor-negative", "seed-negative", "weights-two",
            "weights-four", "weights-range", "weights-nan", "weights-sum", "weights-not-reals"])
    def test_synth_config_refusal_is_usage_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--out", str(out), "--n", "5", "--seed", "0", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: depchain ")
        assert err.splitlines()[-1].startswith(f"depchain: error: {message}")
        assert not out.exists()

    def test_emb_dim_writes_embeddings(self, tmp_path):
        out = tmp_path / "e"
        rc = main(["gen", "--out", str(out), "--n", "5", "--seed", "0",
                   "--emb-dim", "8"])
        assert rc == 0
        first = (out / "embeddings.txt").read_text().splitlines()[0]
        assert first.split()[1] == "8"

    def test_out_defaults_to_env_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("DEPCHAIN_DATA_DIR", str(target))
        rc = main(["gen", "--n", "5", "--seed", "0"])
        assert rc == 0
        assert (target / "corpus.conllu").is_file()

    def test_no_out_no_env_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("DEPCHAIN_DATA_DIR", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--n", "5", "--seed", "0"])
        assert exc.value.code == 2


class TestExtract:
    def test_chain_record(self, tmp_path, capsys):
        conllu, events = write_fixture(tmp_path)
        out = str(tmp_path / "chains.jsonl")
        rc = main(["extract", "--conllu", conllu, "--events", events,
                   "--mode", "chain", "--out", out])
        assert rc == 0
        rec = json.loads(Path(out).read_text().splitlines()[0])
        assert rec["forms"] == ["will", "launch", "describing", "their", "protest"]
        assert rec["member_ids"] == [2, 3, 6, 7, 8]
        assert rec["kind"] == "chain"
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["command"] == "extract"
        assert conllu in manifest["inputs"]

    def test_window_half_width_zero(self, tmp_path):
        conllu, events = write_fixture(tmp_path)
        out = str(tmp_path / "win.jsonl")
        rc = main(["extract", "--conllu", conllu, "--events", events,
                   "--mode", "window", "--half-width", "0", "--out", out])
        assert rc == 0
        rec = json.loads(Path(out).read_text().splitlines()[0])
        assert rec["forms"] == ["protest"]
        assert rec["member_ids"] == [8]

    def test_dangling_event_runtime_error(self, tmp_path, capsys):
        conllu, _ = write_fixture(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"doc_id": "ghost", "sent_id": "s9", "token_id": 1, "label": "PA"}\n'
        )
        rc = main(["extract", "--conllu", conllu, "--events", str(bad),
                   "--mode", "chain", "--out", str(tmp_path / "x.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_conllu_file(self, tmp_path, capsys):
        rc = main(["extract", "--conllu", str(tmp_path / "nope.conllu"),
                   "--events", str(tmp_path / "nope.jsonl"),
                   "--mode", "chain", "--out", str(tmp_path / "x.jsonl")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestNonUtf8Input:
    @pytest.mark.parametrize("kind", ["conllu", "events", "embeddings"])
    def test_error_line_names_the_file(self, tmp_path, capsys, kind):
        conllu, events = write_fixture(tmp_path)
        files = {"conllu": conllu, "events": events}
        if kind == "embeddings":
            files["embeddings"] = str(tmp_path / "emb.txt")
            Path(files["embeddings"]).write_bytes(b"1 2\nwill 0.5 0.25\n\xff")
            argv = ["train", "--model", "lstm", "--repr", "chain",
                    "--embeddings", files["embeddings"], "--out", str(tmp_path / "m.ckpt")]
        else:
            bad = Path(files[kind])
            bad.write_bytes(b"\xff\xfe" + bad.read_bytes())  # a UTF-16 byte-order mark
            argv = ["extract", "--mode", "chain", "--out", str(tmp_path / "x.jsonl")]
        rc = main(argv + ["--conllu", files["conllu"], "--events", files["events"]])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"{files[kind]}: not UTF-8 text" in err


BOM = b"\xef\xbb\xbf"  # U+FEFF in UTF-8


class TestByteOrderMark:
    """A file saved with a leading UTF-8 byte-order mark reads as the same
    file without one."""

    @pytest.mark.parametrize("kind", ["conllu", "events"])
    def test_corpus_and_events(self, tmp_path, kind):
        conllu, events = write_fixture(tmp_path)
        argv = ["extract", "--mode", "chain", "--conllu", conllu, "--events", events]
        plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
        assert main(argv + ["--out", str(plain)]) == 0
        path = Path({"conllu": conllu, "events": events}[kind])
        path.write_bytes(BOM + path.read_bytes())
        assert main(argv + ["--out", str(marked)]) == 0
        assert marked.read_bytes() == plain.read_bytes()

    def test_embeddings(self, tmp_path):
        out = tmp_path / "data"
        assert main(["gen", "--out", str(out), "--n", "8", "--seed", "2", "--emb-dim", "6"]) == 0
        emb = out / "embeddings.txt"
        files = [str(out / "corpus.conllu"), str(out / "events.jsonl")]
        extra = ["--embeddings", str(emb)]
        plain = Path(train_tiny(tmp_path, *files, name="plain.ckpt", extra=extra))
        emb.write_bytes(BOM + emb.read_bytes())
        marked = Path(train_tiny(tmp_path, *files, name="marked.ckpt", extra=extra))
        assert marked.read_bytes() == plain.read_bytes()

    def test_bad_byte_offset_counts_the_mark(self, tmp_path, capsys):
        conllu, events = write_fixture(tmp_path)
        Path(conllu).write_bytes(BOM + b"\xff" + Path(conllu).read_bytes())
        rc = main(["extract", "--mode", "chain", "--conllu", conllu, "--events", events,
                   "--out", str(tmp_path / "x.jsonl")])
        assert rc == 1
        assert f"{conllu}: not UTF-8 text (invalid start byte at byte 3)" in capsys.readouterr().err


class TestDeepNesting:
    @pytest.mark.parametrize("kind", ["events", "checkpoint"])
    def test_error_line_not_recursion_error(self, tmp_path, capsys, kind):
        # 100,000 '[' then 100,000 ']' is valid JSON nested past the recursion limit
        deep = b"[" * 100_000 + b"]" * 100_000
        conllu, events = gen_corpus(tmp_path)
        if kind == "events":
            Path(events).write_bytes(deep + b"\n")
            argv = ["extract", "--mode", "chain", "--out", str(tmp_path / "x.jsonl")]
            named = "events line 1"
        else:
            ckpt = train_tiny(tmp_path, conllu, events)
            payload = Path(ckpt).read_bytes().split(b"\n", 1)[1]
            Path(ckpt).write_bytes(deep + b"\n" + payload)
            argv = ["eval", "--model", ckpt]
            named = ckpt
        capsys.readouterr()
        rc = main(argv + ["--conllu", conllu, "--events", events])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err and named in err


class TestTrainEval:
    def test_train_writes_checkpoint_and_manifest(self, tmp_path, capsys):
        conllu, events = gen_corpus(tmp_path)
        ckpt = train_tiny(tmp_path, conllu, events)
        out = capsys.readouterr().out
        assert "checkpoint:" in out
        manifest = json.loads(Path(ckpt + ".manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["model_type"] == "lstm"
        assert ckpt in manifest["outputs"]

    def test_train_deterministic(self, tmp_path):
        conllu, events = gen_corpus(tmp_path)
        a = train_tiny(tmp_path, conllu, events, name="a.ckpt")
        b = train_tiny(tmp_path, conllu, events, name="b.ckpt")
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_eval_prints_table_and_writes_report(self, tmp_path, capsys):
        conllu, events = gen_corpus(tmp_path)
        ckpt = train_tiny(tmp_path, conllu, events)
        capsys.readouterr()
        report = str(tmp_path / "report.json")
        rc = main(["eval", "--model", ckpt, "--conllu", conllu,
                   "--events", events, "--out", report])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["PA", "OG", "FU", "Macro", "Micro"]
        assert out.splitlines()[1].startswith("test")
        doc = json.loads(Path(report).read_text())
        assert doc["n"] == 12
        assert set(doc["per_class"]) == {"PA", "OG", "FU"}

    def test_eval_missing_checkpoint(self, tmp_path, capsys):
        conllu, events = gen_corpus(tmp_path)
        rc = main(["eval", "--model", str(tmp_path / "nope.ckpt"),
                   "--conllu", conllu, "--events", events])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_bad_checkpoint(self, tmp_path, capsys):
        conllu, events = gen_corpus(tmp_path)
        ckpt = train_tiny(tmp_path, conllu, events)
        with open(ckpt, "rb") as f:
            header, payload = f.read().split(b"\n", 1)
        header = header.replace(b'"model_type": "lstm"', b'"model_type": "cnn"')
        with open(ckpt, "wb") as f:
            f.write(header + b"\n" + payload)
        capsys.readouterr()
        rc = main(["eval", "--model", ckpt, "--conllu", conllu, "--events", events])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "do not fit a cnn model" in err

    @pytest.mark.parametrize("command,version", [
        *(pytest.param(c, 2, id=c) for c in ("eval", "saliency")),
        # version 3 held the same parameter count in another gate order
        *(pytest.param(c, 3, id=f"{c}-v3") for c in ("eval", "saliency")),
    ])
    def test_version_2_checkpoint_rejected(self, tmp_path, capsys, command, version):
        conllu, events = gen_corpus(tmp_path)
        ckpt = Path(train_tiny(tmp_path, conllu, events))
        old = f'"format_version": {version}'.encode()
        ckpt.write_bytes(ckpt.read_bytes().replace(b'"format_version": 4', old, 1))
        capsys.readouterr()
        rc = main([command, "--model", str(ckpt), "--conllu", conllu, "--events", events,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"format_version {version}" in err

    @pytest.mark.parametrize("command", ["eval", "saliency"])
    def test_bool_dim_checkpoint_rejected(self, tmp_path, capsys, command):
        conllu, events = gen_corpus(tmp_path)
        ckpt = Path(train_tiny(tmp_path, conllu, events))
        data = ckpt.read_bytes()
        assert b'"dim": 6' in data  # --emb-dim 6
        ckpt.write_bytes(data.replace(b'"dim": 6', b'"dim": true', 1))
        capsys.readouterr()
        rc = main([command, "--model", str(ckpt), "--conllu", conllu, "--events", events,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'dim'" in err and "Traceback" not in err

    def test_unallocatable_embeddings_dim(self, tmp_path, capsys):
        # numpy refuses a (1, 2**62) array before allocating any of it
        conllu, events = gen_corpus(tmp_path)
        emb = tmp_path / "emb.txt"
        emb.write_text(f"0 {2**62}\n")
        capsys.readouterr()
        rc = main(["train", "--model", "lstm", "--repr", "chain", "--conllu", conllu,
                   "--events", events, "--embeddings", str(emb),
                   "--out", str(tmp_path / "m.ckpt")] + TINY_HYPERS)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: ") and "Traceback" not in err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command", ["eval", "saliency"])
    def test_non_finite_checkpoint_value(self, tmp_path, capsys, command):
        conllu, events = gen_corpus(tmp_path)
        ckpt = train_tiny(tmp_path, conllu, events)
        with open(ckpt, "rb") as f:
            header, payload = f.read().split(b"\n", 1)
        doc = json.loads(header)
        offset = 0
        for name, shape in param_shapes("lstm", doc["dim"], doc["config"]["hidden"]).items():
            if name == "Wy":
                break
            offset += 8 * math.prod(shape)
        nan = np.array([np.nan], dtype="<f8").tobytes()
        with open(ckpt, "wb") as f:
            f.write(header + b"\n" + payload[:offset] + nan + payload[offset + 8:])
        capsys.readouterr()
        rc = main([command, "--model", ckpt, "--conllu", conllu, "--events", events,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "parameter 'Wy' has a non-finite value" in err

    def test_saliency_logits_overflowing_finite_weights(self, tmp_path, capsys):
        conllu, events = gen_corpus(tmp_path)
        ckpt = overflowing_checkpoint(tmp_path, conllu, events)
        capsys.readouterr()
        out = tmp_path / "out"
        rc = main(["saliency", "--model", ckpt, "--conllu", conllu, "--events", events,
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err
        first = json.loads(Path(events).read_text().splitlines()[0])
        assert ckpt in err and "non-finite logits" in err
        assert f"{first['doc_id']}/{first['sent_id']} token {first['token_id']}" in err
        assert not out.exists() or not any(out.iterdir())

    def test_saliency_gradient_overflowing_finite_weights(self, tmp_path, capsys):
        # finite logits, but scores past float64's range, which SaliencyMap
        # refuses: an error line naming the mention, no heatmap
        conllu, events = gen_corpus(tmp_path)
        ckpt = overflowing_checkpoint(tmp_path, conllu, events, overflow_input_gradient)
        capsys.readouterr()
        out = tmp_path / "out"
        rc = main(["saliency", "--model", ckpt, "--conllu", conllu, "--events", events,
                   "--out", str(out)])
        err = capsys.readouterr().err
        first = json.loads(Path(events).read_text().splitlines()[0])
        assert rc == 1
        assert re.fullmatch(
            rf"error: {re.escape(ckpt)}: mention {first['doc_id']}/{first['sent_id']} token "
            rf"{first['token_id']}: position \d+: saliency score (nan|inf) is not a finite "
            rf"nonnegative number\n", err), err
        assert not out.exists() or not any(out.iterdir())
        assert main(["eval", "--model", ckpt, "--conllu", conllu, "--events", events]) == 0

    @pytest.mark.parametrize("model,fault", [("cnn", "logits"), ("lstm", "gradient")])
    def test_saliency_names_a_later_mention_of_its_batch(self, tmp_path, capsys, model, fault):
        # one mention alone, in the second batch and not first in it, reads a
        # rigged table row: non-finite logits stop its batch before any map;
        # a refused score stops after the maps before it
        conllu, events = gen_corpus(tmp_path)
        ckpt = train_tiny(tmp_path, conllu, events, model=model)
        trained = load_trained(ckpt)
        sents = parse_conllu(Path(conllu).read_text())
        mentions = load_events(Path(events).read_text(), sents)
        j, row = lone_reader(trained, sents, mentions)
        batch_size = trained.config.batch_size
        assert j > batch_size  # a later batch; lone_reader keeps j from being first in it
        if fault == "logits":
            trained.table.vectors[row] = 1.7e308
            trained.model.params["Wconv"][...] = 1.0
            written = j - j % batch_size
        else:
            overflow_one_input_gradient(
                dict(trained.model.params.values, table=trained.table.vectors), row)
            written = j
        save_trained(trained, ckpt)
        capsys.readouterr()
        out = tmp_path / "out"
        rc = main(["saliency", "--model", ckpt, "--conllu", conllu, "--events", events,
                   "--out", str(out), "--format", "csv"])
        err = capsys.readouterr().err
        m = mentions[j]
        assert rc == 1
        if fault == "logits":
            assert err == (f"error: {ckpt}: non-finite logits at mention "
                           f"{m.doc_id}/{m.sent_id} token {m.token_id}\n")
        else:
            assert re.fullmatch(
                rf"error: {re.escape(ckpt)}: mention {m.doc_id}/{m.sent_id} token "
                rf"{m.token_id}: position \d+: saliency score inf is not a finite "
                rf"nonnegative number\n", err), err
        assert sorted(os.listdir(out)) == sorted(
            heatmap_filename(x.doc_id, x.sent_id, x.token_id, "csv") for x in mentions[:written])

    def test_eval_logits_overflowing_finite_weights(self, tmp_path, capsys):
        conllu, events = gen_corpus(tmp_path)
        ckpt = overflowing_checkpoint(tmp_path, conllu, events)
        capsys.readouterr()
        report = tmp_path / "report.json"
        rc = main(["eval", "--model", ckpt, "--conllu", conllu, "--events", events,
                   "--out", str(report)])
        captured = capsys.readouterr()
        first = json.loads(Path(events).read_text().splitlines()[0])
        assert rc == 1
        assert captured.err == (f"error: {ckpt}: non-finite logits at mention "
                                f"{first['doc_id']}/{first['sent_id']} token {first['token_id']}\n")
        assert captured.out == "" and not report.exists()

    @pytest.mark.parametrize("command", ["eval", "saliency"])
    def test_overflowing_logits_print_the_error_line_alone(self, tmp_path, command):
        # a process of its own, as a user runs it: no numpy warning about the
        # overflow comes before the error line
        conllu, events = gen_corpus(tmp_path)
        ckpt = overflowing_checkpoint(tmp_path, conllu, events)
        proc = python_m_depchain(command, "--model", ckpt, "--conllu", conllu,
                                 "--events", events, "--out", str(tmp_path / "out"))
        first = json.loads(Path(events).read_text().splitlines()[0])
        assert proc.returncode == 1
        assert proc.stderr == (f"error: {ckpt}: non-finite logits at mention "
                               f"{first['doc_id']}/{first['sent_id']} token {first['token_id']}\n")

    def test_tree_repr_mismatch_usage_error(self, tmp_path, capsys):
        # a window's tokens need not form one tree, so treelstm refuses it,
        # before reading the (missing) corpus, which would exit 1
        with pytest.raises(SystemExit) as exc:
            main(["train", "--model", "treelstm", "--repr", "window",
                  "--conllu", str(tmp_path / "nope.conllu"),
                  "--events", str(tmp_path / "nope.jsonl"),
                  "--out", str(tmp_path / "x.ckpt")] + TINY_HYPERS)
        assert exc.value.code == 2
        assert "window" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


    def test_target_readout_needs_treelstm_usage_error(self, tmp_path, capsys):
        conllu, events = gen_corpus(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["train", "--model", "lstm", "--repr", "chain", "--tree-readout", "target",
                  "--conllu", conllu, "--events", events,
                  "--out", str(tmp_path / "x.ckpt")] + TINY_HYPERS)
        assert exc.value.code == 2
        assert "tree_readout" in capsys.readouterr().err

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_usage_error(self, tmp_path, capsys, lr):
        conllu, events = gen_corpus(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["train", "--model", "lstm", "--repr", "chain", "--lr", lr,
                  "--conllu", conllu, "--events", events,
                  "--out", str(tmp_path / "x.ckpt")] + TINY_HYPERS)
        assert exc.value.code == 2
        assert "learning_rate" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    @staticmethod
    def forbid_work(monkeypatch):
        """Make training, cross-validation and evaluation fail if reached."""
        def reached(*args, **kwargs):
            raise AssertionError("an unwritable output must be refused before any work")
        for name in ("train", "cross_validate", "evaluate"):
            monkeypatch.setattr(cli, name, reached)

    @pytest.mark.parametrize("command", ["train", "eval", "cv", "extract"])
    def test_unwritable_out_names_the_given_path(self, tmp_path, capsys, monkeypatch, command):
        # an artifact is written through a hidden temp file beside it; when
        # its directory is missing, the error line names the path given, and
        # train, eval and cv say so before any work
        conllu, events = gen_corpus(tmp_path)
        out = str(tmp_path / "nodir" / "artifact")
        data = ["--conllu", conllu, "--events", events, "--out", out]
        argv = {
            "train": ["train", "--model", "lstm", "--repr", "chain"] + data + TINY_HYPERS,
            "eval": ["eval", "--model", train_tiny(tmp_path, conllu, events)] + data,
            "cv": ["cv", "--model", "lstm", "--repr", "chain", "--folds", "2"]
                  + data + TINY_HYPERS,
            "extract": ["extract", "--mode", "chain"] + data,
        }[command]
        self.forbid_work(monkeypatch)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: {out!r}\n"
        assert not (tmp_path / "nodir").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "cv"])
    def test_out_that_is_a_directory_refused_before_any_work(self, tmp_path, capsys,
                                                             monkeypatch, command):
        conllu, events = gen_corpus(tmp_path)
        model = train_tiny(tmp_path, conllu, events)
        out = tmp_path / "taken"
        out.mkdir()
        data = ["--conllu", conllu, "--events", events, "--out", str(out)]
        argv = {
            "train": ["train", "--model", "lstm", "--repr", "chain"] + data + TINY_HYPERS,
            "eval": ["eval", "--model", model] + data,
            "cv": ["cv", "--model", "lstm", "--repr", "chain", "--folds", "2"]
                  + data + TINY_HYPERS,
        }[command]
        self.forbid_work(monkeypatch)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(out)!r}\n"
        assert out.is_dir() and not any(out.iterdir())

    def test_save_models_on_a_file_refused_before_any_work(self, tmp_path, capsys, monkeypatch):
        conllu, events = gen_corpus(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        self.forbid_work(monkeypatch)
        capsys.readouterr()
        assert main(["cv", "--model", "lstm", "--repr", "chain", "--folds", "2",
                     "--conllu", conllu, "--events", events,
                     "--save-models", str(taken)] + TINY_HYPERS) == 1
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: {str(taken)!r}\n"
        assert taken.read_text() == "not a directory\n"


class TestCv:
    def test_report_and_fold_models(self, tmp_path, capsys):
        conllu, events = gen_corpus(tmp_path)
        capsys.readouterr()  # drop the gen command's output
        models_dir = tmp_path / "folds"
        report = str(tmp_path / "cv.json")
        rc = main(["cv", "--model", "lstm", "--repr", "chain",
                   "--conllu", conllu, "--events", events,
                   "--folds", "3", "--out", report,
                   "--save-models", str(models_dir)] + TINY_HYPERS)
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("fold sizes: 4 4 4")
        assert "pooled" in out
        for i in range(3):
            assert (models_dir / f"fold_{i}.ckpt").is_file()
        doc = json.loads(Path(report).read_text())
        assert len(doc["folds"]) == 3
        assert doc["pooled"]["n"] == 12
        manifest = json.loads(Path(report + ".manifest.json").read_text())
        assert manifest["config"]["folds"] == 3
        assert not (models_dir / "manifest.json").exists()

    def test_fold_models_without_report_get_a_manifest(self, tmp_path, capsys):
        conllu, events = gen_corpus(tmp_path)
        models_dir = tmp_path / "folds"
        rc = main(["cv", "--model", "lstm", "--repr", "chain",
                   "--conllu", conllu, "--events", events,
                   "--folds", "3", "--save-models", str(models_dir)] + TINY_HYPERS)
        assert rc == 0
        ckpts = [f"fold_{i}.ckpt" for i in range(3)]
        assert sorted(p.name for p in models_dir.iterdir()) == ckpts + ["manifest.json"]
        manifest = json.loads((models_dir / "manifest.json").read_text())
        assert manifest["command"] == "cv" and manifest["config"]["folds"] == 3
        assert sorted(manifest["inputs"]) == sorted([conllu, events])
        assert manifest["outputs"] == {
            str(models_dir / name): hashlib.sha256((models_dir / name).read_bytes()).hexdigest()
            for name in ckpts}

    def test_jobs_do_not_change_stdout(self, tmp_path, capsys):
        conllu, events = gen_corpus(tmp_path)
        capsys.readouterr()  # drop the gen command's output
        args = ["cv", "--model", "lstm", "--repr", "chain",
                "--conllu", conllu, "--events", events,
                "--folds", "3"] + TINY_HYPERS
        assert main(args + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_fold_with_overflowing_logits_is_an_error_line(self, tmp_path, capsys,
                                                              monkeypatch):
        # each fold's model overflows its test mentions' logits once trained
        def overflowing_train(*args, **kwargs):
            trained = real_train(*args, **kwargs)
            overflow_logits(trained.model.params.values)
            return trained

        real_train = harness.train
        monkeypatch.setattr(harness, "train", overflowing_train)
        conllu, events = gen_corpus(tmp_path)
        capsys.readouterr()
        rc = main(["cv", "--folds", "3", "--model", "lstm", "--repr", "chain",
                   "--conllu", conllu, "--events", events] + TINY_HYPERS)
        err = capsys.readouterr().err
        assert rc == 1
        assert re.fullmatch(r"error: fold 0: non-finite logits at mention \S+/\S+ token \d+\n",
                            err), err

    def test_bad_folds_usage_error(self, tmp_path):
        conllu, events = gen_corpus(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["cv", "--model", "lstm", "--repr", "chain",
                  "--conllu", conllu, "--events", events, "--folds", "1"])
        assert exc.value.code == 2


class TestSaliency:
    def test_csv_heatmaps_per_mention(self, tmp_path, capsys):
        conllu, events = gen_corpus(tmp_path, n=5, seed=2)
        ckpt = train_tiny(tmp_path, conllu, events)
        out = tmp_path / "heat"
        rc = main(["saliency", "--model", ckpt, "--conllu", conllu,
                   "--events", events, "--out", str(out), "--format", "csv"])
        assert rc == 0
        files = sorted(p.name for p in out.iterdir())
        assert "manifest.json" in files
        csvs = [f for f in files if f.endswith(".csv")]
        assert len(csvs) == 5
        smap = parse_heatmap_csv((out / csvs[0]).read_text())
        assert len(smap) > 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "saliency"
        assert manifest["config"]["format"] == "csv"
        assert len(manifest["outputs"]) == 5

    def test_mentions_sharing_a_heatmap_name_rejected(self, tmp_path, capsys):
        # sentence ids s.1 and s-1 both sanitize to s-1
        conllu = tmp_path / "c.conllu"
        second = FIXTURE.replace("# newdoc id = doc1\n# sent_id = s1", "# sent_id = s-1")
        conllu.write_text(FIXTURE.replace("sent_id = s1", "sent_id = s.1") + "\n" + second)
        events = tmp_path / "e.jsonl"
        events.write_text(EVENTS.replace('"s1", "token_id": 8, "label": "FU"',
                                         '"s.1", "token_id": 8, "label": "PA"')
                          + EVENTS.replace('"s1"', '"s-1"'))
        ckpt = train_tiny(tmp_path, str(conllu), str(events))
        out = tmp_path / "heat"
        capsys.readouterr()
        rc = main(["saliency", "--model", ckpt, "--conllu", str(conllu),
                   "--events", str(events), "--out", str(out), "--format", "csv"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert "doc1/s.1 token 8" in err and "doc1/s-1 token 8" in err
        assert "doc1_s-1_8.csv" in err
        assert not out.exists()  # nothing written

    def test_same_mention_twice_writes_its_heatmap(self, tmp_path, capsys):
        conllu, events = write_fixture(tmp_path)
        Path(events).write_text(EVENTS * 2)
        ckpt = train_tiny(tmp_path, conllu, events)
        out = tmp_path / "heat"
        capsys.readouterr()
        rc = main(["saliency", "--model", ckpt, "--conllu", conllu,
                   "--events", events, "--out", str(out), "--format", "csv"])
        assert rc == 0
        assert "wrote 2 heatmaps" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == ["doc1_s1_8.csv", "manifest.json"]

    def test_html_default_format(self, tmp_path):
        conllu, events = gen_corpus(tmp_path, n=3, seed=2)
        ckpt = train_tiny(tmp_path, conllu, events)
        out = tmp_path / "heat"
        rc = main(["saliency", "--model", ckpt, "--conllu", conllu,
                   "--events", events, "--out", str(out)])
        assert rc == 0
        htmls = [p for p in out.iterdir() if p.suffix == ".html"]
        assert len(htmls) == 3
        body = htmls[0].read_text()
        assert body.startswith("<!DOCTYPE html>")
        assert "gold:" in body

    def test_at_predicted_on_unlabeled_events(self, tmp_path):
        conllu, events = gen_corpus(tmp_path, n=3, seed=2)
        ckpt = train_tiny(tmp_path, conllu, events)
        stripped = tmp_path / "unlabeled.jsonl"
        lines = []
        for line in Path(events).read_text().splitlines():
            rec = json.loads(line)
            rec["label"] = None
            lines.append(json.dumps(rec))
        stripped.write_text("\n".join(lines) + "\n")
        out = tmp_path / "heat"
        rc = main(["saliency", "--model", ckpt, "--conllu", conllu,
                   "--events", str(stripped), "--out", str(out),
                   "--format", "html", "--at-predicted"])
        assert rc == 0
        body = next(p for p in out.iterdir() if p.suffix == ".html").read_text()
        assert "gold: -" in body

    def test_out_defaults_to_env_dir(self, tmp_path, monkeypatch):
        conllu, events = gen_corpus(tmp_path, n=3, seed=2)
        ckpt = train_tiny(tmp_path, conllu, events)
        target = tmp_path / "env-heat"
        monkeypatch.setenv("DEPCHAIN_DATA_DIR", str(target))
        rc = main(["saliency", "--model", ckpt, "--conllu", conllu,
                   "--events", events, "--format", "csv"])
        assert rc == 0
        assert (target / "manifest.json").is_file()


class TestAnyReader:
    @pytest.mark.parametrize("model,representation",
                             [("treelstm", "chain"), ("lstm", "tree"), ("cnn", "tree")])
    def test_new_pair_runs_every_command(self, tmp_path, capsys, model, representation):
        conllu, events = gen_corpus(tmp_path, n=6, seed=4)
        pair = ["--model", model, "--repr", representation]
        ckpt = train_tiny(tmp_path, conllu, events, extra=pair)
        data = ["--conllu", conllu, "--events", events]
        assert main(["eval", "--model", ckpt, *data, "--out", str(tmp_path / "e.json")]) == 0
        assert main(["cv", *data, "--folds", "2", *pair, *TINY_HYPERS,
                     "--out", str(tmp_path / "cv.json")]) == 0
        assert main(["saliency", "--model", ckpt, *data, "--out", str(tmp_path / "heat"),
                     "--format", "csv"]) == 0
        assert json.loads((tmp_path / "e.json").read_text())["n"] == 6
        assert json.loads((tmp_path / "cv.json").read_text())["pooled"]["n"] == 6
        # one heatmap per mention, over the representation's tokens
        sents = parse_conllu(Path(conllu).read_text())
        mentions = load_events(Path(events).read_text(), sents)
        by_key = index_sentences(sents)
        assert len(list((tmp_path / "heat").glob("*.csv"))) == len(mentions) == 6
        for m in mentions:
            sent = by_key[(m.doc_id, m.sent_id)]
            ids = representation_ids(sent, m.token_id, representation)
            name = heatmap_filename(m.doc_id, m.sent_id, m.token_id, "csv")
            smap = parse_heatmap_csv((tmp_path / "heat" / name).read_text())
            assert list(smap.tokens) == [sent.token(i).form for i in ids]


class TestGradcheck:
    def test_pass_exit_zero(self, capsys):
        rc = main(["gradcheck", "--model", "cnn", "--n-seeds", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed 0: max relative error" in out
        assert "seed 1: max relative error" in out
        assert "PASS" in out.splitlines()[-1]

    def test_bad_n_seeds_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--model", "cnn", "--n-seeds", "0"])
        assert exc.value.code == 2

    def test_bad_length_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--model", "lstm", "--length", "0"])
        assert exc.value.code == 2


HUGE = str(2**62)  # numpy refuses any array this long before allocating it


class TestUnallocatableSize:
    @pytest.mark.parametrize("argv", [
        ["train", "--model", "lstm", "--repr", "chain", "--emb-dim", HUGE],
        ["train", "--model", "cnn", "--repr", "chain", "--hidden", HUGE],
        ["cv", "--folds", "2", "--model", "treelstm", "--repr", "tree", "--hidden", HUGE],
        ["cv", "--folds", "2", "--model", "lstm", "--repr", "window", "--emb-dim", HUGE],
        ["gradcheck", "--model", "lstm", "--dim", HUGE],
        ["gradcheck", "--model", "cnn", "--hidden", HUGE],
        ["gradcheck", "--model", "treelstm", "--hidden", HUGE],
        ["gen", "--n", "5", "--seed", "1", "--emb-dim", HUGE],
        ["gen", "--n", HUGE, "--seed", "1"],
    ], ids=["train-emb-dim", "train-hidden", "cv-hidden", "cv-emb-dim", "gradcheck-dim",
            "gradcheck-cnn-hidden", "gradcheck-treelstm-hidden", "gen-emb-dim", "gen-n"])
    def test_error_line_and_nothing_written(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        if argv[0] in ("train", "cv"):
            conllu, events = gen_corpus(tmp_path)
            # the huge size comes last, so it overrides the tiny one
            argv = argv[:1] + ["--conllu", conllu, "--events", events] + TINY_HYPERS + argv[1:]
        if argv[0] != "gradcheck":
            argv = argv + ["--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cannot allocate" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--model", "cnn", "--hidden", "0"],
        ["gradcheck", "--model", "treelstm", "--hidden", "-1"],
        ["gradcheck", "--model", "cnn", "--dim", "0"],
        ["gradcheck", "--model", "lstm", "--dim", "0"],
        ["gen", "--out", "data", "--n", "5", "--seed", "1", "--emb-dim", "0"],
        ["gen", "--out", "data", "--n", "5", "--seed", "1", "--emb-dim", "-3"],
        ["gen", "--out", "data", "--n", "5", "--seed", "1", "--distractor-len", "-1"],
        ["gen", "--out", "data", "--n", "5", "--seed", "-1"],
        ["gen", "--out", "data", "--n", "5", "--seed", "-1", "--emb-dim", "4"],
        ["extract", "--conllu", "nope.conllu", "--events", "nope.jsonl", "--mode", "chain",
         "--half-width", "-1", "--out", "x.jsonl"],
        ["train", "--conllu", "nope.conllu", "--events", "nope.jsonl", "--model", "lstm",
         "--repr", "chain", "--seed", "-1", "--out", "x.ckpt"],
        ["cv", "--conllu", "nope.conllu", "--events", "nope.jsonl", "--model", "lstm",
         "--repr", "chain", "--seed", "-1", "--out", "x.json"],
        ["gradcheck", "--model", "lstm", "--seed", "-1"],
    ], ids=["cnn-hidden-0", "treelstm-hidden-neg", "cnn-dim-0", "lstm-dim-0", "gen-emb-dim-0",
            "gen-emb-dim-neg", "gen-distractor-neg", "gen-seed-neg", "gen-seed-neg-emb-dim",
            "extract-half-width-neg",
            "train-seed-neg", "cv-seed-neg", "gradcheck-seed-neg"])
    def test_numeric_flag_usage_error_writes_nothing(self, tmp_path, monkeypatch, argv):
        # checked before any file is read or written: the missing corpus of
        # the extract case would otherwise exit 1 naming the file
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_no_arguments_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_version_in_process(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "depchain 0.1.0" in capsys.readouterr().out

    @pytest.mark.parametrize("command,extra", [("train", ["--out", "m.ckpt"]), ("cv", [])])
    def test_hyper_flag_defaults_are_train_config_defaults(self, command, extra):
        parser = build_parser()
        args = parser.parse_args([command, "--model", "cnn", "--repr", "window",
                                  "--conllu", "c", "--events", "e"] + extra)
        assert _config_from_args(parser, args) == TrainConfig("cnn", "window")

    def test_python_m_depchain(self):
        proc = python_m_depchain("--version")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "depchain 0.1.0\n"

    def test_console_entry_point_is_what_python_m_runs(self):
        # the [project.scripts] target an install would put on PATH is the
        # main that `python -m depchain` runs (test_python_m_depchain runs
        # that command), so tier-1 checks the entry point without PATH
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        module, _, name = target["depchain"].partition(":")
        assert getattr(importlib.import_module(module), name) is depchain.cli.main
        assert importlib.import_module("depchain.__main__").main is depchain.cli.main

    @pytest.mark.skipif(
        shutil.which("depchain") is None,
        reason="no `depchain` command on PATH; it comes from the README "
        "install step `pip install -e . --no-build-isolation`",
    )
    def test_console_script_installed(self):
        proc = subprocess.run(
            ["depchain", "--version"], capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "depchain 0.1.0" in proc.stdout


class TestNoStrayWarnings:
    def test_pipeline_under_warnings_as_errors(self, tmp_path):
        # every command of a small lstm-over-chain run, with any Python or
        # numpy warning turned into an error: each exits 0 and writes
        # nothing to stderr
        data, ckpt = tmp_path / "data", str(tmp_path / "model.ckpt")
        conllu, events = str(data / "corpus.conllu"), str(data / "events.jsonl")
        inputs = ["--conllu", conllu, "--events", events]
        model = ["--model", "lstm", "--repr", "chain", *TINY_HYPERS]
        for args in (["gen", "--out", str(data), "--n", "12", "--seed", "3"],
                     ["train", *model, *inputs, "--out", ckpt],
                     ["eval", "--model", ckpt, *inputs, "--out", str(tmp_path / "eval.json")],
                     ["saliency", "--model", ckpt, *inputs, "--out", str(tmp_path / "maps")],
                     ["cv", *model, "--folds", "3", *inputs, "--out", str(tmp_path / "cv.json")]):
            proc = python_m_depchain(*args, options=["-W", "error"])
            assert (proc.returncode, proc.stderr) == (0, ""), args[0]


class TestPhysicalMemoryBound:
    """Sizes numpy would allocate but the machine cannot hold end in an
    error line before any parameter exists; os.sysconf is patched so the
    test machine looks small and nothing large is allocated."""

    @staticmethod
    def small_machine(monkeypatch, pages):
        real = os.sysconf

        def sysconf(name):
            return {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}.get(name) or real(name)

        monkeypatch.setattr(os, "sysconf", sysconf)

    @pytest.mark.parametrize("argv", [
        ["train", "--model", "lstm", "--repr", "chain", "--hidden", "400"],
        ["train", "--model", "cnn", "--repr", "chain", "--emb-dim", "9000"],
        ["cv", "--folds", "2", "--model", "treelstm", "--repr", "tree", "--hidden", "400"],
        ["cv", "--folds", "2", "--model", "lstm", "--repr", "window", "--emb-dim", "20000"],
        ["gradcheck", "--model", "lstm", "--hidden", "700"],
        ["gradcheck", "--model", "cnn", "--dim", "30000"],
    ], ids=["train-hidden", "train-emb-dim", "cv-hidden", "cv-emb-dim", "gradcheck-hidden",
            "gradcheck-dim"])
    def test_error_line_and_nothing_written(self, tmp_path, capsys, monkeypatch, argv):
        out = tmp_path / "out"
        if argv[0] in ("train", "cv"):
            conllu, events = gen_corpus(tmp_path)
            argv = argv[:1] + ["--conllu", conllu, "--events", events] + TINY_HYPERS + argv[1:]
            argv = argv + ["--out", str(out)]
        self.small_machine(monkeypatch, pages=1024)  # 4 MiB
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot allocate ") and "GiB" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_sizes_that_fit_still_run(self, tmp_path, monkeypatch):
        conllu, events = gen_corpus(tmp_path)
        self.small_machine(monkeypatch, pages=1024)
        train_tiny(tmp_path, conllu, events)  # asserts exit 0

    def test_unknown_memory_size_skips_the_check(self, monkeypatch, capsys):
        def sysconf(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(os, "sysconf", sysconf)
        assert main(["gradcheck", "--model", "cnn", "--n-seeds", "1"]) == 0


class TestBlasThreads:
    """numpy's OpenBLAS runs on one thread whatever the environment asks,
    so a product rounds the same on any machine."""

    def test_checkpoint_bytes_do_not_depend_on_the_thread_count(self, tmp_path):
        # default sizes (hidden 300, dim 300): two threads split the products
        conllu, events = gen_corpus(tmp_path, n=3, seed=5)
        src = str(Path(depchain.__file__).resolve().parent.parent)
        ckpts = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            ckpt = tmp_path / f"threads{threads}.ckpt"
            proc = subprocess.run(
                [sys.executable, "-m", "depchain", "train", "--model", "lstm", "--repr", "chain",
                 "--epochs", "1", "--hidden", "300", "--emb-dim", "300",
                 "--conllu", conllu, "--events", events, "--out", str(ckpt)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            ckpts.append(ckpt.read_bytes())
        assert ckpts[0] == ckpts[1]

    def test_manifest_records_the_library_and_its_threads(self, tmp_path):
        conllu, events = gen_corpus(tmp_path)
        ckpt = train_tiny(tmp_path, conllu, events)
        for path in (tmp_path / "data" / "manifest.json", Path(ckpt + ".manifest.json")):
            blas = json.loads(path.read_text())["blas"]
            assert blas == blas_info()
            assert blas["threads"] in (1, None)  # None: no thread count to read
