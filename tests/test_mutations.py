"""Seeded mutations of every input format: each case parses or raises a DepchainError.

CoNLL-U, event and embedding texts are truncated, byte-flipped and
line-edited. Checkpoints are truncated, byte-flipped, and have NaN or inf
written into one payload float; each must load with finite values or raise
CheckpointError. Corpus, events and embeddings files are byte-flipped,
truncated and grown by inserted bytes, then run through the command line,
which must exit 0, or exit 1 with an error line. numpy's seeded generator
drives every choice, so a failure names a case that reruns the same way.
"""

from collections import Counter

import numpy as np
import pytest

from depchain import (
    CheckpointError,
    DepchainError,
    SynthConfig,
    TrainConfig,
    TrainedModel,
    generate_synthetic,
    load_events,
    load_trained,
    parse_conllu,
    save_trained,
    serialize_conllu,
    serialize_events,
    synthetic_vocabulary,
)
from depchain.cli import main
from depchain.models import build_model
from depchain.nncore import load_embeddings, random_embeddings, write_embeddings

CORPUS, MENTIONS = generate_synthetic(SynthConfig(n_sentences=8, seed=1, distractor_len=3))

# Replacement fields and whole lines that sit near the formats' edge cases.
FIELDS = ["0", "-1", "x", "_", "3-4", "1.1", "", "nan", "inf", "1e400", "null", "true", "99", '"']
LINES = [
    "", "  ", "#", "# sent_id = s00001", "# newdoc id = d9", "# sent_id",
    "1\tx\t_\t_\t_\t_\t0\troot\t_\t_", "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_",
    '{"doc_id": "d0000", "sent_id": "s00001", "token_id": 1, "label": null}',
    "{}", "[]", "2 3", "w 1 2 3",
]


def _edit_lines(text: str, rng: np.random.Generator) -> str:
    lines = text.split("\n")
    i = int(rng.integers(len(lines)))
    op = int(rng.integers(5))
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2:
        lines.insert(i, LINES[int(rng.integers(len(LINES)))])
    elif op == 3:
        j = int(rng.integers(len(lines)))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        sep = "\t" if "\t" in lines[i] else " "
        parts = lines[i].split(sep)
        parts[int(rng.integers(len(parts)))] = FIELDS[int(rng.integers(len(FIELDS)))]
        lines[i] = sep.join(parts)
    return "\n".join(lines)


def _mutate_text(text: str, rng: np.random.Generator) -> str:
    kind = int(rng.integers(3))
    if kind == 0:
        return text[: int(rng.integers(len(text) + 1))]
    if kind == 1:
        data = bytearray(text.encode("utf-8"))
        for _ in range(int(rng.integers(1, 4))):
            data[int(rng.integers(len(data)))] ^= 1 << int(rng.integers(8))
        return data.decode("utf-8", errors="replace")
    for _ in range(int(rng.integers(1, 4))):
        text = _edit_lines(text, rng)
    return text


TEXT_CASES = {
    "conllu": (serialize_conllu(CORPUS), parse_conllu),
    "events": (serialize_events(MENTIONS), lambda text: load_events(text, CORPUS)),
    "embeddings": (
        write_embeddings(random_embeddings(synthetic_vocabulary()[:12], 3, seed=0)),
        load_embeddings,
    ),
}


@pytest.mark.parametrize("fmt", sorted(TEXT_CASES))
def test_text_mutations_parse_or_raise_depchain_error(fmt):
    base, parse = TEXT_CASES[fmt]
    rng = np.random.default_rng(7)
    outcomes = {"parsed": 0, "rejected": 0}
    for case in range(3000):
        text = _mutate_text(base, rng)
        try:
            parse(text)
        except DepchainError:
            outcomes["rejected"] += 1
        except Exception as e:  # noqa: BLE001 - any other type is the failure
            pytest.fail(f"{fmt} case {case}: {type(e).__name__}: {e}\n{text!r}")
        else:
            outcomes["parsed"] += 1
    assert outcomes["parsed"] and outcomes["rejected"], outcomes


def test_checkpoint_mutations_load_finite_or_raise_checkpoint_error(tmp_path):
    table = random_embeddings(["uno", "dos", "tres"], 4, seed=1)
    model = build_model("lstm", table.vectors, 3, np.random.default_rng(0))
    config = TrainConfig("lstm", "chain", hidden=3, embedding_dim=4)
    path = tmp_path / "m.ckpt"
    save_trained(TrainedModel(model=model, table=table, config=config), str(path))
    base = path.read_bytes()
    payload_start = base.index(b"\n") + 1
    n_floats = (len(base) - payload_start) // 8
    rng = np.random.default_rng(11)
    outcomes = {"loaded": 0, "rejected": 0}
    for case in range(1000):
        data = bytearray(base)
        kind = int(rng.integers(3))
        if kind == 0:
            data = data[: int(rng.integers(len(data)))]
        elif kind == 1:
            for _ in range(int(rng.integers(1, 4))):
                data[int(rng.integers(len(data)))] ^= 1 << int(rng.integers(8))
        else:
            at = payload_start + 8 * int(rng.integers(n_floats))
            bad = [np.nan, np.inf, -np.inf][int(rng.integers(3))]
            data[at : at + 8] = np.array([bad], dtype="<f8").tobytes()
        path.write_bytes(bytes(data))
        try:
            trained = load_trained(str(path))
        except CheckpointError:
            outcomes["rejected"] += 1
            continue
        except Exception as e:  # noqa: BLE001 - any other type is the failure
            pytest.fail(f"checkpoint case {case}: {type(e).__name__}: {e}")
        arrays = list(trained.model.params.values.values()) + [trained.table.vectors]
        assert all(np.isfinite(a).all() for a in arrays), f"checkpoint case {case}"
        outcomes["loaded"] += 1
    assert outcomes["loaded"] and outcomes["rejected"], outcomes


# Inserted into files: separators, JSON openers, digits, a non-UTF-8 byte.
INSERTS = [b"\n", b"\t", b" ", b"[", b"{", b'"', b"-", b"0", b"9" * 20, b"1e400", b"nan", b"\xff"]
DEEP = b"[" * 100_000 + b"]" * 100_000  # valid JSON nested past the recursion limit


def _mutate_bytes(data: bytes, rng: np.random.Generator) -> bytes:
    kind = int(rng.integers(3))
    if kind == 0:
        return data[: int(rng.integers(len(data) + 1))]
    if kind == 1:
        flipped = bytearray(data)
        for _ in range(int(rng.integers(1, 4))):
            flipped[int(rng.integers(len(flipped)))] ^= 1 << int(rng.integers(8))
        return bytes(flipped)
    at = int(rng.integers(len(data) + 1))
    if rng.integers(2):
        insert = INSERTS[int(rng.integers(len(INSERTS)))]
    else:
        insert = rng.integers(0, 256, size=int(rng.integers(1, 5)), dtype=np.uint8).tobytes()
    return data[:at] + insert + data[at:]


def test_cli_mutations_exit_zero_or_print_an_error_line(tmp_path, capsys):
    clean = {
        "conllu": serialize_conllu(CORPUS).encode(),
        "events": serialize_events(MENTIONS).encode(),
        "embeddings": write_embeddings(
            random_embeddings(synthetic_vocabulary()[:12], 3, seed=0)).encode(),
    }
    paths = {kind: tmp_path / kind for kind in clean}
    for kind, data in clean.items():
        paths[kind].write_bytes(data)
    ckpt = tmp_path / "fixed.ckpt"
    inputs = ["--conllu", str(paths["conllu"]), "--events", str(paths["events"])]
    train = ["train", "--model", "lstm", "--repr", "chain", "--epochs", "1", "--hidden", "3",
             "--embeddings", str(paths["embeddings"])]
    argvs = {
        "extract": ["extract", "--mode", "chain", "--out", str(tmp_path / "x.jsonl")] + inputs,
        "eval": ["eval", "--model", str(ckpt)] + inputs,
        "train": train + ["--out", str(tmp_path / "m.ckpt")] + inputs,
    }
    assert main(train + ["--out", str(ckpt)] + inputs) == 0
    ckpt_bytes = ckpt.read_bytes()

    def run(case, command):
        capsys.readouterr()
        try:
            rc = main(argvs[command])
        except Exception as e:  # noqa: BLE001 - any exception is the failure
            pytest.fail(f"case {case}, {command}: {type(e).__name__}: {e}")
        err = capsys.readouterr().err
        assert rc == 0 or (rc == 1 and err.startswith("error: ")), (case, command, rc, err)
        return rc

    paths["events"].write_bytes(DEEP + b"\n")
    assert run("deep events line", "extract") == 1
    paths["events"].write_bytes(clean["events"])
    ckpt.write_bytes(DEEP + b"\n" + ckpt_bytes.split(b"\n", 1)[1])
    assert run("deep checkpoint header", "eval") == 1
    ckpt.write_bytes(ckpt_bytes)

    rng = np.random.default_rng(5)
    outcomes = Counter()
    for case in range(200):
        kind = ("conllu", "events", "embeddings")[int(rng.integers(3))]
        # only train reads the embeddings file
        command = "train" if kind == "embeddings" else list(argvs)[int(rng.integers(3))]
        paths[kind].write_bytes(_mutate_bytes(clean[kind], rng))
        outcomes[run(case, command)] += 1
        paths[kind].write_bytes(clean[kind])
    assert outcomes[0] and outcomes[1], outcomes
