"""Command-line pipeline: gen, extract, train, eval, cv, saliency, gradcheck.

Every artifact-writing command drops a JSON manifest next to its outputs
(command, version, seed, resolved config, input and output digests, and the
BLAS library with its thread count) so a run can be audited and reproduced
bitwise. Exit codes: 0 success, 1 runtime or data error, 2 usage error.
An output that cannot be written (its directory missing, say) is refused
before any input is read or any model trained.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .chain import REPRESENTATIONS, representation_record
from .corpus import (
    SynthConfig,
    generate_synthetic,
    index_sentences,
    load_events,
    parse_conllu,
    serialize_conllu,
    serialize_events,
    synthetic_vocabulary,
)
from .errors import CheckpointError, CorpusError, DepchainError, TrainingError
from .harness import (
    TrainConfig,
    _mention_name,
    cross_validate,
    encode_input,
    evaluate,
    format_metrics_table,
    load_trained,
    save_trained,
    train,
)
from .models import MODEL_TYPES, gradcheck_model
from .nncore import (
    NonFiniteError,
    atomic_open,
    blas_info,
    check_writable,
    random_embeddings,
    read_utf8,
    write_embeddings,
)
from .saliency import emit_heatmap, heatmap_filename, saliency_maps

__all__ = ["main", "build_parser"]

GRADCHECK_TOLERANCE = 1e-4
DATA_DIR_VAR = "DEPCHAIN_DATA_DIR"


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(
    manifest_path: str,
    command: str,
    seed: int | None,
    config: dict,
    inputs: list[str],
    outputs: list[str],
) -> None:
    doc = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": config,
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": {p: _sha256(p) for p in outputs},
        "blas": blas_info(),
    }
    with atomic_open(manifest_path) as f:
        json.dump(doc, f, sort_keys=True, indent=2)
        f.write("\n")


def _read_corpus(conllu_path: str, events_path: str):
    corpus = parse_conllu(read_utf8(conllu_path, CorpusError))
    mentions = load_events(read_utf8(events_path, CorpusError), corpus)
    return corpus, mentions


def _parse_weights(parser: argparse.ArgumentParser, text: str) -> tuple[float, ...]:
    """The comma-separated reals of --weights; SynthConfig checks them."""
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        parser.error("--weights must be comma-separated reals")


def _add_hyper_flags(sp: argparse.ArgumentParser):
    """The TrainConfig flags of train and cv: each flag's dest is its field
    name and its default is the field's default."""
    default = {f.name: f.default for f in fields(TrainConfig)}
    sp.add_argument("--model", dest="model_type", choices=MODEL_TYPES, required=True)
    sp.add_argument("--repr", dest="representation", choices=REPRESENTATIONS, required=True,
                    help="tokens to read: the chain, the window or the whole sentence (tree); "
                         "treelstm reads their dependency tree, so it refuses window")
    sp.add_argument("--epochs", type=int, default=default["epochs"])
    sp.add_argument("--lr", dest="learning_rate", type=float,
                    default=default["learning_rate"], help="learning rate")
    sp.add_argument("--dropout", type=float, default=default["dropout"])
    sp.add_argument("--hidden", type=int, default=default["hidden"],
                    help="hidden units (doubles as CNN filter count)")
    sp.add_argument("--half-width", type=int, default=default["half_width"])
    sp.add_argument("--batch-size", type=int, default=default["batch_size"])
    sp.add_argument("--seed", type=int, default=default["seed"])
    sp.add_argument("--embeddings", default=default["embeddings"],
                    help="embedding text file; omit for a seeded random table")
    sp.add_argument("--emb-dim", dest="embedding_dim", type=int,
                    default=default["embedding_dim"],
                    help="dimension of the random table when --embeddings is omitted")
    sp.add_argument("--tree-readout", choices=("root", "target"), default=default["tree_readout"])
    sp.add_argument("--finetune-embeddings", action="store_true")


def _config_from_args(parser: argparse.ArgumentParser, args) -> TrainConfig:
    try:
        return TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    except ValueError as e:
        parser.error(str(e))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depchain",
        description="Dependency-chain extraction and event temporal status models.",
    )
    parser.add_argument("--version", action="version", version=f"depchain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    default_dir = os.environ.get(DATA_DIR_VAR)

    sp = sub.add_parser("gen", help="generate a synthetic labeled corpus")
    sp.add_argument("--out", default=default_dir,
                    help=f"output directory (default: ${DATA_DIR_VAR})")
    sp.add_argument("--n", type=int, required=True, help="number of sentences")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--weights", default=None, help="PA,OG,FU label weights, e.g. 0.67,0.21,0.12")
    sp.add_argument("--distractor-len", type=int, default=9)
    sp.add_argument("--emb-dim", type=int, default=None,
                    help="also write embeddings.txt with this dimension")

    sp = sub.add_parser("extract", help="dump chain or window representations")
    sp.add_argument("--conllu", required=True)
    sp.add_argument("--events", required=True)
    sp.add_argument("--mode", choices=("chain", "window"), required=True)
    sp.add_argument("--half-width", type=int, default=7)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("train", help="train one classifier, write a checkpoint")
    sp.add_argument("--conllu", required=True)
    sp.add_argument("--events", required=True)
    sp.add_argument("--out", required=True, help="checkpoint path")
    _add_hyper_flags(sp)

    sp = sub.add_parser("eval", help="evaluate a checkpoint on labeled events")
    sp.add_argument("--model", required=True, help="checkpoint path")
    sp.add_argument("--conllu", required=True)
    sp.add_argument("--events", required=True)
    sp.add_argument("--out", default=None, help="optional JSON metrics report")

    sp = sub.add_parser("cv", help="k-fold cross-validation")
    sp.add_argument("--conllu", required=True)
    sp.add_argument("--events", required=True)
    sp.add_argument("--folds", type=int, default=10)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", default=None, help="optional JSON metrics report")
    sp.add_argument("--save-models", default=None,
                    help="directory for per-fold checkpoints")
    _add_hyper_flags(sp)

    sp = sub.add_parser("saliency", help="write per-mention saliency heatmaps")
    sp.add_argument("--model", required=True, help="checkpoint path")
    sp.add_argument("--conllu", required=True)
    sp.add_argument("--events", required=True)
    sp.add_argument("--out", default=default_dir,
                    help=f"output directory (default: ${DATA_DIR_VAR})")
    sp.add_argument("--format", choices=("csv", "html"), default="html")
    sp.add_argument("--at-predicted", action="store_true",
                    help="take gradients at the predicted label even when gold exists")

    sp = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    sp.add_argument("--model", choices=MODEL_TYPES, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n-seeds", type=int, default=1, help="check seeds seed..seed+n-1")
    sp.add_argument("--dim", type=int, default=6)
    sp.add_argument("--hidden", type=int, default=8)
    sp.add_argument("--length", type=int, default=None,
                    help="longest input of the checked batch of three; the others "
                         "have about half of it and 1 (default: 9 for cnn, 5 otherwise)")

    return parser


# gen's flags and the SynthConfig field each sets; SynthConfig's messages name the field
_GEN_FLAGS = {"--n": "n_sentences", "--seed": "seed", "--distractor-len": "distractor_len",
              "--weights": "label_weights"}


def _cmd_gen(parser, args) -> int:
    if args.out is None:
        parser.error(f"--out is required (or set ${DATA_DIR_VAR})")
    if args.emb_dim is not None and args.emb_dim < 1:
        parser.error("--emb-dim must be >= 1")
    weights = _parse_weights(parser, args.weights) if args.weights else None
    kwargs = {"n_sentences": args.n, "seed": args.seed, "distractor_len": args.distractor_len}
    if weights is not None:
        kwargs["label_weights"] = weights
    try:
        cfg = SynthConfig(**kwargs)
    except CorpusError as e:
        flag = next(flag for flag, field in _GEN_FLAGS.items() if field in str(e))
        parser.error(f"{flag}: {e}")
    # the table first: a dim that cannot be allocated fails before any write
    table = (None if args.emb_dim is None
             else random_embeddings(synthetic_vocabulary(), args.emb_dim, args.seed))
    sentences, mentions = generate_synthetic(cfg)
    os.makedirs(args.out, exist_ok=True)
    conllu_path = os.path.join(args.out, "corpus.conllu")
    events_path = os.path.join(args.out, "events.jsonl")
    outputs = [conllu_path, events_path]
    with atomic_open(conllu_path) as f:
        f.write(serialize_conllu(sentences))
    with atomic_open(events_path) as f:
        f.write(serialize_events(mentions))
    if table is not None:
        emb_path = os.path.join(args.out, "embeddings.txt")
        with atomic_open(emb_path) as f:
            f.write(write_embeddings(table))
        outputs.append(emb_path)
    config = {
        "n": args.n,
        "label_weights": list(cfg.label_weights),
        "distractor_len": cfg.distractor_len,
        "emb_dim": args.emb_dim,
    }
    _write_manifest(os.path.join(args.out, "manifest.json"),
                    "gen", args.seed, config, [], outputs)
    print(f"wrote {len(sentences)} sentences, {len(mentions)} mentions to {args.out}")
    return 0


def _cmd_extract(parser, args) -> int:
    if args.half_width < 0:
        parser.error("--half-width must be >= 0")
    corpus, mentions = _read_corpus(args.conllu, args.events)
    by_key = index_sentences(corpus)
    lines = []
    for m in mentions:
        sent = by_key[(m.doc_id, m.sent_id)]
        lines.append(representation_record(sent, m, args.mode, args.half_width))
    with atomic_open(args.out) as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))
    config = {"mode": args.mode, "half_width": args.half_width}
    _write_manifest(args.out + ".manifest.json", "extract", None, config,
                    [args.conllu, args.events], [args.out])
    print(f"wrote {len(lines)} {args.mode} records to {args.out}")
    return 0


def _cmd_train(parser, args) -> int:
    config = _config_from_args(parser, args)
    check_writable(args.out)
    corpus, mentions = _read_corpus(args.conllu, args.events)
    trained = train(config, corpus, mentions)
    save_trained(trained, args.out)
    inputs = [args.conllu, args.events]
    if args.embeddings:
        inputs.append(args.embeddings)
    _write_manifest(args.out + ".manifest.json", "train", config.seed,
                    asdict(config), inputs, [args.out])
    last = f", final mean loss {trained.history[-1]:.4f}" if trained.history else ""
    print(f"trained {config.model_type} on {len(mentions)} mentions, "
          f"{config.epochs} epochs{last}")
    print(f"checkpoint: {args.out}")
    return 0


def _cmd_eval(parser, args) -> int:
    if args.out:
        check_writable(args.out)
    trained = load_trained(args.model)
    corpus, mentions = _read_corpus(args.conllu, args.events)
    try:
        metrics = evaluate(trained, corpus, mentions)
    except TrainingError as e:  # finite weights can still overflow the logits
        raise CheckpointError(f"{args.model}: {e}") from None
    print(format_metrics_table([("test", metrics)]))
    if args.out:
        with atomic_open(args.out) as f:
            json.dump(metrics.to_dict(), f, sort_keys=True, indent=2)
            f.write("\n")
        _write_manifest(args.out + ".manifest.json", "eval", trained.config.seed,
                        asdict(trained.config),
                        [args.model, args.conllu, args.events], [args.out])
    return 0


def _cmd_cv(parser, args) -> int:
    config = _config_from_args(parser, args)
    if args.folds < 2:
        parser.error("--folds must be >= 2")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.out:
        check_writable(args.out)
    models_dir = args.save_models
    if models_dir and os.path.exists(models_dir) and not os.path.isdir(models_dir):
        # as os.makedirs would refuse it after training
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), models_dir)
    corpus, mentions = _read_corpus(args.conllu, args.events)
    result = cross_validate(config, corpus, mentions, k=args.folds,
                            jobs=args.jobs, keep_models=bool(args.save_models))
    print(result.report_text())
    outputs = []
    if args.save_models:
        os.makedirs(args.save_models, exist_ok=True)
        for i, trained in enumerate(result.models):
            path = os.path.join(args.save_models, f"fold_{i}.ckpt")
            save_trained(trained, path)
            outputs.append(path)
    if args.out:
        with atomic_open(args.out) as f:
            json.dump(result.report_dict(), f, sort_keys=True, indent=2)
            f.write("\n")
        outputs.append(args.out)
    if outputs:  # next to the report, else among the checkpoints
        manifest = (args.out + ".manifest.json" if args.out
                    else os.path.join(args.save_models, "manifest.json"))
        _write_manifest(manifest, "cv", config.seed, dict(asdict(config), folds=args.folds),
                        [args.conllu, args.events], outputs)
    return 0


def _cmd_saliency(parser, args) -> int:
    if args.out is None:
        parser.error(f"--out is required (or set ${DATA_DIR_VAR})")
    trained = load_trained(args.model)
    cfg = trained.config
    corpus, mentions = _read_corpus(args.conllu, args.events)
    by_key = index_sentences(corpus)
    names = [heatmap_filename(m.doc_id, m.sent_id, m.token_id, args.format) for m in mentions]
    owners: dict[str, tuple] = {}
    for name, m in zip(names, mentions):
        key = (m.doc_id, m.sent_id, m.token_id)
        owner = owners.setdefault(name, key)
        if owner != key:
            raise CorpusError(f"mentions {owner[0]}/{owner[1]} token {owner[2]} and "
                              f"{key[0]}/{key[1]} token {key[2]} both map to heatmap {name}")
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    for start in range(0, len(mentions), cfg.batch_size):  # as evaluate batches
        chunk = mentions[start : start + cfg.batch_size]
        batch = [encode_input(by_key[(m.doc_id, m.sent_id)], m, cfg.representation,
                              trained.table, cfg.half_width) for m in chunk]
        maps = saliency_maps(trained.model, batch,
                             [None if args.at_predicted else m.label for m in chunk])
        for name, m in zip(names[start : start + cfg.batch_size], chunk):
            try:
                smap = next(maps)
            except NonFiniteError as e:  # finite weights can still overflow the logits
                raise CheckpointError(f"{args.model}: non-finite logits at mention "
                                      f"{_mention_name(chunk[e.row])}") from None
            except ValueError as e:  # or the input gradient, whose scores SaliencyMap refuses
                raise CheckpointError(f"{args.model}: mention {_mention_name(m)}: {e}") from None
            path = os.path.join(args.out, name)
            with atomic_open(path) as f:
                f.write(emit_heatmap(smap, args.format))
            outputs.append(path)
    config = dict(asdict(cfg), format=args.format, at_predicted=args.at_predicted)
    _write_manifest(os.path.join(args.out, "manifest.json"), "saliency", cfg.seed, config,
                    [args.model, args.conllu, args.events], outputs)
    print(f"wrote {len(outputs)} heatmaps to {args.out}")
    return 0


def _cmd_gradcheck(parser, args) -> int:
    if args.n_seeds < 1:
        parser.error("--n-seeds must be >= 1")
    if args.length is not None and args.length < 1:
        parser.error("--length must be >= 1")
    if args.dim < 1 or args.hidden < 1:
        parser.error("--dim and --hidden must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    worst = 0.0
    for s in range(args.seed, args.seed + args.n_seeds):
        err = gradcheck_model(args.model, s, dim=args.dim,
                              hidden=args.hidden, length=args.length)
        worst = max(worst, err)
        print(f"seed {s}: max relative error {err:.3e}")
    ok = worst < GRADCHECK_TOLERANCE
    print(f"worst: {worst:.3e} ({'PASS' if ok else 'FAIL'} at {GRADCHECK_TOLERANCE:.0e})")
    return 0 if ok else 1


_COMMANDS = {
    "gen": _cmd_gen,
    "extract": _cmd_extract,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "cv": _cmd_cv,
    "saliency": _cmd_saliency,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # commands report non-finite values
            return _COMMANDS[args.command](parser, args)
    except (DepchainError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
