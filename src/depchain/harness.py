"""Training loop, tuning/test split, k-fold cross-validation, P/R/F1 reports.

All randomness in a run flows from TrainConfig.seed through three spawned
streams (parameter init, batch order, dropout), so identical configs give
bitwise-identical models and reports. Folds are independent and may train
in parallel; aggregation is ordered by fold index.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .chain import REPRESENTATIONS, representation_ids
from .corpus import DepSentence, EventMention, TemporalStatus, index_sentences
from .errors import CheckpointError, CorpusError, EmbeddingError, TrainingError
from .models import (
    EncodedInput,
    MODEL_TYPES,
    build_model,
    check_param_memory,
    model_loss,
    param_shapes,
    predict,
    restore_model,
)
from .nncore import (
    EmbeddingTable,
    NonFiniteError,
    ParamSet,
    RmsProp,
    load_checkpoint,
    load_embeddings,
    random_embeddings,
    read_utf8,
    save_checkpoint,
)

__all__ = [
    "TrainConfig",
    "Metrics",
    "TrainedModel",
    "CvResult",
    "split_tuning_test",
    "kfold",
    "encode_input",
    "train",
    "evaluate",
    "cross_validate",
    "format_metrics_table",
    "save_trained",
    "load_trained",
]

CLASS_ORDER = (TemporalStatus.PAST, TemporalStatus.ONGOING, TemporalStatus.FUTURE)


@dataclass(frozen=True)
class TrainConfig:
    """One run's settings, checked at construction (ValueError). Any model reads
    any representation, but treelstm refuses window: its tokens may be a forest."""

    model_type: str
    representation: str
    learning_rate: float = 0.001
    epochs: int = 50
    dropout: float = 0.5
    hidden: int = 300
    half_width: int = 7
    batch_size: int = 16
    seed: int = 0
    embeddings: str | None = None  # path; None = seeded random table over corpus vocab
    embedding_dim: int = 300  # used only when embeddings is None
    tree_readout: str = "root"
    finetune_embeddings: bool = False

    def __post_init__(self):
        for name in ("epochs", "hidden", "half_width", "batch_size", "seed", "embedding_dim"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("learning_rate", "dropout"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not isinstance(self.finetune_embeddings, bool):
            raise ValueError(
                f"finetune_embeddings must be a boolean, got {self.finetune_embeddings!r}"
            )
        if not (self.embeddings is None or isinstance(self.embeddings, str)):
            raise ValueError(f"embeddings must be a path or None, got {self.embeddings!r}")
        if self.model_type not in MODEL_TYPES:
            raise ValueError(f"unknown model_type {self.model_type!r}")
        if self.representation not in REPRESENTATIONS:
            raise ValueError(f"unknown representation {self.representation!r}")
        if self.model_type == "treelstm" and self.representation == "window":
            raise ValueError("model_type 'treelstm' cannot read representation 'window': "
                             "a window's tokens need not form one dependency tree")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.hidden <= 0:
            raise ValueError("hidden must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not 0 < self.learning_rate <= sys.float_info.max:  # no int past a float
            raise ValueError("learning_rate must be finite and positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.half_width < 0:
            raise ValueError("half_width must be >= 0")
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if self.tree_readout not in ("root", "target"):
            raise ValueError("tree_readout must be 'root' or 'target'")
        if self.tree_readout == "target" and self.model_type != "treelstm":
            raise ValueError(
                f"tree_readout 'target' needs model_type 'treelstm', got {self.model_type!r}"
            )


class Metrics:
    """Per-class, macro, and micro recall/precision/F1 from a 3x3 confusion.

    Rows index gold classes, columns predicted classes, in PA/OG/FU order.
    Macro averages are unweighted class means with F1 averaged directly;
    micro scores come from pooled counts and all equal accuracy for
    single-label prediction.
    """

    def __init__(self, confusion: np.ndarray):
        given = np.asarray(confusion)
        if (given.shape != (3, 3) or not np.isfinite(given).all() or (given < 0).any()
                or (given % 1 != 0).any()):
            raise ValueError("confusion must be a 3x3 matrix of nonnegative whole counts")
        confusion = given.astype(np.int64)
        self.confusion = confusion
        self.n = int(confusion.sum())
        self.per_class: list[tuple[float, float, float]] = []
        for k in range(3):
            tp = int(confusion[k, k])
            fn = int(confusion[k].sum()) - tp
            fp = int(confusion[:, k].sum()) - tp
            r = tp / (tp + fn) if tp + fn else 0.0
            p = tp / (tp + fp) if tp + fp else 0.0
            f1 = 2 * p * r / (p + r) if p + r else 0.0
            self.per_class.append((r, p, f1))
        rs, ps, f1s = zip(*self.per_class)
        self.macro = (sum(rs) / 3, sum(ps) / 3, sum(f1s) / 3)
        acc = int(np.trace(confusion)) / self.n if self.n else 0.0
        self.micro = (acc, acc, acc)

    @property
    def micro_f1(self) -> float:
        return self.micro[2]

    def cells(self) -> list[str]:
        """Five R/P/F1 cells (PA, OG, FU, Macro, Micro) in the table style:
        recall and precision as whole percents, F1 with one decimal."""
        triples = self.per_class + [self.macro, self.micro]
        return [f"{r * 100:.0f}/{p * 100:.0f}/{f * 100:.1f}" for r, p, f in triples]

    def to_dict(self) -> dict:
        keys = ("recall", "precision", "f1")
        return {
            "n": self.n,
            "confusion": self.confusion.tolist(),
            "per_class": {
                status.code: dict(zip(keys, map(float, triple)))
                for status, triple in zip(CLASS_ORDER, self.per_class)
            },
            "macro": dict(zip(keys, map(float, self.macro))),
            "micro": dict(zip(keys, map(float, self.micro))),
        }


def format_metrics_table(rows: list[tuple[str, Metrics]]) -> str:
    """Plain-text table, one row per labeled Metrics, cells as R/P/F1."""
    header = ["", "PA", "OG", "FU", "Macro", "Micro"]
    body = [[label] + m.cells() for label, m in rows]
    widths = [max(len(r[c]) for r in [header] + body) for c in range(6)]
    lines = []
    for row in [header] + body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def split_tuning_test(examples, seed: int):
    """Seeded shuffle, then a round(0.2 n) tuning set and the remainder."""
    n = len(examples)
    if n < 5:
        raise CorpusError(f"need at least 5 examples to split, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    n_tune = round(0.2 * n)
    tuning = [examples[i] for i in perm[:n_tune]]
    test = [examples[i] for i in perm[n_tune:]]
    return tuning, test


def kfold(examples, k: int = 10, seed: int = 0) -> tuple[tuple[int, ...], ...]:
    """Seeded shuffle of the indices 0..n-1 into k folds of test indices,
    which partition them; the first n % k folds take the extra element.
    ValueError unless k is an int >= 2 (a bool is no int)."""
    n = len(examples)
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    if n < k:
        raise CorpusError(f"need at least k={k} examples, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(tuple(int(x) for x in perm[start : start + size]))
        start += size
    return tuple(folds)


# ---------------------------------------------------------------------------
# Encoding mentions into model inputs


def encode_input(
    sent: DepSentence,
    mention: EventMention,
    representation: str,
    table: EmbeddingTable,
    half_width: int = 7,
) -> EncodedInput:
    """The mention's representation as model input, one way for every
    representation: its tokens' forms and rows in surface order, the
    children lists of the dependency edges among them, the position of a
    token whose head is not among them (the root) and the mention's. A
    chain forms one tree, rooted at the sentence root; a window may not."""
    ids = representation_ids(sent, mention.token_id, representation, half_width)
    pos = {tid: p for p, tid in enumerate(ids)}
    children: list[list[int]] = [[] for _ in ids]
    root_pos = 0
    tokens = sent.tokens
    for p, tid in enumerate(ids):  # surface order, so each list is too
        parent = pos.get(tokens[tid - 1].head)
        if parent is None:
            root_pos = p
        else:
            children[parent].append(p)
    forms = tuple(tokens[tid - 1].form for tid in ids)
    return EncodedInput(
        forms=forms,
        rows=table.rows(forms),
        children=tuple(map(tuple, children)),
        root_pos=root_pos,
        target_pos=pos[mention.token_id],
    )


def _encode_corpus(
    corpus: list[DepSentence],
    mentions: list[EventMention],
    config: TrainConfig,
    table: EmbeddingTable,
) -> list[tuple[EncodedInput, int]]:
    by_key = index_sentences(corpus)
    out = []
    for m in mentions:
        sent = by_key.get((m.doc_id, m.sent_id))
        if sent is None:
            raise CorpusError(f"mention {m.doc_id}/{m.sent_id} not found in corpus")
        if m.label is None:
            raise CorpusError(f"mention {_mention_name(m)} has no label")
        inst = encode_input(sent, m, config.representation, table, config.half_width)
        out.append((inst, int(m.label)))
    return out


def _mention_name(m: EventMention) -> str:
    return f"{m.doc_id}/{m.sent_id} token {m.token_id}"


def resolve_embeddings(config: TrainConfig, corpus: list[DepSentence]) -> EmbeddingTable:
    """Load the configured table, or build a seeded random one over the
    corpus vocabulary once the model's parameters are known to fit in
    memory at that dim."""
    if config.embeddings is not None:
        return load_embeddings(read_utf8(config.embeddings, EmbeddingError))
    check_param_memory(config.model_type, config.embedding_dim, config.hidden, copies=4)
    vocab = sorted({t.form for sent in corpus for t in sent.tokens})
    return random_embeddings(vocab, config.embedding_dim, config.seed)


# ---------------------------------------------------------------------------
# Training and evaluation


@dataclass
class TrainedModel:
    model: object
    table: EmbeddingTable
    config: TrainConfig
    history: list[float] = field(default_factory=list)


def train(
    config: TrainConfig,
    corpus: list[DepSentence],
    mentions: list[EventMention],
    table: EmbeddingTable | None = None,
    encoded: list[tuple[EncodedInput, int]] | None = None,
) -> TrainedModel:
    """RMSProp training, one forward and one backward per mini-batch; one
    mean-loss entry per epoch.

    ``encoded`` may hold the mentions' (input, gold) pairs, already encoded
    with ``table``: cross_validate encodes each mention once for all folds.
    The model reads ``table.vectors`` itself, which fine-tuning tunes in place.
    """
    if not mentions:
        raise CorpusError("no mentions to train on")
    if table is None:
        if encoded is not None:
            raise ValueError("encoded inputs need the table they were encoded with")
        table = resolve_embeddings(config, corpus)
    data = _encode_corpus(corpus, mentions, config, table) if encoded is None else encoded
    init_ss, order_ss, drop_ss = np.random.SeedSequence(config.seed).spawn(3)
    check_param_memory(config.model_type, table.dim, config.hidden, copies=4)
    model = build_model(config.model_type, table.vectors, config.hidden,
                        np.random.default_rng(init_ss), tree_readout=config.tree_readout)
    order_rng = np.random.default_rng(order_ss)
    drop_rng = np.random.default_rng(drop_ss)

    opt = RmsProp(model.params, learning_rate=config.learning_rate)
    emb_params = None
    emb_opt = None
    if config.finetune_embeddings:
        emb_params = ParamSet({"vectors": table.vectors.shape}, table.vectors.reshape(-1))
        emb_opt = RmsProp(emb_params, learning_rate=config.learning_rate)

    inputs = [inst for inst, _ in data]
    golds = np.array([gold for _, gold in data], dtype=np.int64)
    history: list[float] = []
    n = len(data)
    for epoch in range(config.epochs):
        perm = order_rng.permutation(n)
        epoch_loss = 0.0
        for b, start in enumerate(range(0, n, config.batch_size)):
            idx = perm[start : start + config.batch_size]
            batch = [inputs[i] for i in idx.tolist()]
            try:
                losses, _, dX = model_loss(model, batch, golds[idx], config.dropout, drop_rng,
                                            input_grad=config.finetune_embeddings)
            except NonFiniteError as e:
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {b}, "
                    f"mention {_mention_name(mentions[idx[e.row]])}"
                ) from e
            except (ValueError, IndexError) as e:  # IndexError: a row past the table's end
                raise TrainingError(f"bad model input at epoch {epoch}, batch {b}: {e}") from e
            for loss in losses.tolist():
                epoch_loss += loss
            if emb_params is not None:
                _scatter_rows(emb_params.grads["vectors"],
                              np.concatenate([inst.rows for inst in batch]), dX)
            scale = 1.0 / len(idx)
            model.params.scale_grads(scale)
            opt.step()
            if emb_params is not None:
                emb_params.scale_grads(scale)
                emb_opt.step()
        history.append(epoch_loss / n)
    return TrainedModel(model=model, table=table, config=config, history=history)


def _scatter_rows(grad: np.ndarray, rows: np.ndarray, dX: np.ndarray) -> None:
    """grad[rows] += dX, every repeat of a row included (add.at, not +=);
    -1 is the last (unk) row.

    One np.add.at on the raveled array, where element (r, d) is r*dim + d:
    each element adds its gradients in the order of rows, as the slower
    2-D np.add.at(grad, rows, dX) does, so the sums are bitwise the same.
    """
    n_rows, dim = grad.shape
    flat = ((rows % n_rows)[:, None] * dim + np.arange(dim)).ravel()
    np.add.at(grad.reshape(-1), flat, dX.ravel())


def evaluate(
    trained: TrainedModel,
    corpus: list[DepSentence],
    mentions: list[EventMention],
    encoded: list[tuple[EncodedInput, int]] | None = None,
) -> Metrics:
    """Predictions scored against gold labels, one predict call per training
    batch size of inputs, so evaluation holds no more than training does.
    ``encoded`` is as in train, from trained.table. Finite weights can still
    overflow a mention's logits: that is a TrainingError naming the first
    such mention, never a prediction. An input the model cannot read (a
    cyclic tree, a row past the table's end) is a TrainingError naming the
    first mention of its batch."""
    if not mentions:
        raise CorpusError("no mentions to evaluate on")
    if encoded is None:
        encoded = _encode_corpus(corpus, mentions, trained.config, trained.table)
    confusion = np.zeros((3, 3), dtype=np.int64)
    step = trained.config.batch_size
    for start in range(0, len(encoded), step):
        chunk = encoded[start : start + step]
        try:
            labels, _, _ = predict(trained.model, [inst for inst, _ in chunk])
        except NonFiniteError as e:
            raise TrainingError(f"non-finite logits at mention "
                                f"{_mention_name(mentions[start + e.row])}") from e
        except (ValueError, IndexError) as e:  # IndexError: a row past the table's end
            raise TrainingError(f"bad model input in the batch from mention "
                                f"{_mention_name(mentions[start])}: {e}") from e
        for (_, gold), pred in zip(chunk, labels.tolist()):
            confusion[gold, pred] += 1
    return Metrics(confusion)


# ---------------------------------------------------------------------------
# Cross-validation


@dataclass
class CvResult:
    """Per-fold and pooled metrics, with each fold's test indices as kfold
    returned them; fold i's model is models[i] when models were kept."""

    fold_metrics: list[Metrics]
    pooled: Metrics
    fold_test_indices: tuple[tuple[int, ...], ...]
    models: list[TrainedModel] | None = None

    @property
    def fold_sizes(self) -> list[int]:
        return [len(f) for f in self.fold_test_indices]

    def report_text(self) -> str:
        rows = [(f"fold {i}", m) for i, m in enumerate(self.fold_metrics)]
        rows.append(("pooled", self.pooled))
        sizes = " ".join(str(s) for s in self.fold_sizes)
        return f"fold sizes: {sizes}\n" + format_metrics_table(rows)

    def report_dict(self) -> dict:
        return {
            "fold_sizes": self.fold_sizes,
            "folds": [m.to_dict() for m in self.fold_metrics],
            "pooled": self.pooled.to_dict(),
        }


def _fold_seed(seed: int, fold: int) -> int:
    return int(np.random.SeedSequence([seed, fold]).generate_state(1)[0])


def _run_fold(task):
    # the inputs come encoded, with their table, so no sentence is read
    config, mentions, data, folds, table, keep, fold = task
    test_idx = folds[fold]
    train_idx = sorted(i for f, other in enumerate(folds) if f != fold for i in other)
    fold_config = replace(config, seed=_fold_seed(config.seed, fold))
    try:
        trained = train(fold_config, [], [mentions[i] for i in train_idx], table=table,
                        encoded=[data[i] for i in train_idx])
        metrics = evaluate(trained, [], [mentions[i] for i in test_idx],
                           encoded=[data[i] for i in test_idx])
    except (CorpusError, TrainingError) as e:
        raise type(e)(f"fold {fold}: {e}") from e
    return metrics, (trained if keep else None)


def cross_validate(
    config: TrainConfig,
    corpus: list[DepSentence],
    mentions: list[EventMention],
    k: int = 10,
    jobs: int = 1,
    keep_models: bool = False,
) -> CvResult:
    """Train on k-1 folds, evaluate on the held-out fold; pool confusions.

    Each mention is encoded once, before any fold runs. Results are ordered
    by fold index regardless of completion order, and each fold derives its
    own seed from (config.seed, fold), so the outcome does not depend on jobs.
    At most k worker processes start, one per fold; each receives the encoded
    inputs, the mentions and the table, and no sentence: train and evaluate
    read none when given encoded inputs. ValueError, before any work, unless
    jobs is an int >= 1 and k one kfold takes."""
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    folds = kfold(mentions, k, config.seed)
    table = resolve_embeddings(config, corpus)
    data = _encode_corpus(corpus, mentions, config, table)
    tasks = [(config, mentions, data, folds, table, keep_models, f) for f in range(k)]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, k)) as pool:
            outcomes = list(pool.map(_run_fold, tasks))
    else:
        outcomes = list(map(_run_fold, tasks))
    fold_metrics = [m for m, _ in outcomes]
    pooled = Metrics(sum((m.confusion for m in fold_metrics), np.zeros((3, 3), dtype=np.int64)))
    models = [t for _, t in outcomes] if keep_models else None
    return CvResult(
        fold_metrics=fold_metrics,
        pooled=pooled,
        fold_test_indices=folds,
        models=models,
    )


# ---------------------------------------------------------------------------
# Checkpoint plumbing


def save_trained(trained: TrainedModel, path: str) -> None:
    save_checkpoint(path, trained.model.params.buffer, trained.table, asdict(trained.config))


def load_trained(path: str) -> TrainedModel:
    """Restore a save_trained checkpoint. The config fixes the model, whose
    parameter shapes the table's dim and the config's hidden size fix in
    turn; CheckpointError when the config is invalid, the parameter block
    has another length, or a parameter value is not finite."""
    config_dict, block, table = load_checkpoint(path)
    try:
        config = TrainConfig(**config_dict)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad config: {e}") from None
    shapes = param_shapes(config.model_type, table.dim, config.hidden)
    # Python ints, so a forged hidden size cannot ask for a huge array
    sizes = [math.prod(shape) for shape in shapes.values()]
    if block.size != sum(sizes):
        raise CheckpointError(
            f"{path}: {block.size} parameter values do not fit a {config.model_type} model "
            f"with dim {table.dim} and hidden {config.hidden}, which has {sum(sizes)}"
        )
    finite = np.isfinite(block)
    if not finite.all():
        first = int(np.argmin(finite))
        bad = next(name for name, end in zip(shapes, itertools.accumulate(sizes)) if first < end)
        raise CheckpointError(f"{path}: checkpoint parameter {bad!r} has a non-finite value")
    model = restore_model(config.model_type, block.astype(np.float64), table.vectors,
                          config.hidden, tree_readout=config.tree_readout)
    return TrainedModel(model=model, table=table, config=config, history=[])
