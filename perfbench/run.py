"""depchain benchmark: four closed-loop workloads over the public library API.

    python3 perfbench/run.py --workload cv-lstm-window --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a depchain checkout; the package is imported from
``src/`` of that checkout, never from an installed copy. Each workload runs in
its own process with one client and BLAS pinned to one thread. Inputs are
synthetic CoNLL-U and events text made from ``--seed``; the program sees only
that text. A run first makes one warm-up pass, then repeats the same pass for
``--seconds``; every time it reports is a median over those passes, scaled
by a reference kernel timed before each pass (see Reference).

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics. With ``--trace 1`` passes alternate between untraced and
traced (see tracer.py) and the JSON holds the per-layer metrics. Every pass
checks the program's outputs; an operation (a fold on the cv workloads, a
request on infer-saliency) that raises or fails a check counts as failed.
A full record with the environment is written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

clock = time.perf_counter

HIDDEN = 32
EMB_DIM = 24
DISTRACTOR_LEN = 9


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cv" or "infer"
    model: str
    representation: str
    n_sentences: int  # corpus of one cv pass, or requests of one infer pass
    epochs: int  # cv training epochs, or epochs of the infer checkpoint
    learning_rate: float = 0.001
    k: int = 10
    finetune: bool = False
    n_train: int = 0  # infer: sentences the checkpoint is trained on


# Sizes keep one pass short, so a run repeats it many times. The recurrent cv
# workloads train at ten times the default learning rate: two epochs then
# settle every seed on the same predictions, where at the default rate
# micro-F1 of these small corpora moved 17% between seeds.
WORKLOADS = {
    w.name: w
    for w in (
        # +-7 window: the recurrent cell's forward/backward dominate.
        Workload("cv-lstm-window", "cv", "lstm", "window", n_sentences=20, epochs=2,
                 learning_rate=0.01),
        # whole sentence trees, ~17 nodes of varying fan-out: per-node Python loops.
        Workload("cv-treelstm-tree", "cv", "treelstm", "tree", n_sentences=16, epochs=2,
                 learning_rate=0.01),
        # short chains and a cheap model: harness overhead, re-embedding, RMSProp.
        Workload("cv-cnn-chain-ft", "cv", "cnn", "chain", n_sentences=100, epochs=4,
                 finetune=True),
        # read-only batch-of-one requests against a trained checkpoint. The
        # window keeps request sizes unimodal (most are 10 tokens); chains are
        # 4 or 5 tokens in equal shares, which makes a median flip with the seed.
        Workload("infer-saliency", "infer", "lstm", "window", n_sentences=200, epochs=4,
                 n_train=40),
    )
}

# About the reference kernel's time on an idle core of the machine the
# benchmark was built on; see Reference.
REFERENCE_S = 0.0003
REFERENCE_CHUNKS = 50

TOY = {
    "cv-lstm-window": dict(n_sentences=9, epochs=1, k=3),
    "cv-treelstm-tree": dict(n_sentences=9, epochs=1, k=3),
    "cv-cnn-chain-ft": dict(n_sentences=12, epochs=1, k=3),
    "infer-saliency": dict(n_sentences=12, epochs=1, n_train=12),
}

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "train_inst_per_s": ("1/s", "higher"),
    "req_p50_ms": ("ms", "lower"),
    "req_tail_ms": ("ms", "lower"),
    "req_per_s": ("1/s", "higher"),
    "micro_f1": ("ratio", "higher"),
    "final_loss": ("nats", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "models.forward.calls": ("count", "lower"),
    "models.forward.busy_s": ("s", "lower"),
    "models.forward.us_per_inst": ("us", "lower"),
    "models.forward.self_s": ("s", "lower"),
    "models.backward.busy_s": ("s", "lower"),
    "models.backward.us_per_inst": ("us", "lower"),
    "models.backward.self_s": ("s", "lower"),
    "models.tokens_per_inst": ("tokens", "lower"),
    "models.model_loss.self_s": ("s", "lower"),
    "harness.encode_input.calls": ("count", "lower"),
    "harness.encode_input.us_per_call": ("us", "lower"),
    "harness.encode_input.busy_s": ("s", "lower"),
    "harness.encode_input.self_s": ("s", "lower"),
    "harness.encode_input.useful_ratio": ("ratio", "higher"),
    "nncore.embed.calls": ("count", "lower"),
    "nncore.embed.busy_s": ("s", "lower"),
    "nncore.rmsprop.steps": ("count", "lower"),
    "nncore.rmsprop.us_per_step": ("us", "lower"),
    "nncore.rmsprop.busy_s": ("s", "lower"),
    "nncore.softmax_xent.us_per_call": ("us", "lower"),
    "harness.train.self_s": ("s", "lower"),
    "harness.evaluate.self_s": ("s", "lower"),
    "harness.cross_validate.self_s": ("s", "lower"),
    "harness.fold.p50_s": ("s", "lower"),
    "harness.fold.max_s": ("s", "lower"),
    "chain.extract.calls": ("count", "lower"),
    "chain.extract.us_per_call": ("us", "lower"),
    "chain.extract.busy_s": ("s", "lower"),
    "corpus.parse_conllu.s": ("s", "lower"),
    "corpus.parse_conllu.us_per_sent": ("us", "lower"),
    "corpus.load_events.s": ("s", "lower"),
    "nncore.load_checkpoint.s": ("s", "lower"),
    "saliency.compute.us_per_call": ("us", "lower"),
    "saliency.emit.us_per_call": ("us", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
}

def import_program():
    """Import depchain from src/ of this checkout; exit 2 when it is absent."""
    src = ROOT / "src"
    if not (src / "depchain" / "__init__.py").is_file():
        print(f"error: no depchain package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import depchain

    if Path(depchain.__file__).resolve().parent != (src / "depchain").resolve():
        print(f"error: imported depchain from {depchain.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return depchain


# ---------------------------------------------------------------------------
# Inputs and environment


def derive_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def make_inputs(dc, n: int, seed: int) -> tuple[str, str]:
    """CoNLL-U and events text of a synthetic distractor corpus."""
    sents, mentions = dc.generate_synthetic(
        dc.SynthConfig(n_sentences=n, seed=seed, distractor_len=DISTRACTOR_LEN)
    )
    return dc.serialize_conllu(sents), dc.serialize_events(mentions)


def input_sizes(dc, w: Workload, conllu: str, events: str) -> dict:
    sents = dc.parse_conllu(conllu)
    mentions = dc.load_events(events, sents)
    by_key = dc.index_sentences(sents)
    lengths = []
    for m in mentions:
        sent = by_key[(m.doc_id, m.sent_id)]
        if w.representation == "chain":
            lengths.append(len(dc.extract_chain(sent, m.token_id).member_ids))
        elif w.representation == "window":
            lengths.append(len(dc.extract_window(sent, m.token_id).member_ids))
        else:
            lengths.append(len(sent))
    return {
        "sentences": len(sents),
        "mentions": len(mentions),
        "mean_tokens_per_input": statistics.fmean(lengths),
        "max_tokens_per_input": max(lengths),
        "inputs_sha256": hashlib.sha256((conllu + events).encode("utf-8")).hexdigest(),
    }


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=20, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(w: Workload, seed: int, size: str, sizes: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy builds differ in what they expose
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": asdict(w),
        "seed": seed,
        "size": size,
        "hidden": HIDDEN,
        "embedding_dim": EMB_DIM,
        "distractor_len": DISTRACTOR_LEN,
        "inputs": sizes,
    }


# ---------------------------------------------------------------------------
# Passes


@dataclass
class Pass:
    scale: float = 1.0  # REFERENCE_S / the reference kernel's time just before the pass
    setup_s: float = 0.0
    wall_s: float = 0.0  # set-up plus the program's work, without the benchmark's checks
    work_s: float = 0.0  # cross_validate (cv); set-up is not included
    ops: list[float] = field(default_factory=list)  # fold or request latencies, in order
    attempted: int = 0
    failed: int = 0
    train_inst: int = 0  # training mention-epochs over all folds (cv)
    micro_f1: float = math.nan
    final_loss: float = math.nan
    errors: list[str] = field(default_factory=list)


class CvWorkload:
    """One pass: parse + load events (set-up), then k-fold cross_validate."""

    def __init__(self, dc, w: Workload, seed: int):
        self.dc, self.w = dc, w
        self.conllu, self.events = make_inputs(dc, w.n_sentences, seed)
        self.config = dc.TrainConfig(
            model_type=w.model, representation=w.representation, hidden=HIDDEN,
            embedding_dim=EMB_DIM, epochs=w.epochs, learning_rate=w.learning_rate, seed=0,
            finetune_embeddings=w.finetune,
        )
        self.reference = None  # (pooled confusion, per-fold final losses) of the first pass
        self.problems: list[str] = []

    def between_passes(self, scale: float) -> None:
        pass

    def close(self):
        pass

    def run_pass(self) -> Pass:
        dc, w = self.dc, self.w
        p = Pass(attempted=w.k)
        try:
            t0 = clock()
            sents = dc.parse_conllu(self.conllu)
            mentions = dc.load_events(self.events, sents)
            t1 = clock()
            result = dc.cross_validate(self.config, sents, mentions, k=w.k, jobs=1,
                                       keep_models=True)
            t2 = clock()
            bad = self.check(result, len(mentions))
        except Exception:
            p.failed = w.k
            p.errors.append(traceback.format_exc())
            return p
        p.failed = sum(bad)
        if p.failed:
            p.errors.append(f"folds failing checks: {[i for i, b in enumerate(bad) if b]}")
            return p
        p.setup_s, p.work_s, p.wall_s = t1 - t0, t2 - t1, t2 - t0
        p.ops = [p.work_s / w.k] * w.k  # replaced by the probe's fold times
        p.train_inst = sum(len(mentions) - size for size in result.fold_sizes) * w.epochs
        p.micro_f1 = result.pooled.micro_f1
        p.final_loss = statistics.fmean(m.history[-1] for m in result.models)
        return p

    def check(self, result, n: int) -> list[bool]:
        """Per-fold failure flags from the output checks."""
        k = self.w.k
        if (len(result.fold_metrics) != k or len(result.fold_sizes) != k
                or not result.models or len(result.models) != k):
            return [True] * k
        tests = result.fold_test_indices or []
        partition_ok = (sorted(i for fold in tests for i in fold) == list(range(n))
                        and [len(f) for f in tests] == list(result.fold_sizes))
        pooled = np.asarray(result.pooled.confusion)
        summed = sum(np.asarray(m.confusion) for m in result.fold_metrics)
        pooled_ok = pooled.shape == (3, 3) and int(pooled.sum()) == n and (pooled == summed).all()
        if not (partition_ok and pooled_ok):
            return [True] * k
        bad = []
        for m, size, tm in zip(result.fold_metrics, result.fold_sizes, result.models):
            conf = np.asarray(m.confusion)
            # a 3x3 confusion summing to the fold size: every prediction is a class
            ok = conf.shape == (3, 3) and (conf >= 0).all() and int(conf.sum()) == size
            ok = ok and len(tm.history) == self.w.epochs
            bad.append(not (ok and all(math.isfinite(x) for x in tm.history)))
        if any(bad):
            return bad
        outcome = (pooled.tolist(), [tm.history[-1] for tm in result.models])
        if self.reference is None:
            self.reference = outcome
        elif outcome != self.reference:  # same inputs and config must rerun bitwise
            return [True] * k
        return bad


class InferWorkload:
    """One pass: parse + load events + load checkpoint (set-up), then one
    request per mention: encode_input -> classify -> compute_saliency ->
    emit_heatmap(csv)."""

    def __init__(self, dc, w: Workload, seed: int):
        self.dc, self.w = dc, w
        self.conllu, self.events = make_inputs(dc, w.n_sentences, seed)
        train_conllu, train_events = make_inputs(dc, w.n_train, derive_seed(seed, 1))
        self.config = dc.TrainConfig(
            model_type=w.model, representation=w.representation, hidden=HIDDEN,
            embedding_dim=EMB_DIM, epochs=w.epochs, learning_rate=w.learning_rate, seed=0,
        )
        self.train_sents = dc.parse_conllu(train_conllu)
        self.train_mentions = dc.load_events(train_events, self.train_sents)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.checkpoint = OUT_DIR / f"infer-{os.getpid()}.ckpt"
        self.build_rates: list[float] = []  # reference-scaled mention-epochs per second
        self.problems: list[str] = []
        self.reference = None  # predictions of the first pass
        self.build(1.0)
        self.build_rates.clear()  # the first build runs cold, before the warm-up pass

    def build(self, scale: float) -> None:
        """Train the checkpoint from the seed. The first build is the one the
        requests load; every later one must reproduce it bitwise."""
        dc = self.dc
        t0 = clock()
        trained = dc.train(self.config, self.train_sents, self.train_mentions)
        elapsed = clock() - t0
        self.build_rates.append(len(self.train_mentions) * self.w.epochs / (elapsed * scale))
        self.final_loss = trained.history[-1]
        if not self.checkpoint.exists():
            dc.save_trained(trained, str(self.checkpoint))
            return
        again = self.checkpoint.with_suffix(".again")
        dc.save_trained(trained, str(again))
        if again.read_bytes() != self.checkpoint.read_bytes():
            self.problems.append("a rebuilt checkpoint differs from the first build")
        again.unlink()

    def between_passes(self, scale: float) -> None:
        """Rebuild the checkpoint between request passes, so that its
        train_inst_per_s is measured over the whole run, like every other
        time."""
        self.build(scale)

    def close(self):
        self.checkpoint.unlink(missing_ok=True)

    def run_pass(self) -> Pass:
        dc = self.dc
        p = Pass(final_loss=self.final_loss)
        try:
            t0 = clock()
            sents = dc.parse_conllu(self.conllu)
            mentions = dc.load_events(self.events, sents)
            trained = dc.load_trained(str(self.checkpoint))
            t1 = clock()
            by_key = dc.index_sentences(sents)
            t2 = clock()
        except Exception:
            p.errors.append(traceback.format_exc())
            p.attempted = p.failed = max(1, self.events.count("\n"))
            return p
        cfg = trained.config
        preds, golds = [], []
        for m in mentions:
            p.attempted += 1
            try:
                r0 = clock()
                inst = dc.encode_input(by_key[(m.doc_id, m.sent_id)], m, cfg.representation,
                                       trained.table, cfg.half_width)
                pred, _ = dc.classify(trained.model, inst)
                smap = dc.compute_saliency(trained.model, inst)
                csv = dc.emit_heatmap(smap, "csv")
                p.ops.append(clock() - r0)
                problem = self.check(dc, inst, pred, smap, csv)
            except Exception:
                problem = traceback.format_exc()
            if problem:
                p.failed += 1
                p.errors.append(f"{m.doc_id}/{m.sent_id}/{m.token_id}: {problem}")
            preds.append(None if problem else int(pred))
            golds.append(None if m.label is None else int(m.label))
        p.setup_s = t1 - t0
        p.wall_s = t2 - t0 + sum(p.ops)
        scored = [(g, q) for g, q in zip(golds, preds) if g is not None and q is not None]
        p.micro_f1 = sum(g == q for g, q in scored) / len(scored) if scored else math.nan
        if self.reference is None:
            self.reference = preds
        elif preds != self.reference:  # eval mode is deterministic
            p.failed = p.attempted
            p.errors.append("predictions differ from the first pass")
        return p

    @staticmethod
    def check(dc, inst, pred, smap, csv) -> str | None:
        if int(pred) not in (0, 1, 2):
            return f"prediction {pred!r} is not one of the three classes"
        if smap.predicted != pred:
            return "saliency map was taken at another label than the prediction"
        if len(smap.scores) != len(inst) or not all(math.isfinite(s) for s in smap.scores):
            return "saliency scores are not finite, one per token"
        back = dc.parse_heatmap_csv(csv)
        if back.tokens != smap.tokens:
            return "CSV heatmap tokens do not round-trip"
        if any(abs(a - b) > 5e-7 for a, b in zip(back.scores, smap.scores)):
            return "CSV heatmap scores do not round-trip"
        return None


# ---------------------------------------------------------------------------
# Measuring


class Reference:
    """A fixed kernel of the same kind of work as the models: one-vector
    numpy products and gates in a Python loop.

    The benchmark shares its machine. On the one it was built on (2 vCPUs
    under a shared hypervisor), identical passes took from 0.8 s to 1.5 s,
    and medians of whole runs moved 20% from one run to the next, as the
    load of other tenants came and went. Before every pass the benchmark
    times this kernel, and scales the pass's times by REFERENCE_S over the
    kernel's time: every time it reports reads as if the kernel had taken
    REFERENCE_S, which cancels most of the drift.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.W = rng.uniform(-0.1, 0.1, (4, 24, 32))
        self.U = rng.uniform(-0.1, 0.1, (4, 32, 32))
        self.X = rng.uniform(-0.1, 0.1, (15, 24))

    def chunk(self) -> float:
        h = np.zeros(32)
        c = np.zeros(32)
        t0 = clock()
        for x in self.X:
            i, f, o, g = (x @ W + h @ U for W, U in zip(self.W, self.U))
            i, f, o = (1.0 / (1.0 + np.exp(-v)) for v in (i, f, o))
            c = f * c + i * np.tanh(g)
            h = o * np.tanh(c)
        return clock() - t0

    def scale(self) -> float:
        """REFERENCE_S over the kernel's median time, now."""
        return REFERENCE_S / statistics.median(self.chunk() for _ in range(REFERENCE_CHUNKS))


@dataclass
class Run:
    runner: object
    passes: list[Pass]  # every pass, warm-up first
    plain: list[Pass]  # measured untraced passes
    traced_passes: list[Pass]
    traced: tracer.Tracer | None  # spans of the traced passes
    restored: bool
    measured_s: float
    peak_rss_mb: float  # high-water mark when the passes end, before any analysis


def measure(dc, w: Workload, seed: int, seconds: float, traced: bool) -> Run:
    """A warm-up pass, then passes for `seconds`; a traced run alternates an
    untraced and a traced pass. Untraced cv passes wrap only train and
    evaluate, to time folds; untraced infer passes wrap nothing."""
    runner = (CvWorkload if w.kind == "cv" else InferWorkload)(dc, w, seed)
    reference = Reference()
    full = tracer.Tracer() if traced else None
    restored = True
    plain: list[Pass] = []
    traced_passes: list[Pass] = []

    def one_pass(t: tracer.Tracer | None) -> Pass:
        nonlocal restored
        scale = reference.scale()
        if t is None:
            p = runner.run_pass()
        else:
            t.install()
            try:
                c0 = clock()
                p = runner.run_pass()
                c1 = clock()
            finally:
                restored = t.uninstall() and restored
            t.mark_pass(c0, c1)
            folds = t.table(len(t.passes) - 1).fold_times()
            if w.kind == "cv" and not p.failed and len(folds) == w.k:
                p.ops = folds
        p.scale = scale
        return p

    def probe() -> tracer.Tracer | None:
        return tracer.Tracer(only=tracer.FOLD_SPANS) if w.kind == "cv" else None

    try:
        warm = one_pass(probe())
        start = clock()
        while clock() - start < seconds or len(plain) < 2 or (
                traced and len(traced_passes) < 2):
            if traced and len(traced_passes) < len(plain):
                traced_passes.append(one_pass(full))
            else:
                plain.append(one_pass(probe()))
                runner.between_passes(reference.scale())
        measured_s = clock() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        runner.close()
    return Run(runner, [warm] + plain + traced_passes, plain, traced_passes, full,
               restored, measured_s, peak_rss_mb)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with ten samples beyond
    it: the eleventh slowest; the slowest when that would fall below the
    median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def scaled_median(passes: list[Pass], value) -> float:
    return statistics.median(value(p) * p.scale for p in passes)


def end_to_end(w: Workload, run: Run) -> tuple[dict, dict]:
    done = [p for p in run.plain if not p.failed]
    if not done or any(len(p.ops) != len(done[0].ops) for p in done):
        return {k: 0.0 for k in END_TO_END}, {"passes": len(run.plain)}
    # operation i is the same fold or request in every pass: its latency is
    # the median over passes
    ops = [statistics.median(p.ops[i] * p.scale for p in done) for i in range(len(done[0].ops))]
    pct, tail_s = tail(ops)
    if w.kind == "cv":
        train_inst_per_s = statistics.median(p.train_inst / (p.work_s * p.scale) for p in done)
    else:
        train_inst_per_s = statistics.median(run.runner.build_rates)
    values = {
        "setup_s": scaled_median(done, lambda p: p.setup_s),
        "wall_s": scaled_median(done, lambda p: p.wall_s),
        "train_inst_per_s": train_inst_per_s,
        "req_p50_ms": statistics.median(ops) * 1e3,
        "req_tail_ms": tail_s * 1e3,
        "req_per_s": len(ops) / sum(ops),
        "micro_f1": statistics.median(p.micro_f1 for p in done),
        "final_loss": statistics.median(p.final_loss for p in done),
        "peak_rss_mb": run.peak_rss_mb,
    }
    detail = {"req_tail_percentile": pct, "req_samples": len(ops), "passes": len(done),
              "wall_s_as_measured": [p.wall_s for p in done],
              "scale": [p.scale for p in done]}
    return values, detail


def per_layer(w: Workload, run: Run) -> tuple[dict, dict]:
    full = run.traced
    plain = [p for p in run.plain if not p.failed]
    done = [i for i, p in enumerate(run.traced_passes) if not p.failed]
    if not done or not plain:
        return {k: 0.0 for k in PER_LAYER}, {"traced_passes": len(run.traced_passes)}
    # the traced pass of median scaled length, with its times scaled
    order = sorted(done, key=lambda i: run.traced_passes[i].wall_s * run.traced_passes[i].scale)
    chosen = order[len(order) // 2]
    scale = run.traced_passes[chosen].scale
    table = full.table(chosen)
    dur, self_t = table.durations() * scale, table.self_times() * scale
    n_pass = len(run.traced_passes)  # item counters run over every traced pass

    def calls(span):
        return len(table.rows(span))

    def busy(span):
        return float(dur[table.rows(span)].sum())

    def self_s(span):
        return float(self_t[table.rows(span)].sum())

    def us_per(total_s, count):
        return total_s / count * 1e6 if count else 0.0

    fwd_items = full.items.get("models.forward", 0) / n_pass
    bwd_items = full.items.get("models.backward", 0) / n_pass
    parsed = full.items.get("corpus.parse_conllu", 0) / n_pass
    fwd_tokens = full.tokens.get("models.forward", 0) / n_pass
    distinct = len(full.encode_keys[chosen])
    folds = [t * scale for t in table.fold_times()]
    wall = run.traced_passes[chosen].wall_s * scale

    values = {
        "models.forward.calls": calls("models.forward"),
        "models.forward.busy_s": busy("models.forward"),
        "models.forward.us_per_inst": us_per(busy("models.forward"), fwd_items),
        "models.forward.self_s": self_s("models.forward"),
        "models.backward.busy_s": busy("models.backward"),
        "models.backward.us_per_inst": us_per(busy("models.backward"), bwd_items),
        "models.backward.self_s": self_s("models.backward"),
        "models.tokens_per_inst": fwd_tokens / fwd_items if fwd_items else 0.0,
        "models.model_loss.self_s": self_s("models.model_loss"),
        "harness.encode_input.calls": calls("harness.encode_input"),
        "harness.encode_input.us_per_call": us_per(busy("harness.encode_input"),
                                                   calls("harness.encode_input")),
        "harness.encode_input.busy_s": busy("harness.encode_input"),
        "harness.encode_input.self_s": self_s("harness.encode_input"),
        "harness.encode_input.useful_ratio": (distinct / calls("harness.encode_input")
                                              if calls("harness.encode_input") else 0.0),
        "nncore.embed.calls": calls("nncore.embed"),
        "nncore.embed.busy_s": busy("nncore.embed"),
        "nncore.rmsprop.steps": calls("nncore.rmsprop"),
        "nncore.rmsprop.us_per_step": us_per(busy("nncore.rmsprop"), calls("nncore.rmsprop")),
        "nncore.rmsprop.busy_s": busy("nncore.rmsprop"),
        "nncore.softmax_xent.us_per_call": us_per(busy("nncore.softmax_xent"),
                                                  calls("nncore.softmax_xent")),
        "harness.train.self_s": self_s("harness.train"),
        "harness.evaluate.self_s": self_s("harness.evaluate"),
        "harness.cross_validate.self_s": self_s("harness.cross_validate"),
        "harness.fold.p50_s": statistics.median(folds) if folds else 0.0,
        "harness.fold.max_s": max(folds) if folds else 0.0,
        "chain.extract.calls": calls("chain.extract"),
        "chain.extract.us_per_call": us_per(busy("chain.extract"), calls("chain.extract")),
        "chain.extract.busy_s": busy("chain.extract"),
        "corpus.parse_conllu.s": busy("corpus.parse_conllu"),
        "corpus.parse_conllu.us_per_sent": us_per(busy("corpus.parse_conllu"), parsed),
        "corpus.load_events.s": busy("corpus.load_events"),
        "nncore.load_checkpoint.s": busy("nncore.load_checkpoint"),
        "saliency.compute.us_per_call": us_per(busy("saliency.compute"),
                                               calls("saliency.compute")),
        "saliency.emit.us_per_call": us_per(busy("saliency.emit"), calls("saliency.emit")),
        "trace.overhead_ratio": wall / scaled_median(plain, lambda p: p.wall_s),
        "trace.coverage": float(dur[table.parent < 0].sum()) / (table.total * scale),
    }
    spans = sorted(set(table.names[i] for i in np.unique(table.name)))
    ranking = sorted(((self_s(s), s) for s in spans), reverse=True)
    detail = {
        "traced_passes": n_pass,
        "untraced_passes": len(run.plain),
        "spans_per_pass": int(len(table.name)),
        "missing_targets": sorted(set(full.missing)),
        "self_s_per_pass": {s: t for t, s in ranking},
        "largest_self_time": ranking[0][1] if ranking else None,
    }
    return values, detail


# ---------------------------------------------------------------------------
# Command line


def run_one(args) -> int:
    dc = import_program()

    w = WORKLOADS[args.workload]
    if args.size == "toy":
        w = replace(w, **TOY[w.name])
    traced = args.trace == 1
    run = measure(dc, w, args.seed, args.seconds, traced)
    sizes = input_sizes(dc, w, run.runner.conllu, run.runner.events)
    env = environment(w, args.seed, args.size, sizes)
    attempted = sum(p.attempted for p in run.passes)
    failed = sum(p.failed for p in run.passes)
    errors = run.runner.problems + [e for p in run.passes for e in p.errors]
    for e in errors[:5]:
        print(e, file=sys.stderr)
    if traced:
        values, detail = per_layer(w, run)
        spec = PER_LAYER
    else:
        values, detail = end_to_end(w, run)
        spec = END_TO_END
    restored = run.restored
    detail.update(restored=restored, measured_s=run.measured_s, attempted=attempted,
                  failed=failed)
    correct = (failed == 0 and restored and not run.runner.problems
               and all(math.isfinite(v) for v in values.values()))
    values = {k: v if math.isfinite(v) else 0.0 for k, v in values.items()}
    metrics = {k: {"value": values[k], "unit": spec[k][0]} for k in spec}

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    record = OUT_DIR / f"{stem}.json"
    if traced:
        spans = OUT_DIR / f"trace-{w.name}.npz"
        run.traced.write(spans)
        detail["span_file"] = str(spans.relative_to(ROOT))
    record.write_text(json.dumps({"environment": env, "metrics": metrics, "detail": detail,
                                  "errors": errors[:20]}, indent=1) + "\n")

    print(f"workload {w.name}  seed {args.seed}  size {args.size}  trace {args.trace}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"blas {env['blas']} threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}, "
          f"git {env['git_rev']}, src {env['src_sha256'][:12]}")
    print(f"inputs: {json.dumps(sizes)}")
    for k, (unit, better) in spec.items():
        print(f"  {k:36s} {values[k]:14.6g} {unit:7s} ({better} is better)")
    if "req_samples" in detail:
        print(f"  req_tail_ms is p{detail['req_tail_percentile']:.3f} of "
              f"{detail['req_samples']} operations; times are medians over "
              f"{detail['passes']} passes, scaled by the reference kernel")
    if "self_s_per_pass" in detail:
        top = list(detail["self_s_per_pass"].items())[:6]
        print("  largest self time per pass: "
              + ", ".join(f"{s} {t:.4f}s" for s, t in top))
    print(f"  operations attempted {attempted}, failed {failed}, wrapped functions "
          f"restored {restored}; record {record.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one at a time; one combined line."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy shrinks corpora and epochs for the smoke test")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
