"""Acceptance gate: the seven shipping criteria, each with a pinned tolerance.

Every test appends one 'criterion N: PASS/FAIL (detail)' line to the terminal
summary. The heavy shared work (two 10-fold cross-validations on the n=700
distractor corpus) runs once in module-scoped fixtures and is reused by the
criteria that need it.
"""

import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import depchain
from depchain import (
    Metrics,
    SynthConfig,
    TemporalStatus,
    TrainConfig,
    build_model,
    classify,
    compute_saliency,
    cross_validate,
    encode_input,
    extract_chain,
    generate_synthetic,
    parse_conllu,
    restore_model,
    synthetic_cue_forms,
)
from depchain.models import gradcheck_model, random_instance
from depchain.nncore import softmax_xent

# Fixture tree: "activists will launch a strike describing their protest"
FIXTURE = """# newdoc id = doc1
# sent_id = s1
1\tactivists\t_\t_\t_\t_\t3\tnsubj\t_\t_
2\twill\t_\t_\t_\t_\t3\taux\t_\t_
3\tlaunch\t_\t_\t_\t_\t0\troot\t_\t_
4\ta\t_\t_\t_\t_\t5\tdet\t_\t_
5\tstrike\t_\t_\t_\t_\t3\tdobj\t_\t_
6\tdescribing\t_\t_\t_\t_\t3\txcomp\t_\t_
7\ttheir\t_\t_\t_\t_\t8\tnmod:poss\t_\t_
8\tprotest\t_\t_\t_\t_\t6\tdobj\t_\t_
"""

# Evaluation scale for the representation experiment: small enough to finish
# a 10-fold CV pair in minutes on one core, large enough that the chain model
# converges while the window model cannot see the displaced cue.
EXPERIMENT = dict(hidden=32, embedding_dim=24, epochs=20, seed=0)
CORPUS_CFG = SynthConfig(
    n_sentences=700,
    seed=7,
    distractor_len=9,
    label_weights=(0.67, 0.21, 0.12),
)


@pytest.fixture(scope="module")
def corpus700():
    return generate_synthetic(CORPUS_CFG)


@pytest.fixture(scope="module")
def chain_cv(corpus700):
    sents, mentions = corpus700
    config = TrainConfig(model_type="lstm", representation="chain", **EXPERIMENT)
    start = time.perf_counter()
    result = cross_validate(config, sents, mentions, k=10, keep_models=True)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def window_cv(corpus700):
    sents, mentions = corpus700
    config = TrainConfig(model_type="lstm", representation="window", **EXPERIMENT)
    start = time.perf_counter()
    result = cross_validate(config, sents, mentions, k=10)
    return result, time.perf_counter() - start


def test_criterion_1_chain_fixture(record_criterion):
    start = time.perf_counter()
    sent = parse_conllu(FIXTURE)[0]
    chain = extract_chain(sent, target_id=8)
    elapsed = time.perf_counter() - start
    stage1 = {sent.token(i).form for i in chain.stage1_ids}
    forms = [sent.token(i).form for i in chain.member_ids]
    ok = (
        stage1 == {"launch", "describing", "protest", "their"}
        and forms == ["will", "launch", "describing", "their", "protest"]
        and elapsed < 1.0
    )
    detail = f"stage1 {sorted(stage1)}, chain {forms}, {elapsed:.3f}s"
    assert record_criterion(1, ok, detail), detail


def test_criterion_2_chain_beats_window(record_criterion, chain_cv, window_cv):
    chain_result, chain_secs = chain_cv
    window_result, window_secs = window_cv
    chain_f1 = chain_result.pooled.micro_f1
    window_f1 = window_result.pooled.micro_f1
    gap = chain_f1 - window_f1
    total = chain_secs + window_secs
    ok = gap >= 0.05 and total < 600.0
    detail = (
        f"pooled micro-F1 chain {chain_f1:.4f} vs window {window_f1:.4f}, "
        f"gap {gap * 100:.1f} points (need >= 5), {total:.0f}s (budget 600s)"
    )
    assert record_criterion(2, ok, detail), detail


def test_criterion_3_gradient_checks(record_criterion):
    start = time.perf_counter()
    worst = {
        model_type: max(gradcheck_model(model_type, seed) for seed in range(20))
        for model_type in ("lstm", "cnn", "treelstm")
    }
    elapsed = time.perf_counter() - start
    ok = all(err < 1e-4 for err in worst.values()) and elapsed < 120.0
    detail = (
        "max relative error "
        + ", ".join(f"{m} {e:.2e}" for m, e in worst.items())
        + f" (tolerance 1e-04), {elapsed:.0f}s"
    )
    assert record_criterion(3, ok, detail), detail


def test_criterion_4_metric_identities(record_criterion):
    rng = np.random.default_rng(0)
    identity_ok = True
    brute_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        gold = rng.integers(0, 3, size=n).tolist()
        pred = rng.integers(0, 3, size=n).tolist()
        m = Metrics(np.bincount(3 * np.array(gold) + pred, minlength=9).reshape(3, 3))
        acc = sum(g == p for g, p in zip(gold, pred)) / n
        identity_ok &= m.micro[0] == m.micro[1] == m.micro[2] == acc
        for k in range(3):
            tp = sum(g == k and p == k for g, p in zip(gold, pred))
            fn = sum(g == k and p != k for g, p in zip(gold, pred))
            fp = sum(g != k and p == k for g, p in zip(gold, pred))
            r = tp / (tp + fn) if tp + fn else 0.0
            p_ = tp / (tp + fp) if tp + fp else 0.0
            brute_ok &= m.per_class[k][0] == r and m.per_class[k][1] == p_

    conf = np.zeros((3, 3), dtype=int)
    conf[0, 0], conf[1, 0], conf[2, 0] = 1406, 429, 254
    always_pa = Metrics(conf).micro_f1
    baseline_err = abs(always_pa - 1406 / 2089)
    ok = identity_ok and brute_ok and baseline_err < 1e-9
    detail = (
        f"micro identity on 1000 random vectors {identity_ok}, "
        f"brute-force per-class match {brute_ok}, "
        f"always-PA micro-F1 {always_pa:.10f} (err {baseline_err:.1e})"
    )
    assert record_criterion(4, ok, detail), detail


def test_criterion_5_saliency(record_criterion, corpus700, chain_cv):
    # Part 1: saliency magnitudes match central differences on random LSTM
    # inputs. Probed on the largest coordinates per instance; smaller ones
    # sit below what 64-bit central differences can resolve.
    worst_rel = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = np.empty((5, 6))
        model = build_model("lstm", X, 8, rng)
        inst = random_instance("lstm", X, rng)
        label = TemporalStatus(int(rng.integers(0, 3)))
        smap = compute_saliency(model, inst, label=label)

        def loss_at(Xp):
            logits, _ = restore_model("lstm", model.params.buffer, Xp, 8).forward([inst])
            return softmax_xent(logits, [int(label)])[0][0]

        flat = np.argsort(-smap.raw.reshape(-1))[:16]
        eps = 1e-5
        for fi in flat:
            t, d = divmod(int(fi), X.shape[1])
            Xp = X[inst.rows]
            Xp[t, d] += eps
            up = loss_at(Xp)
            Xp[t, d] -= 2 * eps
            down = loss_at(Xp)
            num = abs((up - down) / (2 * eps))
            ana = smap.raw[t, d]
            rel = abs(ana - num) / max(ana, num, 1e-8)
            worst_rel = max(worst_rel, rel)
    fd_ok = worst_rel < 1e-4

    # Part 2: on the criterion-2 chain models, the cue token carries the
    # top saliency score for most correctly classified FUTURE instances.
    result, _ = chain_cv
    sents, mentions = corpus700
    cues = synthetic_cue_forms(TemporalStatus.FUTURE)
    hits = 0
    total = 0
    for trained, test_idx in zip(result.models, result.fold_test_indices):
        for j in test_idx:
            m = mentions[j]
            if m.label is not TemporalStatus.FUTURE:
                continue
            sent = next(
                s for s in sents
                if s.doc_id == m.doc_id and s.sent_id == m.sent_id
            )
            inst = encode_input(sent, m, "chain", trained.table)
            pred, _ = classify(trained.model, inst)
            if pred is not TemporalStatus.FUTURE:
                continue
            total += 1
            smap = compute_saliency(trained.model, inst, label=m.label)
            if smap.tokens[int(np.argmax(smap.scores))] in cues:
                hits += 1
    rate = hits / total if total else 0.0
    cue_ok = total > 0 and rate >= 0.70
    ok = fd_ok and cue_ok
    detail = (
        f"finite-difference max rel err {worst_rel:.2e} (tolerance 1e-04), "
        f"cue top-1 rate {hits}/{total} = {rate * 100:.0f}% (need >= 70%)"
    )
    assert record_criterion(5, ok, detail), detail


def run_cli(args):
    """Run ``python -m depchain.cli ARGS`` in a fresh process.

    The child imports the same ``depchain`` as this test: the absolute
    directory above the package goes first on its ``PYTHONPATH``, so neither
    the working directory nor an installed copy elsewhere changes what runs.
    """
    src = str(Path(depchain.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "depchain.cli", *args],
        capture_output=True, text=True, env=env,
    )


def test_criterion_6_cv_determinism(record_criterion, tmp_path):
    data = tmp_path / "data"
    gen = run_cli(["gen", "--out", str(data), "--n", "40", "--seed", "11"])
    assert gen.returncode == 0, gen.stderr
    runs = []
    for name in ("run_a", "run_b"):
        out_dir = tmp_path / name
        out_dir.mkdir()
        proc = run_cli(
            [
                "cv", "--model", "lstm", "--repr", "chain",
                "--conllu", str(data / "corpus.conllu"),
                "--events", str(data / "events.jsonl"),
                "--folds", "4", "--epochs", "2", "--hidden", "4",
                "--emb-dim", "6", "--seed", "5",
                "--out", str(out_dir / "cv.json"),
                "--save-models", str(out_dir / "models"),
            ],
        )
        assert proc.returncode == 0, proc.stderr
        runs.append((out_dir, proc.stdout))

    (dir_a, stdout_a), (dir_b, stdout_b) = runs
    report_same = (dir_a / "cv.json").read_bytes() == (dir_b / "cv.json").read_bytes()
    ckpt_same = all(
        (dir_a / "models" / f"fold_{i}.ckpt").read_bytes()
        == (dir_b / "models" / f"fold_{i}.ckpt").read_bytes()
        for i in range(4)
    )
    stdout_same = stdout_a == stdout_b
    ok = report_same and ckpt_same and stdout_same
    detail = (
        f"reports identical {report_same}, 4 fold checkpoints identical "
        f"{ckpt_same}, stdout identical {stdout_same}"
    )
    assert record_criterion(6, ok, detail), detail


def test_criterion_7_tree_invariance(record_criterion):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 14))
        X = np.empty((n, 5))
        model = build_model("treelstm", X, 7, rng)
        inst = random_instance("treelstm", X, rng)
        base, _ = model.forward([inst])
        shuffled = tuple(
            tuple(int(x) for x in rng.permutation(list(kids)))
            for kids in inst.children
        )
        other, _ = model.forward([replace(inst, children=shuffled)])
        worst = max(worst, float(np.abs(base - other).max()))
    ok = worst <= 1e-12
    detail = f"max logit deviation {worst:.2e} over 100 random trees (tolerance 1e-12)"
    assert record_criterion(7, ok, detail), detail
