"""Training harness: configs, metrics, splits, training, cross-validation."""

import io
import json
import math
import pickle
from dataclasses import asdict

import numpy as np
import pytest

from depchain import (
    MODEL_TYPES,
    REPRESENTATIONS,
    CorpusError,
    DepSentence,
    EncodedInput,
    Metrics,
    SynthConfig,
    TemporalStatus,
    TrainConfig,
    Token,
    TrainingError,
    build_model,
    cross_validate,
    encode_input,
    evaluate,
    extract_chain,
    format_metrics_table,
    generate_synthetic,
    index_sentences,
    kfold,
    load_trained,
    model_loss,
    predict,
    random_embeddings,
    save_trained,
    split_tuning_test,
    train,
    write_embeddings,
)
from depchain import harness
from depchain.harness import resolve_embeddings
from depchain.nncore import NonFiniteError, RmsProp, grad_check

from test_acceptance import CORPUS_CFG
from test_corpus import FIXTURE, make_sentence
from depchain import parse_conllu, EventMention

TINY = dict(epochs=2, hidden=4, embedding_dim=6, batch_size=8)
# every model reads every token set, but the tree-LSTM refuses a window
ACCEPTED_PAIRS = [(m, r) for m in MODEL_TYPES for r in REPRESENTATIONS
                  if (m, r) != ("treelstm", "window")]


def tiny_config(**kw):
    base = dict(model_type="lstm", representation="chain", seed=0, **TINY)
    base.update(kw)
    return TrainConfig(**base)


def small_corpus(n=30, seed=3):
    return generate_synthetic(SynthConfig(n_sentences=n, seed=seed))


class TestTrainConfig:
    def test_defaults(self):
        c = TrainConfig(model_type="lstm", representation="chain")
        assert c.learning_rate == 0.001
        assert c.epochs == 50
        assert c.dropout == 0.5
        assert c.hidden == 300
        assert c.half_width == 7
        assert c.batch_size == 16

    def test_tree_pairing_accepted(self):
        c = TrainConfig(model_type="treelstm", representation="tree")
        assert c.tree_readout == "root"

    @pytest.mark.parametrize(
        "bad",
        [
            dict(model_type="gru"),
            dict(representation="graph"),
            dict(learning_rate=0.0),
            dict(epochs=-1),
            dict(dropout=1.0),
            dict(dropout=-0.1),
            dict(hidden=0),
            dict(half_width=-1),
            dict(batch_size=0),
            dict(embedding_dim=0),
            dict(tree_readout="leaf"),
            dict(hidden=3.0),
            dict(half_width=2.5),
            dict(tree_readout="target"),
            dict(hidden=True),
            dict(epochs=True),
            dict(seed=False),
            dict(learning_rate=True),
            dict(learning_rate=math.nan),
            dict(learning_rate=math.inf),
            dict(learning_rate="0.01"),
            dict(dropout=False),
            dict(dropout=math.nan),
            dict(dropout="0.5"),
            dict(finetune_embeddings="no"),
            dict(finetune_embeddings=1),
            dict(embeddings=5),
            dict(seed=-1),
            dict(model_type="treelstm", representation="window"),  # not one tree
            dict(learning_rate=10**400),  # an int past any float
        ],
    )
    def test_rejected_values(self, bad):
        kw = dict(model_type="lstm", representation="chain")
        kw.update(bad)
        with pytest.raises(ValueError):
            TrainConfig(**kw)

    def test_dict_round_trip(self):
        c = TrainConfig(
            model_type="treelstm", representation="tree", learning_rate=0.01,
            epochs=3, dropout=0.2, hidden=7, half_width=4, batch_size=2,
            seed=9, embedding_dim=5, tree_readout="target",
            finetune_embeddings=True,
        )
        assert TrainConfig(**asdict(c)) == c


class TestMetrics:
    def test_perfect_prediction(self):
        m = Metrics(np.diag([10, 20, 30]))
        for triple in m.per_class + [m.macro, m.micro]:
            assert triple == (1.0, 1.0, 1.0)
        assert m.micro_f1 == 1.0

    def test_always_past_baseline(self):
        # gold counts 1406/429/254, every prediction PAST
        conf = np.zeros((3, 3), dtype=int)
        conf[0, 0], conf[1, 0], conf[2, 0] = 1406, 429, 254
        m = Metrics(conf)
        assert m.n == 2089
        # independently computed: 1406/2089
        assert abs(m.micro_f1 - 0.6730493058879847) < 1e-9
        assert m.micro[0] == m.micro[1] == m.micro[2]
        assert m.per_class[0][0] == 1.0  # PA recall
        assert abs(m.per_class[0][1] - 1406 / 2089) < 1e-12  # PA precision
        assert m.per_class[1] == (0.0, 0.0, 0.0)
        assert m.per_class[2] == (0.0, 0.0, 0.0)
        assert abs(m.macro[0] - 1 / 3) < 1e-12

    def test_micro_equals_accuracy_random(self):
        rng = np.random.default_rng(0)
        gold = rng.integers(0, 3, size=1000).tolist()
        pred = rng.integers(0, 3, size=1000).tolist()
        m = Metrics(np.bincount(3 * np.array(gold) + pred, minlength=9).reshape(3, 3))
        acc = sum(g == p for g, p in zip(gold, pred)) / 1000
        assert abs(m.micro[0] - acc) < 1e-12
        assert m.micro[1] == m.micro[0]
        assert m.micro[2] == m.micro[0]

    def test_per_class_matches_brute_force(self):
        rng = np.random.default_rng(1)
        gold = rng.integers(0, 3, size=500).tolist()
        pred = rng.integers(0, 3, size=500).tolist()
        m = Metrics(np.bincount(3 * np.array(gold) + pred, minlength=9).reshape(3, 3))
        for k in range(3):
            tp = sum(g == k and p == k for g, p in zip(gold, pred))
            fn = sum(g == k and p != k for g, p in zip(gold, pred))
            fp = sum(g != k and p == k for g, p in zip(gold, pred))
            r = tp / (tp + fn) if tp + fn else 0.0
            p_ = tp / (tp + fp) if tp + fp else 0.0
            f1 = 2 * p_ * r / (p_ + r) if p_ + r else 0.0
            assert abs(m.per_class[k][0] - r) < 1e-12
            assert abs(m.per_class[k][1] - p_) < 1e-12
            assert abs(m.per_class[k][2] - f1) < 1e-12
        assert abs(m.macro[2] - sum(m.per_class[k][2] for k in range(3)) / 3) < 1e-12

    def test_cells_formatting(self):
        m = Metrics(np.array([[4, 1, 0], [0, 5, 0], [0, 0, 0]]))
        assert m.cells() == [
            "80/100/88.9",
            "100/83/90.9",
            "0/0/0.0",
            "60/61/59.9",
            "90/90/90.0",
        ]

    def test_empty_confusion(self):
        m = Metrics(np.zeros((3, 3), dtype=int))
        assert m.micro_f1 == 0.0
        assert m.macro == (0.0, 0.0, 0.0)

    def test_bad_confusion_rejected(self):
        with pytest.raises(ValueError):
            Metrics(np.zeros((2, 3), dtype=int))
        with pytest.raises(ValueError):
            Metrics(np.array([[1, 0, 0], [0, -1, 0], [0, 0, 1]]))
        with pytest.raises(ValueError):
            Metrics([[1.9, 0, 0], [0, 0, 0], [0, 0, 0]])  # not whole counts
        with pytest.raises(ValueError):
            Metrics(np.full((3, 3), 0.5))

    def test_to_dict_shape(self):
        m = Metrics(np.diag([1, 1, 1]))
        d = m.to_dict()
        assert d["n"] == 3
        assert set(d["per_class"]) == {"PA", "OG", "FU"}
        assert d["micro"]["f1"] == 1.0

    def test_table_layout(self):
        m = Metrics(np.diag([1, 1, 1]))
        text = format_metrics_table([("row-a", m)])
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].split() == ["PA", "OG", "FU", "Macro", "Micro"]
        assert lines[1].startswith("row-a")
        assert lines[1].count("100/100/100.0") == 5


class TestSplits:
    def test_tuning_split_sizes(self):
        tuning, test = split_tuning_test(list(range(10)), seed=0)
        assert len(tuning) == 2 and len(test) == 8
        assert sorted(tuning + test) == list(range(10))

    def test_corpus_scale_split(self):
        tuning, test = split_tuning_test(list(range(2089)), seed=0)
        assert len(tuning) == 418 and len(test) == 1671

    def test_split_deterministic(self):
        a = split_tuning_test(list(range(50)), seed=4)
        b = split_tuning_test(list(range(50)), seed=4)
        c = split_tuning_test(list(range(50)), seed=5)
        assert a == b
        assert a != c

    def test_split_too_small(self):
        with pytest.raises(CorpusError):
            split_tuning_test([1, 2, 3, 4], seed=0)

    def test_kfold_singletons(self):
        folds = kfold(list(range(10)), k=10, seed=0)
        assert [len(f) for f in folds] == [1] * 10

    def test_kfold_remainder_distribution(self):
        folds = kfold(list(range(2089)), k=10, seed=0)
        assert [len(f) for f in folds] == [209] * 9 + [208]

    def test_kfold_partition(self):
        folds = kfold(list(range(23)), k=4, seed=1)
        assert isinstance(folds, tuple) and all(isinstance(f, tuple) for f in folds)
        assert all(type(i) is int for f in folds for i in f)
        combined = sorted(i for fold in folds for i in fold)
        assert combined == list(range(23))

    def test_kfold_deterministic(self):
        assert kfold(list(range(30)), 3, seed=2) == kfold(list(range(30)), 3, seed=2)
        assert kfold(list(range(30)), 3, seed=2) != kfold(list(range(30)), 3, seed=3)

    def test_kfold_errors(self):
        with pytest.raises(ValueError):
            kfold(list(range(10)), k=1)
        for k in (2.5, True, "3"):  # range() refused 2.5 with a bare TypeError
            with pytest.raises(ValueError, match=f"^k must be an integer >= 2, got {k!r}$"):
                kfold(list(range(10)), k=k)
        with pytest.raises(CorpusError):
            kfold(list(range(3)), k=4)


class TestEncodeInput:
    def setup_method(self):
        self.sent = parse_conllu(FIXTURE)[0]
        self.table = random_embeddings(
            sorted(t.form for t in self.sent.tokens), 4, seed=0
        )
        self.mention = EventMention(
            doc_id=self.sent.doc_id, sent_id=self.sent.sent_id,
            token_id=8, label=TemporalStatus.FUTURE,
        )

    def test_chain_forms(self):
        inst = encode_input(self.sent, self.mention, "chain", self.table)
        assert inst.forms == ("will", "launch", "describing", "their", "protest")
        assert inst.target_pos == 4
        X = self.table.vectors[inst.rows]
        assert X.shape == (5, 4)
        assert np.array_equal(X[0], self.table.vectors[self.table.row_of("will")])

    @pytest.mark.parametrize("representation", ["chain", "tree"])
    def test_pickle_size_does_not_grow_with_table(self, representation):
        # an input holds indices only: pickled over a 10-row and a
        # 10,000-row table it has one size
        forms = sorted({t.form for t in self.sent.tokens})
        sizes = []
        for n_words in (9, 9_999):
            words = forms + [f"x{i}" for i in range(n_words - len(forms))]
            table = random_embeddings(words, 4, seed=0)
            assert table.vectors.shape[0] == n_words + 1
            inst = encode_input(self.sent, self.mention, representation, table)
            sizes.append(len(pickle.dumps(inst)))
        assert sizes[0] == sizes[1]

    def test_window_forms(self):
        inst = encode_input(self.sent, self.mention, "window", self.table, half_width=1)
        assert inst.forms == ("their", "protest")
        assert inst.target_pos == 1

    def test_tree_structure(self):
        inst = encode_input(self.sent, self.mention, "tree", self.table)
        assert len(inst) == len(self.sent.tokens)
        assert inst.children is not None
        assert inst.root_pos == 2  # "launch" is token 3
        assert inst.target_pos == 7
        root_token = self.sent.tokens[inst.root_pos]
        assert root_token.head == 0
        for pos, kids in enumerate(inst.children):
            for k in kids:
                assert self.sent.tokens[k].head == pos + 1

    def test_unknown_representation(self):
        with pytest.raises(ValueError):
            encode_input(self.sent, self.mention, "bag", self.table)


def old_tree_encoding(sent, mention, table):
    """The whole-sentence encoding as it was built before every token set
    shared one path: the sentence's own children lists, shifted to
    positions."""
    forms = tuple(t.form for t in sent.tokens)
    return EncodedInput(
        forms=forms,
        rows=table.rows(forms),
        children=tuple(tuple(c - 1 for c in kids) for kids in sent.children[1:]),
        root_pos=sent.root_id - 1,
        target_pos=mention.token_id - 1,
    )


def check_one_tree(sent, ids, inst):
    """``inst`` holds the tokens ``ids`` of ``sent`` as one tree rooted at
    the sentence root, with exactly the dependency edges among them."""
    inst.tree_levels  # ValueError unless the children lists form one tree
    assert ids[inst.root_pos] == sent.root_id
    pos = {tid: p for p, tid in enumerate(ids)}
    got = [(p, c) for p, kids in enumerate(inst.children) for c in kids]
    want = [(pos[sent.token(t).head], pos[t]) for t in ids if sent.token(t).head in pos]
    assert sorted(got) == sorted(want)
    assert all(list(kids) == sorted(kids) for kids in inst.children)


RELATIONS = ("aux", "aux:pass", "auxpass", "cop", "nsubj", "obj", "det", "nmod", "advcl")


def random_sentence(rng, n):
    """A random dependency tree over ids 1..n in shuffled order, with
    relations drawn from RELATIONS (tense carriers among them)."""
    order = [int(i) for i in rng.permutation(n) + 1]  # order[0] is the root
    heads = {order[0]: 0}
    for j in range(1, n):
        heads[order[j]] = order[int(rng.integers(0, j))]
    tokens = tuple(
        Token(id=i, form=f"w{i}", head=heads[i],
              deprel="root" if heads[i] == 0 else RELATIONS[int(rng.integers(len(RELATIONS)))])
        for i in range(1, n + 1))
    return DepSentence(doc_id="r", sent_id="s", tokens=tokens)


@pytest.fixture(scope="module")
def corpus700():
    return generate_synthetic(CORPUS_CFG)


class TestEveryInputCarriesItsTree:
    def test_chain_is_one_tree_on_the_corpus(self, corpus700):
        sents, mentions = corpus700
        table = random_embeddings(sorted({t.form for s in sents for t in s.tokens}), 2, seed=0)
        by_key = index_sentences(sents)
        for m in mentions:
            sent = by_key[(m.doc_id, m.sent_id)]
            inst = encode_input(sent, m, "chain", table)
            ids = extract_chain(sent, m.token_id).member_ids
            check_one_tree(sent, ids, inst)
            assert ids[inst.target_pos] == m.token_id

    def test_chain_is_one_tree_on_random_trees(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            sent = random_sentence(rng, int(rng.integers(1, 16)))
            table = random_embeddings([t.form for t in sent.tokens], 2, seed=0)
            for t in sent.tokens:
                m = EventMention(doc_id="r", sent_id="s", token_id=t.id, label=None)
                inst = encode_input(sent, m, "chain", table)
                check_one_tree(sent, extract_chain(sent, t.id).member_ids, inst)

    def test_tree_equals_old_encoding(self, corpus700):
        sents, mentions = corpus700
        table = random_embeddings(sorted({t.form for s in sents for t in s.tokens}), 2, seed=0)
        by_key = index_sentences(sents)
        for m in mentions:
            sent = by_key[(m.doc_id, m.sent_id)]
            got = encode_input(sent, m, "tree", table)
            want = old_tree_encoding(sent, m, table)
            assert (got.forms, got.children, got.root_pos, got.target_pos) == (
                want.forms, want.children, want.root_pos, want.target_pos)
            assert got.rows.dtype == want.rows.dtype
            assert np.array_equal(got.rows, want.rows)

    def test_window_is_a_forest_on_the_corpus(self, corpus700):
        # the sentence root lies outside every +-7 window of this corpus, so
        # a window's tokens form several trees: why treelstm refuses windows
        sents, mentions = corpus700
        table = random_embeddings(sorted({t.form for s in sents for t in s.tokens}), 2, seed=0)
        by_key = index_sentences(sents)
        for m in mentions:
            inst = encode_input(by_key[(m.doc_id, m.sent_id)], m, "window", table)
            with pytest.raises(ValueError, match="span"):
                inst.tree_levels

    @pytest.mark.parametrize("readout", ["root", "target"])
    def test_treelstm_gradcheck_on_real_chains(self, readout):
        sents, mentions = small_corpus(n=6)
        table = random_embeddings(sorted({t.form for s in sents for t in s.tokens}), 6, seed=1)
        by_key = index_sentences(sents)
        batch = [encode_input(by_key[(m.doc_id, m.sent_id)], m, "chain", table)
                 for m in mentions[:4]]
        model = build_model("treelstm", table.vectors, 8, np.random.default_rng(2),
                            tree_readout=readout)
        golds = np.array([int(m.label) for m in mentions[:4]])

        def loss_fn():
            losses, _, _ = model_loss(model, batch, golds)
            return float(losses.sum())

        assert grad_check(loss_fn, model.params) < 1e-4


class TestResolveEmbeddings:
    def test_random_table_covers_vocab(self):
        sents, _ = small_corpus()
        cfg = tiny_config()
        table = resolve_embeddings(cfg, sents)
        vocab = {t.form for s in sents for t in s.tokens}
        assert set(table.words) == vocab
        assert table.dim == cfg.embedding_dim

    def test_random_table_seeded(self):
        sents, _ = small_corpus()
        a = resolve_embeddings(tiny_config(seed=1), sents)
        b = resolve_embeddings(tiny_config(seed=1), sents)
        c = resolve_embeddings(tiny_config(seed=2), sents)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_file_table_loaded(self, tmp_path):
        sents, _ = small_corpus()
        vocab = sorted({t.form for s in sents for t in s.tokens})
        table = random_embeddings(vocab, 5, seed=8)
        path = tmp_path / "emb.txt"
        path.write_text(write_embeddings(table), encoding="utf-8")
        got = resolve_embeddings(tiny_config(embeddings=str(path)), sents)
        assert got.dim == 5
        assert np.array_equal(got.matrix, table.matrix)


class TestTrain:
    def test_zero_epochs_initial_model(self):
        sents, mentions = small_corpus()
        trained = train(tiny_config(epochs=0), sents, mentions)
        assert trained.history == []
        again = train(tiny_config(epochs=0), sents, mentions)
        for name in trained.model.params.values:
            assert np.array_equal(trained.model.params[name], again.model.params[name])

    def test_deterministic_training(self, tmp_path):
        sents, mentions = small_corpus()
        a_path, b_path = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_trained(train(tiny_config(), sents, mentions), a_path)
        save_trained(train(tiny_config(), sents, mentions), b_path)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_seed_changes_model(self):
        sents, mentions = small_corpus()
        a = train(tiny_config(seed=0), sents, mentions)
        b = train(tiny_config(seed=1), sents, mentions)
        assert not np.array_equal(a.model.params["Wy"], b.model.params["Wy"])

    def test_loss_decreases_on_separable_data(self):
        sents, mentions = generate_synthetic(SynthConfig(n_sentences=200, seed=7))
        cfg = TrainConfig(
            model_type="lstm", representation="chain", epochs=30,
            hidden=32, embedding_dim=24, learning_rate=0.003, seed=0,
        )
        trained = train(cfg, sents, mentions)
        assert trained.history[-1] < trained.history[0]
        m = evaluate(trained, sents, mentions)
        assert m.micro_f1 >= 0.95

    def test_empty_mentions_rejected(self):
        sents, _ = small_corpus()
        with pytest.raises(CorpusError):
            train(tiny_config(), sents, [])

    def test_unlabeled_mention_rejected(self):
        sents, mentions = small_corpus()
        from dataclasses import replace
        mentions[0] = replace(mentions[0], label=None)
        with pytest.raises(CorpusError, match="no label"):
            train(tiny_config(), sents, mentions)

    def test_dangling_mention_rejected(self):
        sents, mentions = small_corpus()
        bad = EventMention(doc_id="ghost", sent_id="s1", token_id=1,
                           label=TemporalStatus.PAST)
        with pytest.raises(CorpusError, match="not found"):
            train(tiny_config(), sents, mentions + [bad])

    def test_nonfinite_loss_reported_with_location(self):
        sents, mentions = small_corpus(n=8)
        vocab = sorted({t.form for s in sents for t in s.tokens})
        table = random_embeddings(vocab, 4, seed=0)
        table.matrix[...] = np.inf  # corrupt vectors make the logits non-finite
        cfg = tiny_config(model_type="cnn", representation="window", epochs=1)
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingError, match=r"epoch 0, batch 0"):
                train(cfg, sents, mentions, table=table)

    def test_nonfinite_loss_names_the_mention(self):
        sents, mentions = small_corpus(n=12)
        cfg = tiny_config(epochs=1)
        table = resolve_embeddings(cfg, sents)
        by_key = {(s.doc_id, s.sent_id): s for s in sents}
        users: dict[int, set[int]] = {}
        for j, m in enumerate(mentions):
            inst = encode_input(by_key[(m.doc_id, m.sent_id)], m, "chain", table)
            for row in inst.rows.tolist():
                users.setdefault(row, set()).add(j)
        row, (j,) = next((r, js) for r, js in sorted(users.items()) if len(js) == 1)
        table.vectors[row] = np.inf  # only mention j reads this row
        m = mentions[j]
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingError) as err:
                train(cfg, sents, mentions, table=table)
        assert str(err.value).startswith("non-finite loss at epoch 0, batch ")
        assert str(err.value).endswith(f"mention {m.doc_id}/{m.sent_id} token {m.token_id}")

    def test_encoded_inputs_need_their_table(self):
        sents, mentions = small_corpus(n=8)
        cfg = tiny_config(epochs=1)
        table = resolve_embeddings(cfg, sents)
        encoded = harness._encode_corpus(sents, mentions, cfg, table)
        with pytest.raises(ValueError, match="table"):
            train(cfg, sents, mentions, encoded=encoded)
        a = train(cfg, sents, mentions, table=table, encoded=encoded)
        b = train(cfg, sents, mentions, table=table)
        assert a.history == b.history

    def test_bad_model_input_not_reported_as_non_finite(self, monkeypatch):
        def structural(*args, **kwargs):
            raise ValueError("tree input contains a cycle")

        monkeypatch.setattr(harness, "model_loss", structural)
        sents, mentions = small_corpus(n=8)
        with pytest.raises(TrainingError, match="epoch 0, batch 0: tree input contains a cycle") as err:
            train(tiny_config(epochs=1), sents, mentions)
        assert "non-finite" not in str(err.value)

    @pytest.mark.parametrize("model_type", ["lstm", "cnn", "treelstm"])
    @pytest.mark.parametrize("finetune", [False, True])
    def test_input_gradient_asked_for_only_to_finetune(self, monkeypatch, model_type, finetune):
        loss_fn, asked = harness.model_loss, []

        def recording_loss(*args, **kwargs):
            out = loss_fn(*args, **kwargs)
            asked.append(out[2] is not None)
            return out

        monkeypatch.setattr(harness, "model_loss", recording_loss)
        sents, mentions = small_corpus(n=12)
        representation = "tree" if model_type == "treelstm" else "chain"
        cfg = tiny_config(model_type=model_type, representation=representation, epochs=2,
                          batch_size=5, finetune_embeddings=finetune)
        train(cfg, sents, mentions)
        assert asked == [finetune] * (2 * -(-len(mentions) // 5))

    def test_finetune_embeddings_changes_table(self):
        sents, mentions = small_corpus(n=12)
        cfg = tiny_config(finetune_embeddings=True, epochs=2)
        table = resolve_embeddings(cfg, sents)
        before = table.matrix.copy()
        train(cfg, sents, mentions, table=table)
        assert not np.array_equal(before, table.matrix)

    def test_finetune_repeated_rows_get_every_gradient(self, monkeypatch):
        # "the" appears twice and "cat"/"dog" share the unk row, so one input
        # repeats rows; the embedding gradient at each step must hold the sum
        # of every position's dX, not one of them per row
        sent = make_sentence([("the", 2, "det"), ("dog", 3, "nsubj"), ("saw", 0, "root"),
                              ("the", 5, "det"), ("cat", 3, "obj")])
        mention = EventMention(doc_id=sent.doc_id, sent_id=sent.sent_id, token_id=3,
                               label=TemporalStatus.PAST)
        table = random_embeddings(["saw", "the"], 4, seed=0)
        cfg = tiny_config(model_type="cnn", representation="window", epochs=2,
                          batch_size=1, dropout=0.0, finetune_embeddings=True)
        contributions, grads = [], []
        loss_fn, step = harness.model_loss, RmsProp.step

        def recording_loss(model, batch, *args, **kwargs):
            out = loss_fn(model, batch, *args, **kwargs)
            (inst,), dX = batch, out[2]
            contributions.append((inst.rows.copy(), dX.copy()))
            return out

        def recording_step(opt):
            if "vectors" in opt.params.values:
                grads.append(opt.params.grads["vectors"].copy())
            step(opt)

        monkeypatch.setattr(harness, "model_loss", recording_loss)
        monkeypatch.setattr(RmsProp, "step", recording_step)
        train(cfg, [sent], [mention], table=table)
        assert len(grads) == len(contributions) == 2
        for (rows, dX), grad in zip(contributions, grads):
            assert sorted(rows.tolist()) == [-1, -1, 0, 1, 1]
            expected = np.zeros_like(grad)
            for row, d in zip(rows, dX):
                expected[row] += d
            assert np.array_equal(grad, expected)

    def test_finetune_tunes_table_vectors_in_place(self):
        sents, mentions = small_corpus(n=12)
        cfg = tiny_config(model_type="cnn", finetune_embeddings=True, epochs=2)
        table = resolve_embeddings(cfg, sents)
        vectors, before = table.vectors, table.vectors.copy()
        by_key = {(s.doc_id, s.sent_id): s for s in sents}
        m = mentions[0]
        inst = encode_input(by_key[(m.doc_id, m.sent_id)], m, "chain", table)  # before training
        trained = train(cfg, sents, mentions, table=table)
        assert table.vectors is vectors and trained.table is table
        assert trained.model.vectors is vectors
        seen = trained.model.vectors[inst.rows]
        assert np.array_equal(seen, table.vectors[inst.rows])
        assert not np.array_equal(seen, before[inst.rows])

    @pytest.mark.parametrize("finetune", [False, True])
    def test_model_reads_the_table_matrix(self, finetune):
        sents, mentions = small_corpus(n=12)
        trained = train(tiny_config(finetune_embeddings=finetune), sents, mentions)
        assert trained.model.vectors is trained.table.vectors

    def test_scatter_equals_two_dimensional_add_at(self):
        rng = np.random.default_rng(4)
        for n_rows, dim, n in ((1, 3, 5), (7, 5, 40), (50, 24, 200)):
            rows = rng.integers(-1, n_rows, size=n)
            rows[: n // 4] = rows[0]  # a row repeated many times
            rows[n // 4 : n // 4 + 3] = -1  # and the unk row
            rows = rng.permutation(rows)
            # magnitudes 1e-8..1e8, so the order of the additions shows in the bits
            dX = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
            start = rng.standard_normal((n_rows, dim))
            want, got = start.copy(), start.copy()
            np.add.at(want, rows, dX)
            harness._scatter_rows(got, rows, dX)
            assert got.tobytes() == want.tobytes()
            reordered = start.copy()
            order = np.argsort(rows, kind="stable")[::-1]
            np.add.at(reordered, rows[order], dX[order])
            assert reordered.tobytes() != want.tobytes()  # the test can see order

    def test_frozen_embeddings_unchanged(self):
        sents, mentions = small_corpus(n=12)
        cfg = tiny_config(epochs=2)
        table = resolve_embeddings(cfg, sents)
        before = table.matrix.copy()
        train(cfg, sents, mentions, table=table)
        assert np.array_equal(before, table.matrix)


def unreadable_input(fault: str, n_rows: int) -> EncodedInput:
    """An input every model refuses: a cyclic tree, or a row at the table's
    end (n_rows), which the forward's gather meets as numpy's IndexError."""
    if fault == "cycle":
        return EncodedInput(forms=("a", "b", "c"), rows=np.arange(3), children=((1,), (2,), (0,)))
    return EncodedInput(forms=("a", "b", "c"), rows=np.array([0, n_rows, 1]),
                        children=((1, 2), (), ()))


FAULTS = {"cycle": "tree input contains a cycle", "row": "out of bounds"}


class TestBadModelInput:
    """train and evaluate report an input the model cannot read as a
    TrainingError that says where, so cross_validate prefixes its fold."""

    @pytest.fixture
    def setup(self):
        sents, mentions = small_corpus(n=12)
        cfg = tiny_config(model_type="treelstm", epochs=1)
        table = resolve_embeddings(cfg, sents)
        return sents, mentions, cfg, table, harness._encode_corpus(sents, mentions, cfg, table)

    @pytest.mark.parametrize("fault", FAULTS)
    def test_evaluate_names_the_first_mention_of_the_batch(self, setup, fault):
        sents, mentions, cfg, table, encoded = setup
        trained = train(cfg, sents, mentions, table=table, encoded=encoded)
        j = cfg.batch_size + 1  # in the second forward pass
        encoded[j] = (unreadable_input(fault, len(table.vectors)), encoded[j][1])
        m = mentions[cfg.batch_size]
        with pytest.raises(TrainingError, match=FAULTS[fault]) as err:
            evaluate(trained, sents, mentions, encoded=encoded)
        assert str(err.value).startswith(
            f"bad model input in the batch from mention {m.doc_id}/{m.sent_id} token {m.token_id}: ")

    @pytest.mark.parametrize("fault", FAULTS)
    def test_train_names_the_batch(self, setup, fault):
        sents, mentions, cfg, table, encoded = setup
        encoded[3] = (unreadable_input(fault, len(table.vectors)), encoded[3][1])
        with pytest.raises(TrainingError,
                           match=rf"^bad model input at epoch 0, batch \d: .*{FAULTS[fault]}"):
            train(cfg, sents, mentions, table=table, encoded=encoded)

    @pytest.mark.parametrize("fault", FAULTS)
    def test_cross_validate_prefixes_the_fold(self, monkeypatch, setup, fault):
        sents, mentions, cfg, table, encoded = setup
        # the input is in fold 0's test set only, so evaluate meets it first
        j = kfold(mentions, 3, cfg.seed)[0][0]
        encoded[j] = (unreadable_input(fault, len(table.vectors)), encoded[j][1])
        monkeypatch.setattr(harness, "_encode_corpus", lambda *args: encoded)
        monkeypatch.setattr(harness, "resolve_embeddings", lambda *args: table)
        with pytest.raises(TrainingError, match=r"^fold 0: bad model input in the batch from "):
            cross_validate(cfg, sents, mentions, k=3)


class TestEvaluate:
    def test_constant_model_confusion(self):
        sents, mentions = small_corpus()
        trained = train(tiny_config(epochs=0), sents, mentions)
        for name in trained.model.params.values:
            trained.model.params[name][...] = 0.0
        trained.model.params["by"][...] = [5.0, 0.0, 0.0]  # always PAST
        m = evaluate(trained, sents, mentions)
        assert m.confusion[:, 1:].sum() == 0
        gold_counts = [sum(int(x.label) == k for x in mentions) for k in range(3)]
        assert m.confusion[:, 0].tolist() == gold_counts

    def test_empty_mentions_rejected(self):
        sents, mentions = small_corpus()
        trained = train(tiny_config(epochs=0), sents, mentions)
        with pytest.raises(CorpusError):
            evaluate(trained, sents, [])

    def test_non_finite_logits_name_the_mention(self):
        # finite weights and one finite but huge embedding row overflow the
        # logits of the one mention that reads it, in a later batch and not
        # first in it
        sents, mentions = small_corpus()
        cfg = tiny_config(model_type="cnn", epochs=0)
        trained = train(cfg, sents, mentions)
        j, row = lone_reader(trained, sents, mentions)
        assert j >= cfg.batch_size
        trained.table.vectors[row] = 1.7e308
        trained.model.params["Wconv"][...] = 1.0
        m = mentions[j]
        by_key = index_sentences(sents)
        start = j - j % cfg.batch_size
        batch = [encode_input(by_key[(x.doc_id, x.sent_id)], x, "chain", trained.table)
                 for x in mentions[start : start + cfg.batch_size]]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError) as err:
                evaluate(trained, sents, mentions)
            with pytest.raises(NonFiniteError) as caught:
                predict(trained.model, batch)
        assert str(err.value) == f"non-finite logits at mention {m.doc_id}/{m.sent_id} token {m.token_id}"
        assert caught.value.row == j - start
        assert evaluate(trained, sents, mentions[:j]).confusion.sum() == j


def lone_reader(trained, sents, mentions) -> tuple[int, int]:
    """(j, row): the last mention j that is not first in its evaluation batch
    and is the only mention whose encoded input reads some table row, and
    that row."""
    cfg = trained.config
    by_key = index_sentences(sents)
    users: dict[int, set[int]] = {}
    for j, m in enumerate(mentions):
        inst = encode_input(by_key[(m.doc_id, m.sent_id)], m, cfg.representation,
                            trained.table, cfg.half_width)
        for row in inst.rows.tolist():
            users.setdefault(row, set()).add(j)
    row, j = max(((r, next(iter(js))) for r, js in users.items() if len(js) == 1),
                 key=lambda pair: (pair[1] % cfg.batch_size > 0, pair[1]))
    assert j % cfg.batch_size, "every lone reader is first in its batch"
    return j, row


class TestCrossValidate:
    @pytest.mark.parametrize("kwargs,message", [
        (dict(k=2.5), "k must be an integer >= 2, got 2.5"),
        (dict(k=True), "k must be an integer >= 2, got True"),
        (dict(k=1), "k must be an integer >= 2, got 1"),
        (dict(k="3"), "k must be an integer >= 2, got '3'"),
        (dict(jobs=0), "jobs must be an integer >= 1, got 0"),
        (dict(jobs=-2), "jobs must be an integer >= 1, got -2"),
        (dict(jobs=2.0), "jobs must be an integer >= 1, got 2.0"),
        (dict(jobs=False), "jobs must be an integer >= 1, got False"),
    ])
    def test_bad_k_or_jobs_refused_before_any_work(self, monkeypatch, kwargs, message):
        def no_work(*args, **kw):
            raise AssertionError("work started")

        for name in ("resolve_embeddings", "_encode_corpus", "_run_fold"):
            monkeypatch.setattr(harness, name, no_work)
        sents, mentions = small_corpus(n=6)
        with pytest.raises(ValueError) as err:
            cross_validate(tiny_config(), sents, mentions, **kwargs)
        assert str(err.value) == message

    def test_pooled_is_fold_sum(self):
        sents, mentions = small_corpus()
        res = cross_validate(tiny_config(), sents, mentions, k=3)
        total = sum((m.confusion for m in res.fold_metrics), np.zeros((3, 3), dtype=int))
        assert np.array_equal(res.pooled.confusion, total)
        assert res.pooled.n == len(mentions)
        assert res.fold_sizes == [len(f) for f in res.fold_test_indices]

    def test_deterministic_reports(self):
        sents, mentions = small_corpus()
        a = cross_validate(tiny_config(), sents, mentions, k=3)
        b = cross_validate(tiny_config(), sents, mentions, k=3)
        assert a.report_text() == b.report_text()
        assert a.report_dict() == b.report_dict()

    def test_jobs_do_not_change_result(self):
        sents, mentions = small_corpus(n=12)
        serial = cross_validate(tiny_config(epochs=1), sents, mentions, k=3, jobs=1)
        parallel = cross_validate(tiny_config(epochs=1), sents, mentions, k=3, jobs=2)
        assert serial.report_text() == parallel.report_text()

    def test_each_mention_encoded_once(self, monkeypatch):
        calls = []
        encode = harness.encode_input

        def counted(sent, mention, *args, **kwargs):
            calls.append((mention.doc_id, mention.sent_id, mention.token_id))
            return encode(sent, mention, *args, **kwargs)

        monkeypatch.setattr(harness, "encode_input", counted)
        sents, mentions = small_corpus(n=12)
        cfg = tiny_config(epochs=1, finetune_embeddings=True)
        cross_validate(cfg, sents, mentions, k=3)
        assert len(calls) == len(mentions)
        assert len(set(calls)) == len(mentions)

    def test_each_fold_trains_then_evaluates_once_in_fold_order(self, monkeypatch):
        # the benchmark times a fold as its harness.train and harness.evaluate
        # calls (perfbench/tracer.py, FOLD_SPANS)
        calls = []
        train_, evaluate_ = harness.train, harness.evaluate

        def traced_train(config, corpus, mentions, *args, **kwargs):
            calls.append(("train", list(mentions)))
            return train_(config, corpus, mentions, *args, **kwargs)

        def traced_evaluate(trained, corpus, mentions, *args, **kwargs):
            calls.append(("evaluate", list(mentions)))
            return evaluate_(trained, corpus, mentions, *args, **kwargs)

        monkeypatch.setattr(harness, "train", traced_train)
        monkeypatch.setattr(harness, "evaluate", traced_evaluate)
        sents, mentions = small_corpus(n=12)
        cfg = tiny_config(epochs=1)
        cross_validate(cfg, sents, mentions, k=4)
        folds = kfold(mentions, 4, cfg.seed)
        want = []
        for fold, test_idx in enumerate(folds):
            train_idx = sorted(i for f, other in enumerate(folds) if f != fold for i in other)
            assert sorted(train_idx + list(test_idx)) == list(range(len(mentions)))
            want.append(("train", [mentions[i] for i in train_idx]))
            want.append(("evaluate", [mentions[i] for i in test_idx]))
        assert calls == want

    def test_workers_capped_at_folds(self, monkeypatch):
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        sents, mentions = small_corpus(n=12)
        res = cross_validate(tiny_config(epochs=1), sents, mentions, k=3, jobs=64)
        assert started == [3]
        assert len(res.fold_metrics) == 3

    def test_fold_tasks_carry_no_sentences(self, monkeypatch):
        # a worker gets the encoded inputs, the mentions and the table; a
        # process pool pickles each task, and no sentence is among what it ships
        shipped = []

        class SentenceSpy(pickle.Pickler):
            def persistent_id(self, obj):
                if isinstance(obj, DepSentence):
                    shipped.append(obj)
                return None

        def ship(obj):
            buf = io.BytesIO()
            SentenceSpy(buf).dump(obj)
            return pickle.loads(buf.getvalue())

        class PicklingPool:  # in process, each task pickled as a real pool does
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(ship(item)) for item in items]

        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", PicklingPool)
        sents, mentions = small_corpus(n=12)
        ship(sents)
        assert len(shipped) == len(sents)  # the spy sees sentences where they are
        shipped.clear()
        cfg = tiny_config(epochs=1)
        serial, pooled = (cross_validate(cfg, sents, mentions, k=3, jobs=jobs) for jobs in (1, 2))
        assert shipped == []
        assert pooled.report_text() == serial.report_text()
        assert json.dumps(pooled.report_dict()) == json.dumps(serial.report_dict())

    def test_keep_models(self):
        sents, mentions = small_corpus(n=12)
        res = cross_validate(
            tiny_config(epochs=1), sents, mentions, k=3, keep_models=True
        )
        assert res.models is not None and len(res.models) == 3
        for trained, fold in zip(res.models, res.fold_test_indices):
            m = evaluate(trained, sents, [mentions[i] for i in fold])
            assert m.n == len(fold)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_kept_models_read_their_table(self, jobs):
        sents, mentions = small_corpus(n=12)
        res = cross_validate(tiny_config(epochs=1, finetune_embeddings=True), sents, mentions,
                             k=3, jobs=jobs, keep_models=True)
        assert all(t.model.vectors is t.table.vectors for t in res.models)

    def test_fold_error_prefixed(self):
        # a learning rate this large overflows the parameters in one step
        sents, mentions = small_corpus(n=12)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingError, match=r"^fold \d+: non-finite loss"):
                cross_validate(tiny_config(epochs=3, learning_rate=1e308), sents, mentions, k=3)

    def test_fold_with_non_finite_logits_prefixed(self, monkeypatch):
        def overflowing_train(*args, **kwargs):
            trained = real_train(*args, **kwargs)
            H = trained.model.hidden
            trained.model.params["b"][: 3 * H] = 50.0  # saturated gates, huge readout
            trained.model.params["Wy"][...] = 1.7e308
            return trained

        real_train = harness.train
        monkeypatch.setattr(harness, "train", overflowing_train)
        sents, mentions = small_corpus(n=12)
        with np.errstate(over="ignore"):
            with pytest.raises(TrainingError, match=r"^fold 0: non-finite logits at mention "):
                cross_validate(tiny_config(epochs=1), sents, mentions, k=3)

    def test_encoding_error_names_the_mention(self):
        sents, mentions = small_corpus(n=12)
        from dataclasses import replace
        m = mentions[5] = replace(mentions[5], label=None)
        with pytest.raises(CorpusError,
                           match=f"^mention {m.doc_id}/{m.sent_id} token {m.token_id} has no"):
            cross_validate(tiny_config(epochs=1), sents, mentions, k=3)

    def test_report_text_shape(self):
        sents, mentions = small_corpus(n=12)
        res = cross_validate(tiny_config(epochs=1), sents, mentions, k=3)
        lines = res.report_text().splitlines()
        assert lines[0].startswith("fold sizes: ")
        assert lines[1].split() == ["PA", "OG", "FU", "Macro", "Micro"]
        assert lines[2].startswith("fold 0")
        assert lines[-1].startswith("pooled")


class TestTrainedRoundTrip:
    @pytest.mark.parametrize("model_type,representation", ACCEPTED_PAIRS)
    def test_save_load_same_predictions(self, tmp_path, model_type, representation):
        # every accepted pair trains, and its checkpoint restores it bitwise
        sents, mentions = small_corpus(n=12)
        cfg = tiny_config(model_type=model_type, representation=representation, epochs=1)
        trained = train(cfg, sents, mentions)
        path = str(tmp_path / "m.ckpt")
        save_trained(trained, path)
        loaded = load_trained(path)
        assert loaded.config == cfg
        batch = [inst for inst, _ in harness._encode_corpus(sents, mentions, cfg, trained.table)]
        want, _ = trained.model.forward(batch)
        got, _ = loaded.model.forward(batch)
        assert want.tobytes() == got.tobytes()

    def test_loaded_model_reads_the_table_matrix(self, tmp_path):
        sents, mentions = small_corpus(n=12)
        path = str(tmp_path / "m.ckpt")
        save_trained(train(tiny_config(epochs=1), sents, mentions), path)
        loaded = load_trained(path)
        assert loaded.model.vectors is loaded.table.vectors
