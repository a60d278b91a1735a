"""Saliency maps: gradient correctness, CSV/HTML emission, parsing."""

import math

import numpy as np
import pytest

from depchain import (
    SaliencyMap,
    TemporalStatus,
    build_model,
    classify,
    compute_saliency,
    encode_input,
    index_sentences,
    model_loss,
    emit_heatmap,
    heatmap_filename,
    parse_heatmap_csv,
    restore_model,
    saliency_maps,
    train,
)
from depchain.models import random_batch, random_instance
from depchain.nncore import softmax_xent

from test_harness import small_corpus, tiny_config


def fresh(model_type="lstm", dim=4, hidden=5, length=6, seed=0, readout="root"):
    rng = np.random.default_rng(seed)
    X = np.empty((length, dim))
    model = build_model(model_type, X, hidden, rng, tree_readout=readout)
    inst = random_instance(model_type, X, rng)
    return model, inst


def zero_model(model_type="lstm", dim=4, hidden=5):
    model, inst = fresh(model_type, dim, hidden)
    for name in model.params.values:
        model.params[name][...] = 0.0
    return model, inst


class TestComputeSaliency:
    @pytest.mark.parametrize("model_type,readout", [
        *(pytest.param(m, "root", id=m) for m in ("lstm", "cnn", "treelstm")),
        pytest.param("treelstm", "target", id="treelstm-target")])
    def test_raw_matches_finite_differences(self, model_type, readout):
        model, inst = fresh(model_type, length=9 if model_type == "cnn" else 5, readout=readout)
        if readout == "target":
            assert inst.target_pos != inst.root_pos  # the readouts differ
        label = TemporalStatus.ONGOING
        smap = compute_saliency(model, inst, label=label)

        def loss_at(Xp):
            logits, _ = restore_model(model_type, model.params.buffer, Xp, 5,
                                      readout).forward([inst])
            return softmax_xent(logits, [int(label)])[0][0]

        eps = 1e-6
        rng = np.random.default_rng(1)
        for _ in range(10):
            t = int(rng.integers(len(inst)))
            d = int(rng.integers(model.vectors.shape[1]))
            Xp = model.vectors[inst.rows]
            Xp[t, d] += eps
            up = loss_at(Xp)
            Xp[t, d] -= 2 * eps
            down = loss_at(Xp)
            num = abs((up - down) / (2 * eps))
            assert abs(num - smap.raw[t, d]) < 1e-6

    def test_scores_are_mean_absolute_raw(self):
        model, inst = fresh()
        smap = compute_saliency(model, inst, label=TemporalStatus.PAST)
        assert np.allclose(smap.scores, smap.raw.mean(axis=1), atol=1e-15)
        assert (smap.raw >= 0).all()
        assert smap.tokens == inst.forms

    def test_zero_model_all_zero(self):
        model, inst = zero_model()
        smap = compute_saliency(model, inst)
        assert all(s == 0.0 for s in smap.scores)
        assert smap.predicted is TemporalStatus.PAST  # equal logits: lowest index

    @pytest.mark.parametrize("model_type", ["lstm", "cnn", "treelstm"])
    def test_one_forward_one_backward(self, model_type, monkeypatch):
        # per map of one input, and per batch of them
        rng = np.random.default_rng(7)
        X = np.empty((22, 4))
        model = build_model(model_type, X, 5, rng)
        X[...] = rng.standard_normal(X.shape)
        calls = []
        for name in ("forward", "backward"):
            method = getattr(model, name)

            def counted(*a, _method=method, _name=name, **kw):
                calls.append(_name)
                return _method(*a, **kw)

            monkeypatch.setattr(model, name, counted)
        for lengths in ([6], [5, 1, 7, 3]):
            batch = random_batch(model_type, X, lengths, rng)
            calls.clear()
            if len(batch) == 1:
                maps = [compute_saliency(model, batch[0])]
            else:
                maps = list(saliency_maps(model, batch))
            assert calls == ["forward", "backward"]
            preds = [classify(model, inst)[0] for inst in batch]
            _, _, dX = model_loss(model, batch, [int(p) for p in preds], input_grad=True)
            assert [smap.predicted for smap in maps] == preds
            assert np.array_equal(np.concatenate([smap.raw for smap in maps]), np.abs(dX))

    def test_default_label_is_prediction(self):
        model, inst = fresh(seed=3)
        smap = compute_saliency(model, inst)
        assert smap.gold is None
        assert smap.predicted is not None

    def test_explicit_label_recorded(self):
        model, inst = fresh(seed=4)
        smap = compute_saliency(model, inst, label=TemporalStatus.FUTURE)
        assert smap.gold is TemporalStatus.FUTURE
        # prediction reported alongside, independent of the requested label
        assert smap.predicted is not None

    def test_label_changes_gradients(self):
        model, inst = fresh(seed=5)
        pred, _ = classify(model, inst)
        other = TemporalStatus((int(pred) + 1) % 3)
        at_pred = compute_saliency(model, inst)
        at_other = compute_saliency(model, inst, label=other)
        assert not np.allclose(at_pred.raw, at_other.raw)

    def test_no_gradient_leak(self):
        model, inst = fresh(seed=6)
        compute_saliency(model, inst)
        for name in model.params.values:
            assert not model.params.grads[name].any()

    @pytest.mark.parametrize("model_type", ["lstm", "cnn", "treelstm"])
    def test_accumulated_gradients_left_alone(self, model_type):
        # a map drawn between a training step's backward and its update
        # must not change the update
        model, inst = fresh(model_type, seed=8)
        model_loss(model, [inst], [1])
        accumulated = model.params.grad_buffer.copy()
        assert accumulated.any()
        compute_saliency(model, inst)
        assert model.params.grad_buffer.tobytes() == accumulated.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            SaliencyMap(tokens=("a",), scores=(0.1, 0.2), raw=None,
                        predicted=None, gold=None)
        with pytest.raises(ValueError):
            SaliencyMap(tokens=("a",), scores=(-0.1,), raw=None,
                        predicted=None, gold=None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_refused(self, bad):
        # NaN < 0 is False: without its own check a NaN reached the CSV as
        # "nan", which parse_heatmap_csv refuses, and the HTML as an alpha of nan
        with pytest.raises(ValueError, match=f"position 2: saliency score {bad} is not a finite"):
            SaliencyMap(tokens=("a", "b"), scores=(0.5, bad), raw=None,
                        predicted=None, gold=None)


class TestSaliencyMaps:
    @pytest.mark.parametrize("labels", ["predicted", "mixed"])
    @pytest.mark.parametrize("model_type,representation", [
        ("lstm", "window"), ("lstm", "chain"), ("cnn", "chain"), ("treelstm", "tree")])
    def test_batch_matches_one_at_a_time(self, model_type, representation, labels):
        # trained until the chain models predict two classes
        sents, mentions = small_corpus(n=60)
        cfg = tiny_config(model_type=model_type, representation=representation, epochs=20,
                          learning_rate=0.02, hidden=8, dropout=0.0)
        trained = train(cfg, sents, mentions)
        by_key = index_sentences(sents)
        batch = [encode_input(by_key[(m.doc_id, m.sent_id)], m, representation, trained.table)
                 for m in mentions]
        at = (None if labels == "predicted"
              else [None if i % 3 == 0 else m.label for i, m in enumerate(mentions)])
        maps = list(saliency_maps(trained.model, batch, at))
        assert len(maps) == len(batch)
        for i, (inst, smap) in enumerate(zip(batch, maps)):
            one = compute_saliency(trained.model, inst, None if at is None else at[i])
            assert smap.tokens == one.tokens == inst.forms
            assert smap.predicted is one.predicted
            assert smap.gold is one.gold
            assert np.abs(smap.raw - one.raw).max() <= 1e-12
            for fmt in ("csv", "html"):
                assert emit_heatmap(smap, fmt) == emit_heatmap(one, fmt)

    def test_labels_must_match_the_batch(self):
        model, inst = fresh()
        with pytest.raises(ValueError):
            list(saliency_maps(model, [inst, inst], [TemporalStatus.PAST]))


def simple_map(tokens=("alpha", "beta", "gamma"), scores=(0.25, 0.5, 0.125),
               predicted=TemporalStatus.FUTURE, gold=TemporalStatus.PAST):
    return SaliencyMap(tokens=tokens, scores=scores, raw=None,
                       predicted=predicted, gold=gold)


class TestCsvHeatmap:
    def test_line_count_and_format(self):
        smap = simple_map(tokens=tuple("abcde"), scores=(0.1, 0.2, 0.3, 0.4, 0.5))
        text = emit_heatmap(smap, "csv")
        lines = text.splitlines()
        assert len(lines) == 6
        assert lines[0] == "position,token,score"
        assert lines[1] == "1,a,0.100000"
        assert lines[5] == "5,e,0.500000"
        assert text.endswith("\n")

    def test_round_trip(self):
        smap = simple_map()
        back = parse_heatmap_csv(emit_heatmap(smap, "csv"))
        assert back.tokens == smap.tokens
        for a, b in zip(back.scores, smap.scores):
            assert abs(a - b) < 5e-7  # six printed decimals
        assert back.raw is None and back.predicted is None and back.gold is None

    def test_comma_token_quoted(self):
        smap = simple_map(tokens=("10,000", 'say "hi"', "plain"),
                          scores=(0.1, 0.2, 0.3))
        text = emit_heatmap(smap, "csv")
        assert '"10,000"' in text
        assert '"say ""hi"""' in text
        back = parse_heatmap_csv(text)
        assert back.tokens == ("10,000", 'say "hi"', "plain")

    @pytest.mark.parametrize("tok", ["a\nb", "a\rb", "a\r\nb", "a\u2028b", "a\x85b", "ab\n"])
    def test_line_break_token_refused(self, tok):
        # the parser splits lines as str.splitlines does, so such a token
        # would write a file it rejects
        assert len(f"x{tok}x".splitlines()) > 1
        smap = simple_map(tokens=("ok", tok, "fine"))
        with pytest.raises(ValueError, match="position 2"):
            emit_heatmap(smap, "csv")
        assert emit_heatmap(smap, "html").startswith("<!DOCTYPE html>")  # HTML holds any text

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_heatmap_csv("pos,tok,val\n1,a,0.5\n")

    def test_parse_rejects_out_of_order(self):
        text = "position,token,score\n1,a,0.1\n3,b,0.2\n"
        with pytest.raises(ValueError, match="out of order"):
            parse_heatmap_csv(text)

    def test_parse_rejects_malformed_row(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_heatmap_csv("position,token,score\nnotarow\n")

    @pytest.mark.parametrize("row", ["1,a,high", "one,a,0.5", "1,a,nan", "1,a,inf", "1,a,-inf"])
    def test_parse_rejects_unparsable_field(self, row):
        with pytest.raises(ValueError, match="line 2: malformed row"):
            parse_heatmap_csv(f"position,token,score\n{row}\n")


class TestHtmlHeatmap:
    def test_self_contained_document(self):
        text = emit_heatmap(simple_map(), "html")
        assert text.startswith("<!DOCTYPE html>")
        assert "</html>" in text
        assert "http://" not in text and "https://" not in text
        assert "<script" not in text

    def test_caption_labels(self):
        text = emit_heatmap(simple_map(), "html")
        assert "predicted: FUTURE gold: PAST" in text

    def test_caption_dash_for_missing_gold(self):
        smap = simple_map(gold=None)
        assert "predicted: FUTURE gold: -" in emit_heatmap(smap, "html")

    def test_alpha_scaling(self):
        text = emit_heatmap(simple_map(scores=(0.25, 0.5, 0.125)), "html")
        assert "rgba(178, 24, 43, 1.0000)" in text  # peak token
        assert "rgba(178, 24, 43, 0.5000)" in text
        assert "rgba(178, 24, 43, 0.2500)" in text

    def test_zero_scores_render_transparent(self):
        text = emit_heatmap(simple_map(scores=(0.0, 0.0, 0.0)), "html")
        assert text.count("rgba(178, 24, 43, 0.0000)") == 3

    def test_uniform_scores_equal_shades(self):
        text = emit_heatmap(simple_map(scores=(0.3, 0.3, 0.3)), "html")
        assert text.count("rgba(178, 24, 43, 1.0000)") == 3

    def test_tokens_escaped(self):
        smap = simple_map(tokens=("<b>", "&amp", "ok"), scores=(0.1, 0.2, 0.3))
        text = emit_heatmap(smap, "html")
        assert "&lt;b&gt;" in text
        assert "&amp;amp" in text

    def test_empty_map_rejected(self):
        smap = SaliencyMap(tokens=(), scores=(), raw=None,
                           predicted=None, gold=None)
        for fmt in ("csv", "html"):
            with pytest.raises(ValueError, match="empty"):
                emit_heatmap(smap, fmt)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            emit_heatmap(simple_map(), "pdf")


class TestFilename:
    def test_plain(self):
        assert heatmap_filename("doc1", "s1", 3, "csv") == "doc1_s1_3.csv"

    def test_sanitized(self):
        name = heatmap_filename("doc 1/a", "s:2", 5, "html")
        assert name == "doc-1-a_s-2_5.html"

    def test_empty_component(self):
        assert heatmap_filename("", "s1", 1, "csv") == "x_s1_1.csv"
