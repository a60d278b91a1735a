"""Numeric core: loss, dropout, RMSProp, grad check, embeddings, checkpoints."""

import json
import math
import platform
import re
import resource

import numpy as np
import pytest

from depchain import (
    CheckpointError,
    EmbeddingError,
    EmbeddingTable,
    ParamSet,
    RmsProp,
    TrainConfig,
    TrainedModel,
    build_model,
    grad_check,
    load_checkpoint,
    load_embeddings,
    load_trained,
    model_loss,
    random_embeddings,
    save_checkpoint,
    save_trained,
    softmax_xent,
    write_embeddings,
)
from depchain.models import gradcheck_model, random_batch
from depchain import models, nncore
from depchain.nncore import atomic_open, dropout

# independently computed at 40 digits: log(1 + e^-1 + e^-2)
XENT_123_GOLD2 = 0.4076059644443803
LN3 = 1.0986122886681098


class TestSoftmaxXent:
    def test_uniform(self):
        loss, prob, dlogits = (a[0] for a in softmax_xent(np.zeros((1, 3)), [0]))
        assert abs(loss - LN3) < 1e-12
        assert np.allclose(prob, 1 / 3, atol=1e-12)
        assert np.allclose(dlogits, [1 / 3 - 1, 1 / 3, 1 / 3], atol=1e-12)

    def test_saturated(self):
        loss, _, _ = softmax_xent(np.array([[10.0, -10.0, -10.0]]), [0])
        assert loss[0] < 1e-8

    def test_derived_value(self):
        loss, prob, _ = (a[0] for a in softmax_xent(np.array([[1.0, 2.0, 3.0]]), [2]))
        assert abs(loss - XENT_123_GOLD2) < 1e-12
        assert abs(loss + math.log(prob[2])) < 1e-12

    def test_prob_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = rng.standard_normal(5) * 10
            prob = softmax_xent(logits[None], [0])[1][0]
            assert abs(prob.sum() - 1.0) < 1e-12
            assert ((prob > 0) & (prob < 1)).all()

    def test_dlogits_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal(3)
        dlogits = softmax_xent(logits[None], [1])[2][0]
        eps = 1e-6
        for j in range(3):
            bumped = logits.copy()
            bumped[j] += eps
            lp = softmax_xent(bumped[None], [1])[0][0]
            bumped[j] -= 2 * eps
            lm = softmax_xent(bumped[None], [1])[0][0]
            assert abs((lp - lm) / (2 * eps) - dlogits[j]) < 1e-8

    def test_large_logits_stable(self):
        loss, prob, _ = (a[0] for a in softmax_xent(np.array([[1000.0, 999.0, 998.0]]), [0]))
        assert math.isfinite(loss)
        assert abs(prob.sum() - 1.0) < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            softmax_xent(np.array([[1.0, float("nan"), 0.0]]), [0])

    def test_gold_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_xent(np.zeros((1, 3)), [3])

    @pytest.mark.parametrize("B,C", [(1, 3), (16, 3), (7, 5)])
    def test_outputs_equal_the_textbook_formulas_bitwise(self, B, C):
        rng = np.random.default_rng(B * C)
        logits = rng.standard_normal((B, C)) * 8
        gold = rng.integers(0, C, B)
        loss, prob, dlogits = softmax_xent(logits, gold)
        for row, g, *got in zip(logits, gold, loss, prob, dlogits):
            z = row - row.max()
            lse = np.log(np.exp(z).sum())
            p = np.exp(z - lse)
            onehot = np.zeros(C)
            onehot[g] = 1.0
            assert got[0] == lse - z[g]
            assert np.array_equal(got[1], p)
            assert np.array_equal(got[2], p - onehot)

    @pytest.mark.parametrize("gold", [[-1], [3], [0.5]])
    def test_gold_outside_the_classes(self, gold):
        with pytest.raises(ValueError, match="out of range"):
            softmax_xent(np.zeros((1, 3)), gold)

    @pytest.mark.parametrize("shape,gold", [((3,), 0), ((3,), [0, 0, 0]), ((1, 1, 3), [0])])
    def test_only_batch_form_accepted(self, shape, gold):
        with pytest.raises(ValueError, match="gold for"):
            softmax_xent(np.zeros(shape), gold)


class TestRmsProp:
    def test_zero_gradient_fixed_point(self):
        p = ParamSet.of({"w": np.array([1.0, -2.0, 3.0])})
        opt = RmsProp(p)
        opt.step()
        assert np.array_equal(p["w"], [1.0, -2.0, 3.0])

    def test_scalar_step_derived(self):
        p = ParamSet.of({"w": np.array([1.0])})
        p.grads["w"][0] = 1.0
        opt = RmsProp(p, learning_rate=0.001)  # decay 0.9, epsilon 1e-8
        opt.step()
        assert abs(opt.acc[0] - 0.1) < 1e-15
        # independently computed: 1 - 0.001/(sqrt(0.1) + 1e-8)
        assert abs(p["w"][0] - 0.9968377224398316) < 1e-12

    def test_odd_symmetry(self):
        pa, pb = ParamSet.of({"w": np.full(4, 2.0)}), ParamSet.of({"w": np.full(4, 2.0)})
        g = np.array([0.5, -1.0, 2.0, -3.0])
        pa.grads["w"][...] = g
        pb.grads["w"][...] = -g
        RmsProp(pa).step()
        RmsProp(pb).step()
        assert np.allclose(pa["w"] - 2.0, -(pb["w"] - 2.0), atol=1e-15)

    def test_grads_zeroed_after_step(self):
        p = ParamSet.of({"w": np.ones(3)})
        p.grads["w"][...] = 5.0
        RmsProp(p).step()
        assert np.array_equal(p.grads["w"], np.zeros(3))

    def test_bitwise_deterministic(self):
        def run():
            p = ParamSet.of({"w": np.linspace(-1, 1, 8)})
            opt = RmsProp(p)
            for k in range(5):
                p.grads["w"][...] = np.sin(np.arange(8) + k)
                opt.step()
            return p["w"].tobytes()

        assert run() == run()

    def test_flat_step_equals_per_array_reference(self):
        """One step over the flat buffer is bitwise the per-array update."""
        rng = np.random.default_rng(7)
        shapes = {"W": (3, 4), "b": (4,), "v": (2, 5, 2)}
        start = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        p = ParamSet.of(start)
        opt = RmsProp(p, learning_rate=0.01)
        theta = {name: v.copy() for name, v in start.items()}
        acc = {name: np.zeros(shape) for name, shape in shapes.items()}
        for k in range(7):
            grads = {name: rng.standard_normal(shape) * 10.0 ** (k - 3)
                     for name, shape in shapes.items()}
            if k in (2, 5):
                grads = {name: np.zeros(shape) for name, shape in shapes.items()}
            grads["b"][1] = 0.0
            for name, g in grads.items():
                p.grads[name][...] = g
                # the parent's per-array step, kept here as the reference
                acc[name] *= 0.9
                acc[name] += (1.0 - 0.9) * g * g
                theta[name] -= 0.01 * g / (np.sqrt(acc[name]) + 1e-8)
            opt.step()
            for name in shapes:
                assert p[name].tobytes() == theta[name].tobytes()
            assert opt.acc.tobytes() == np.concatenate([a.ravel() for a in acc.values()]).tobytes()
            assert not p.grad_buffer.any()

    def test_int_rate_steps_as_its_float(self):
        def run(rate):
            p = ParamSet.of({"w": np.linspace(-1, 1, 8)})
            opt = RmsProp(p, learning_rate=rate)
            for k in range(3):
                p.grads["w"][...] = np.sin(np.arange(8) + k)
                opt.step()
            return p["w"].tobytes() + opt.acc.tobytes()

        assert run(1) == run(1.0)

    def test_replaced_gradient_rejected(self):
        p = ParamSet.of({"w": np.ones(3)})
        p.grads["w"] = np.ones(3)  # same shape, but a step would never read it
        with pytest.raises(ValueError, match=r"\['w'\] are not this set's views"):
            RmsProp(p).step()

    def test_shape_mismatch_rejected(self):
        p = ParamSet.of({"w": np.ones(3)})
        opt = RmsProp(p)
        p.grads["w"] = np.ones(4)
        with pytest.raises(ValueError):
            opt.step()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy is set on glibc only")
def test_training_steps_reuse_freed_heap():
    # A steady-state step frees and reallocates the same arrays. With glibc's
    # default thresholds these 20 steps took about 8,500 minor page faults,
    # each freed page handed back to the kernel and faulted in again.
    rng = np.random.default_rng(0)
    vectors = np.empty((16 * 17, 24))
    model = build_model("treelstm", vectors, 32, rng)
    batch = random_batch("treelstm", vectors, [17] * 16, rng)
    golds = rng.integers(0, 3, size=16)
    opt = RmsProp(model.params, learning_rate=0.01)

    def faults(steps):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(steps):
            model_loss(model, batch, golds)
            opt.step()
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults(2)  # warm-up: tree schedules cached, heap grown
    assert faults(20) < 100


class TestConstants:
    """The hot paths' 0-d scalar operands (nncore.constant)."""

    def operands(self):
        opt = RmsProp(ParamSet.of({"w": np.ones(2)}), learning_rate=0.01)
        return (nncore.ONE, nncore._DECAY, nncore._KEEP, nncore._EPSILON, opt.learning_rate,
                models._ZERO, models._HALF, models._MINUS_ONE)

    def test_float64_zero_d_and_read_only(self):
        for c in self.operands():
            assert c.dtype == np.float64 and c.shape == ()
            with pytest.raises(ValueError, match="read-only"):
                c += 1.0

    def test_values_are_the_python_floats(self):
        values = [float(c) for c in self.operands()]
        assert values == [1.0, 0.9, 1.0 - 0.9, 1e-8, 0.01, 0.0, 0.5, -1.0]


class TestDropout:
    def test_ratio_zero_identity(self):
        x = np.arange(5.0)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for y, mask in (dropout(x, 0.0, rng), dropout(x, 0.0)):
            assert y is x
            assert mask == 1.0
        assert rng.bit_generator.state == before  # no random numbers drawn

    def test_train_mean_preserved(self):
        rng = np.random.default_rng(3)
        x = np.ones(10**6)
        y, _ = dropout(x, 0.5, rng)
        assert abs(y.mean() - 1.0) < 0.01

    def test_mask_consistency(self):
        rng = np.random.default_rng(4)
        x = np.arange(1.0, 9.0)
        y, mask = dropout(x, 0.25, rng)
        assert np.array_equal(y, x * mask)
        kept = mask > 0
        assert np.allclose(mask[kept], 1 / 0.75)

    @pytest.mark.parametrize("ratio", [0.1, 0.25, 0.5, 0.9])
    def test_mask_is_zero_or_the_scale_from_one_uniform_draw(self, ratio):
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        x = np.arange(1.0, 41.0).reshape(5, 8)
        y, mask = dropout(x, ratio, rng)
        u = twin.random(x.shape)  # the one draw dropout makes
        assert rng.bit_generator.state == twin.bit_generator.state
        scale = 1.0 / (1.0 - ratio)
        assert mask.dtype == np.float64
        assert np.array_equal(mask, np.where(u >= ratio, scale, 0.0))
        assert np.array_equal(mask, (u >= ratio).astype(np.float64) / (1.0 - ratio))
        assert np.array_equal(y, x * mask)

    def test_ratio_one_rejected(self):
        with pytest.raises(ValueError):
            dropout(np.ones(3), 1.0, np.random.default_rng(0))

    def test_train_without_rng_rejected(self):
        with pytest.raises(ValueError):
            dropout(np.ones(3), 0.5)


class TestGradCheck:
    def test_linear_softmax_toy(self):
        rng = np.random.default_rng(0)
        p = ParamSet.of({"W": rng.standard_normal((4, 3)) * 0.3,
                         "b": rng.standard_normal(3) * 0.3})
        x = rng.standard_normal(4)

        def loss_fn():
            logits = x @ p["W"] + p["b"]
            loss, _, dlogits = softmax_xent(logits[None], [1])
            p.grads["W"] += np.outer(x, dlogits[0])
            p.grads["b"] += dlogits[0]
            return loss[0]

        assert grad_check(loss_fn, p) < 1e-6

    def test_flat_direction_guard(self):
        p = ParamSet.of({"unused": np.zeros(4)})

        def loss_fn():
            return 1.25  # constant: analytic and numeric both exactly zero

        assert grad_check(loss_fn, p) == 0.0

    def test_lstm_short_sequence(self):
        # short sequence, small model: every coordinate is probeable
        assert gradcheck_model("lstm", seed=0, dim=6, hidden=8, length=4) < 1e-4

    def test_wrong_gradient_detected(self):
        p = ParamSet.of({"w": np.array([0.7])})

        def loss_fn():
            p.grads["w"][0] += 2 * p["w"][0] * 1.1  # deliberately off by 10%
            return float(p["w"][0] ** 2)

        assert grad_check(loss_fn, p) > 0.05

    def test_nonfinite_loss_rejected(self):
        p = ParamSet.of({"w": np.ones(1)})

        def loss_fn():
            return float("inf")

        with pytest.raises(ValueError):
            grad_check(loss_fn, p)


class TestParamSet:
    def test_views_share_the_flat_buffers(self):
        values = {"W": np.arange(6.0).reshape(2, 3), "b": np.array([7.0]), "e": np.zeros((0, 2))}
        p = ParamSet.of(values)
        assert p.buffer.shape == p.grad_buffer.shape == (7,)
        assert np.array_equal(p.buffer, [0, 1, 2, 3, 4, 5, 7])
        assert list(p.values) == list(p.grads) == ["W", "b", "e"]
        for name, v in values.items():
            assert p[name].shape == p.grads[name].shape == v.shape
            assert np.array_equal(p[name], v) and p[name] is not v
            assert np.shares_memory(p[name], p.buffer) or v.size == 0
            assert np.shares_memory(p.grads[name], p.grad_buffer) or v.size == 0
        p.buffer[3:6] = -1.0
        p.grads["W"][1] = 2.0
        assert np.array_equal(p["W"], [[0, 1, 2], [-1, -1, -1]])
        assert np.array_equal(p.grad_buffer, [0, 0, 0, 2, 2, 2, 0])

    def test_buffer_used_in_place(self):
        buffer = np.arange(5.0)
        p = ParamSet({"a": (2, 2), "b": (1,)}, buffer)
        assert p.buffer is buffer
        p["b"][0] = 9.0
        assert buffer[4] == 9.0

    @pytest.mark.parametrize("buffer", [np.zeros(4), np.zeros(6), np.zeros((1, 5)),
                                        np.zeros(5, dtype=np.float32)])
    def test_wrong_buffer_rejected(self, buffer):
        with pytest.raises(ValueError, match="flat float64 buffer"):
            ParamSet({"a": (2, 2), "b": (1,)}, buffer)

    def test_zero_and_scale(self):
        p = ParamSet.of({"w": np.ones(3)})
        p.grads["w"][...] = 4.0
        p.scale_grads(0.25)
        assert np.array_equal(p.grads["w"], np.ones(3))
        p.zero_grads()
        assert np.array_equal(p.grads["w"], np.zeros(3))


EMB_FIXTURE = """3 4
cat 0.1 0.2 0.3 0.4
dog -1 0 1 2
Paris 9 8 7 6
"""


class TestEmbeddings:
    def test_known_word(self):
        t = load_embeddings(EMB_FIXTURE)
        assert t.dim == 4
        assert np.array_equal(t.vectors[t.row_of("cat")], [0.1, 0.2, 0.3, 0.4])

    def test_unknown_word_stable(self):
        t = load_embeddings(EMB_FIXTURE)
        assert t.row_of("zzzz") == -1
        assert np.array_equal(t.vectors[-1], load_embeddings(EMB_FIXTURE).vectors[-1])

    def test_lowercase_fallback(self):
        t = load_embeddings(EMB_FIXTURE)
        assert t.row_of("CAT") == t.row_of("cat") == 0
        # exact match wins before lowercasing
        assert np.array_equal(t.vectors[t.row_of("Paris")], [9, 8, 7, 6])

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param("2 4\ncat 0.1 0.2 0.3 0.4\ndog 1 2 3\n", id="short-row"),
            pytest.param("2 2\ncat 0.1 0.2\ndog nan 1\n", id="nan"),
            pytest.param("2 2\ncat 0.1 0.2\ndog 1 inf\n", id="inf"),
            pytest.param("2 2\ncat 0.1 0.2\ndog -Infinity 1\n", id="minus-inf"),
            pytest.param("2 2\ncat 0.1 0.2\ndog 1 x\n", id="non-numeric"),
            # float() reads these as 10.0 and 3.0; write_embeddings never writes them
            pytest.param("2 2\ncat 0.1 0.2\ndog 1_0 1\n", id="underscore"),
            pytest.param("2 2\ncat 0.1 0.2\ndog 1 \u0663\n", id="arabic-indic-digit"),
            pytest.param("2 2\ncat 0.1 0.2\ndog 1 \uff13\n", id="fullwidth-digit"),
        ],
    )
    def test_bad_row_reports_line(self, bad):
        with pytest.raises(EmbeddingError, match="line 3"):
            load_embeddings(bad)

    def test_malformed_header(self):
        with pytest.raises(EmbeddingError, match="header"):
            load_embeddings("banana\ncat 1 2\n")

    @pytest.mark.parametrize(
        "text,pattern",
        [
            pytest.param("", "empty embedding file", id="empty"),
            pytest.param("1 two\ncat 1 2\n", "malformed header", id="non-integer"),
            pytest.param("1 0\ncat\n", "bad header values", id="dim-0"),
            # int() reads these; write_embeddings writes ASCII digits alone
            pytest.param("+1 2\ncat 1 2\n", "malformed header", id="plus-sign"),
            pytest.param("-1 2\n", "malformed header", id="negative"),
            pytest.param("\uff11 2\ncat 1 2\n", "malformed header", id="fullwidth-digit"),
            pytest.param("1 2_0\ncat 1 2\n", "malformed header", id="underscore"),
            pytest.param("1 \u0662\ncat 1 2\n", "malformed header", id="arabic-indic-digit"),
        ],
    )
    def test_bad_header_values(self, text, pattern):
        with pytest.raises(EmbeddingError, match=pattern):
            load_embeddings(text)

    @pytest.mark.parametrize("space", ["\u3000", "\u00a0", "\x1f"],
                             ids=["ideographic", "no-break", "unit-separator"])
    @pytest.mark.parametrize("text,line", [
        pytest.param("1{}2\ncat 1 2\n", 1, id="header"),
        pytest.param("1 2\ncat 1{}2\n", 2, id="row"),
        pytest.param("2 2\ncat{}1 2\ndog 3 4\n", 2, id="after-word"),
        pytest.param("1 2\n{}\ncat 1 2\n", 2, id="blank-line"),
    ])
    def test_only_ascii_spaces_and_tabs_split(self, text, line, space):
        # str.split splits on these too; write_embeddings never writes them
        with pytest.raises(EmbeddingError,
                           match=f"^line {line}: whitespace other than spaces and tabs$"):
            load_embeddings(text.format(space))

    def test_tabs_and_runs_of_spaces_split(self):
        t = load_embeddings("2\t 2\nnaïve\t1  2 \ncat 3\t\t4\n")
        assert t.words == ["naïve", "cat"]
        assert np.array_equal(t.matrix, [[1, 2], [3, 4]])

    def test_vocab_count_mismatch(self):
        with pytest.raises(EmbeddingError, match="2 words"):
            load_embeddings("2 2\ncat 1 2\n")

    def test_duplicate_word_rejected(self):
        with pytest.raises(EmbeddingError, match="duplicate"):
            load_embeddings("2 2\ncat 1 2\ncat 3 4\n")

    def test_numbers_in_every_written_form_read_back(self):
        # write_embeddings' %.17g writes signs, exponents and whole numbers
        text = "2 3\ncat -0.10000000000000001 1e-05 2.5e+300\nnaïve 3 -7 0\n"
        t = load_embeddings(text)
        assert t.words == ["cat", "naïve"]
        assert np.array_equal(t.matrix, [[-0.1, 1e-05, 2.5e300], [3, -7, 0]])
        assert load_embeddings(write_embeddings(t)).matrix.tobytes() == t.matrix.tobytes()

    def test_write_load_round_trip_exact(self):
        t = random_embeddings(["alpha", "beta", "gamma"], 5, seed=13)
        back = load_embeddings(write_embeddings(t))
        assert back.words == t.words
        assert np.array_equal(back.matrix, t.matrix)

    @pytest.mark.parametrize("word", ["a b", "", " a", "a\t", "a\nb", "a\u00a0b"])
    def test_write_refuses_a_word_that_would_not_read_back(self, word):
        t = EmbeddingTable([word, "c"], np.zeros((3, 2)))
        with pytest.raises(EmbeddingError, match=re.escape(repr(word))):
            write_embeddings(t)

    def test_random_embeddings_deterministic(self):
        a = random_embeddings(["x", "y"], 3, seed=2)
        b = random_embeddings(["x", "y"], 3, seed=2)
        c = random_embeddings(["x", "y"], 3, seed=3)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_embed_and_rows(self):
        t = load_embeddings(EMB_FIXTURE)
        rows = t.rows(["cat", "zzzz", "dog"])
        assert list(rows) == [0, -1, 1]
        X = t.vectors[rows]
        assert X.shape == (3, 4)
        assert np.array_equal(X[1], t.vectors[-1])
        assert t.vectors[t.rows([])].shape == (0, 4)

    def test_matrix_and_unk_are_views(self):
        t = random_embeddings(["x", "y"], 3, seed=2)
        assert t.vectors.shape == (3, 3)
        t.vectors[...] = 7.0
        assert (t.matrix == 7.0).all() and (t.vectors[-1] == 7.0).all()

    def test_empty_vocabulary_reads_unk(self):
        t = load_embeddings("0 2\n")
        assert t.vectors.shape == (1, 2)
        assert np.array_equal(t.vectors[t.rows(["a", "b"])], [t.vectors[-1], t.vectors[-1]])


class TestCheckpoint:
    def _sample(self):
        rng = np.random.default_rng(5)
        p = ParamSet.of({"W": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)})
        t = random_embeddings(["uno", "dos"], 4, seed=1)
        return p, t

    def _trained(self, path):
        """A real lstm checkpoint (dim 4, hidden 3) saved through save_trained;
        returns its header dict and its payload bytes."""
        table = random_embeddings(["uno", "dos"], 4, seed=1)
        model = build_model("lstm", table.vectors, 3, np.random.default_rng(0))
        config = TrainConfig("lstm", "chain", hidden=3, embedding_dim=4)
        save_trained(TrainedModel(model=model, table=table, config=config), str(path))
        header_line, payload = path.read_bytes().split(b"\n", 1)
        return json.loads(header_line), payload

    def test_round_trip(self, tmp_path):
        p, t = self._sample()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, p.buffer, t, {"hidden": 4, "seed": 0})
        config, block, t2 = load_checkpoint(path)
        assert config == {"hidden": 4, "seed": 0}
        assert np.array_equal(block, p.buffer)
        assert t2.words == t.words
        assert np.array_equal(t2.matrix, t.matrix)
        assert np.array_equal(t2.vectors[-1], t.vectors[-1])

    def test_header_holds_config_vocab_and_dim(self, tmp_path):
        path = tmp_path / "m.ckpt"
        header, _ = self._trained(path)
        assert sorted(header) == ["config", "dim", "format_version", "vocab"]
        assert header["format_version"] == 4
        assert header["config"]["model_type"] == "lstm"
        assert (header["vocab"], header["dim"]) == (["uno", "dos"], 4)

    def test_parameter_block_is_the_buffer(self, tmp_path):
        p, t = self._sample()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), p.buffer, t, {})
        payload = path.read_bytes().split(b"\n", 1)[1]
        assert payload == p.buffer.astype("<f8").tobytes() + t.vectors.astype("<f8").tobytes()
        _, block, _ = load_checkpoint(str(path))
        assert block.tobytes() == p.buffer.tobytes()

    def test_bitwise_identical_saves(self, tmp_path):
        p, t = self._sample()
        a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(a, p.buffer, t, {"k": 1})
        save_checkpoint(b, p.buffer, t, {"k": 1})
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        self._trained(path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(CheckpointError, match="107 parameter values do not fit"):
            load_trained(str(path))
        path.write_bytes(data[: data.index(b"\n") + 1 + 8 * 3 * 4 - 8])  # shorter than the table
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("dim", [True, False])
    def test_bool_dim_rejected(self, tmp_path, dim):
        # a bool is no int: true would pass as dim 1 and reach numpy's reshape
        path = tmp_path / "m.ckpt"
        header, payload = self._trained(path)
        path.write_bytes(json.dumps(header | {"dim": dim}).encode() + b"\n" + payload)
        with pytest.raises(CheckpointError, match="field 'dim' missing or not a int"):
            load_checkpoint(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        self._trained(path)
        data = path.read_bytes()
        path.write_bytes(data + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="109 parameter values do not fit"):
            load_trained(str(path))
        path.write_bytes(data + b"\x00" * 3)
        with pytest.raises(CheckpointError, match="not whole float64 values"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda h: b"not json", id="not-json"),
            pytest.param(lambda h: [h], id="not-an-object"),
            pytest.param(lambda h: h | {"format_version": 1}, id="format-v1"),
            pytest.param(lambda h: h | {"format_version": 2}, id="format-v2"),
            pytest.param(lambda h: h | {"format_version": 3}, id="format-v3"),
            pytest.param(lambda h: {k: v for k, v in h.items() if k != "vocab"}, id="no-vocab"),
            pytest.param(lambda h: h | {"config": h["config"] | {"colour": "red"}},
                         id="unknown-config-key"),
            pytest.param(lambda h: h | {"config": h["config"] | {"half_width": 2.5}},
                         id="float-half-width"),
            pytest.param(lambda h: h | {"config": h["config"] | {"model_type": "transformer"}},
                         id="config-transformer"),
            pytest.param(lambda h: h | {"config": h["config"] | {"model_type": "cnn"}},
                         id="cnn-over-lstm-params"),
            pytest.param(lambda h: h | {"config": h["config"] | {"hidden": 4}}, id="hidden-3-to-4"),
            pytest.param(lambda h: h | {"config": h["config"] | {"hidden": 1000000}},
                         id="huge-hidden"),
            pytest.param(lambda h: h | {"config": h["config"] | {"finetune_embeddings": "no"}},
                         id="string-finetune-flag"),
            pytest.param(lambda h: h | {"dim": 5}, id="dim-4-to-5"),
            pytest.param(lambda h: h | {"vocab": h["vocab"] + ["tres"]}, id="word-added"),
            pytest.param(lambda h: h | {"vocab": [1, "dos"]}, id="non-string-word"),
            pytest.param(lambda h: h | {"dim": 0}, id="dim-0"),
            pytest.param(lambda h: h | {"dim": True}, id="bool-dim"),
            pytest.param(lambda h: h | {"config": h["config"] | {"seed": -1}}, id="negative-seed"),
            pytest.param(lambda h: h | {"config": h["config"] | {"learning_rate": 10**400}},
                         id="int-learning-rate-past-float"),
            pytest.param(lambda h: h | {"config": h["config"] | {"model_type": "treelstm",
                                                                 "representation": "window"}},
                         id="treelstm-over-window"),
        ],
    )
    def test_bad_header_rejected(self, tmp_path, damage):
        # a real lstm checkpoint whose header is then damaged; load_trained
        # runs every check, those of load_checkpoint included. huge-hidden
        # asks for 10^12 values: rejected by length, before any allocation
        path = tmp_path / "m.ckpt"
        header, payload = self._trained(path)
        header = damage(header)
        if not isinstance(header, bytes):
            header = json.dumps(header).encode("utf-8")
        path.write_bytes(header + b"\n" + payload)
        with pytest.raises(CheckpointError):
            load_trained(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "index,what",
        [(0, "parameter 'W'"), (107, "parameter 'by'"), (-1, "embedding vectors")],
    )
    def test_non_finite_value_rejected(self, tmp_path, value, index, what):
        # the lstm's 108 parameter values run from W[0, 0] to by[2]
        path = tmp_path / "m.ckpt"
        header, payload = self._trained(path)
        floats = np.frombuffer(payload, dtype="<f8").copy()
        floats[index] = value
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + floats.tobytes())
        with pytest.raises(CheckpointError, match=f"{re.escape(what)} has a non-finite value"):
            load_trained(str(path))

    def test_repeated_vocabulary_word_rejected(self, tmp_path):
        p, t = self._sample()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), p.buffer, t, {})
        path.write_bytes(path.read_bytes().replace(b'"dos"', b'"uno"', 1))
        with pytest.raises(CheckpointError, match="malformed vocab"):
            load_checkpoint(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_layout_is_params_then_vocab_rows_then_unk(self, tmp_path):
        p, t = self._sample()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), p.buffer, t, {})
        payload = path.read_bytes().split(b"\n", 1)[1]
        blocks = [p["W"], p["b"], t.matrix, t.vectors[-1]]
        assert payload == b"".join(np.asarray(v, dtype="<f8").tobytes() for v in blocks)


class TestAtomicOpen:
    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("old\n")
        with atomic_open(str(path)) as f:
            f.write("new\n")
        assert path.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]

    @pytest.mark.parametrize("mode,data", [("w", "part"), ("wb", b"part")])
    def test_failed_write_keeps_old_file(self, tmp_path, mode, data):
        path = tmp_path / "a.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_open(str(path), mode) as f:
                f.write(data)
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin"]

    def test_failed_checkpoint_save_keeps_old_file(self, tmp_path, monkeypatch):
        p, t = TestCheckpoint()._sample()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), p.buffer, t, {})
        before = path.read_bytes()

        def no_space(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(nncore.os, "replace", no_space)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(str(path), p.buffer, t, {"changed": 1})
        assert path.read_bytes() == before
        assert sorted(x.name for x in tmp_path.iterdir()) == ["m.ckpt"]


class TestEmbeddingTableValidation:
    def test_shape_mismatch(self):
        with pytest.raises(EmbeddingError):
            EmbeddingTable(["a"], np.zeros((3, 3)))

    def test_missing_unk_row(self):
        with pytest.raises(EmbeddingError):
            EmbeddingTable(["a"], np.zeros((1, 3)))

    def test_one_dimensional_vectors(self):
        with pytest.raises(EmbeddingError):
            EmbeddingTable([], np.zeros(3))

    @pytest.mark.parametrize("vocab", [[], ["a", "b"]])
    def test_dim_zero_rejected(self, vocab):
        # written, its rows would be bare words that load_embeddings refuses
        with pytest.raises(EmbeddingError, match="dim >= 1, got 0"):
            EmbeddingTable(vocab, np.zeros((len(vocab) + 1, 0)))
        with pytest.raises(EmbeddingError, match="dim >= 1, got 0"):
            random_embeddings(vocab, 0, 1)
