"""Classifier algebra, hand-computed oracles, and gradient-based checks."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest

from depchain import (
    EncodedInput,
    TemporalStatus,
    build_model,
    classify,
    gradcheck_model,
    model_loss,
    predict,
    restore_model,
)
from depchain.models import (
    _CHAIN_MEMO_SIZE,
    FILTER_WIDTH,
    _chain_schedule,
    param_shapes,
    random_batch,
    random_instance,
    random_tree_children,
)
from depchain.nncore import NonFiniteError, RmsProp, grad_check, softmax_xent
from depchain.saliency import saliency_maps


def zeroed(model_type, X, hidden, **kw):
    m = build_model(model_type, np.asarray(X, dtype=float), hidden, np.random.default_rng(0), **kw)
    for name in m.params.values:
        m.params[name][...] = 0.0
    return m


def build_then_draw(model_type, shape, hidden, rng):
    """A model built from rng over a matrix of the given shape, which is then
    drawn from rng: (model, matrix)."""
    X = np.empty(shape)
    m = build_model(model_type, X, hidden, rng)
    X[...] = rng.standard_normal(shape)
    return m, X


def seq_input(n, first_row=0):
    """An input over rows first_row..first_row+n-1 of its model's matrix."""
    return EncodedInput(forms=tuple(f"w{t}" for t in range(n)),
                        rows=np.arange(first_row, first_row + n))


def tree_input(children, root_pos=0, target_pos=0, first_row=0):
    n = len(children)
    return EncodedInput(
        forms=tuple(f"w{t}" for t in range(n)),
        rows=np.arange(first_row, first_row + n),
        children=tuple(tuple(c) for c in children),
        root_pos=root_pos,
        target_pos=target_pos,
    )


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def logits_of(m, inst):
    """Logits of one input, run as a batch of one."""
    logits, _ = m.forward([inst])
    return logits[0]


def gate(p, name, gate_name):
    """One gate's block of the fused W, U or b (columns u, i, o, f)."""
    k = "uiof".index(gate_name)
    H = p["U"].shape[0]
    return p[name][..., k * H : (k + 1) * H]


def textbook_lstm(p, X, dlogits):
    """Reference LSTM with one matmul per gate, forward and backward.

    Returns (logits, dX) for dlogits at the output. Written out gate by gate
    as in the usual LSTM equations, independent of the fused cell.
    """
    W = {g: gate(p, "W", g) for g in "uiof"}
    U = {g: gate(p, "U", g) for g in "uiof"}
    b = {g: gate(p, "b", g) for g in "uiof"}
    H = p["U"].shape[0]
    h, c = np.zeros(H), np.zeros(H)
    steps = []
    for x in X:
        i = sigmoid(x @ W["i"] + h @ U["i"] + b["i"])
        f = sigmoid(x @ W["f"] + h @ U["f"] + b["f"])
        o = sigmoid(x @ W["o"] + h @ U["o"] + b["o"])
        u = np.tanh(x @ W["u"] + h @ U["u"] + b["u"])
        c_new = f * c + i * u
        steps.append((c, i, f, o, u, np.tanh(c_new)))
        h, c = o * np.tanh(c_new), c_new
    logits = h @ p["Wy"] + p["by"]
    dh, dc = p["Wy"] @ dlogits, np.zeros(H)
    dX = np.zeros_like(X)
    for t in range(len(X) - 1, -1, -1):
        c_prev, i, f, o, u, tanh_c = steps[t]
        dc = dc + dh * o * (1.0 - tanh_c**2)
        z = {
            "i": dc * u * i * (1.0 - i),
            "f": dc * c_prev * f * (1.0 - f),
            "o": dh * tanh_c * o * (1.0 - o),
            "u": dc * i * (1.0 - u**2),
        }
        dX[t] = sum(W[g] @ z[g] for g in "ifou")
        dh = sum(U[g] @ z[g] for g in "ifou")
        dc = dc * f
    return logits, dX


def textbook_tree_lstm(p, X, children, read, dlogits):
    """Reference child-sum tree-LSTM (Tai, Socher & Manning 2015), node by
    node with one forget gate per child, forward and backward.

    Returns (logits, dX, grads) of one tree read out at node ``read``, for
    dlogits at the output; grads maps each parameter name to its gradient in
    the model's fused layout. Written out per gate and per child,
    independent of the level schedule.
    """
    W = {g: gate(p, "W", g) for g in "uiof"}
    U = {g: gate(p, "U", g) for g in "uiof"}
    b = {g: gate(p, "b", g) for g in "uiof"}
    H = p["U"].shape[0]
    # children before parents: reversed breadth-first order from the root
    root = (set(range(len(children))) - {k for kids in children for k in kids}).pop()
    order = [root]
    for j in order:
        order.extend(children[j])
    order.reverse()
    h, c, state = {}, {}, {}
    for j in order:
        x, kids = X[j], children[j]
        h_sum = sum((h[k] for k in kids), np.zeros(H))
        i = sigmoid(x @ W["i"] + h_sum @ U["i"] + b["i"])
        o = sigmoid(x @ W["o"] + h_sum @ U["o"] + b["o"])
        u = np.tanh(x @ W["u"] + h_sum @ U["u"] + b["u"])
        f = {k: sigmoid(x @ W["f"] + h[k] @ U["f"] + b["f"]) for k in kids}
        c[j] = i * u + sum((f[k] * c[k] for k in kids), np.zeros(H))
        h[j] = o * np.tanh(c[j])
        state[j] = (h_sum, i, o, u, f)
    logits = h[read] @ p["Wy"] + p["by"]
    grad = {g: [np.zeros_like(W[g]), np.zeros_like(U[g]), np.zeros_like(b[g])] for g in "iouf"}
    dX = np.zeros_like(X)
    dh = {j: np.zeros(H) for j in order}
    dc = {j: np.zeros(H) for j in order}
    dh[read] = p["Wy"] @ dlogits
    for j in reversed(order):  # parents before children
        h_sum, i, o, u, f = state[j]
        tanh_c = np.tanh(c[j])
        dc_j = dc[j] + dh[j] * o * (1.0 - tanh_c**2)
        z = {"i": dc_j * u * i * (1.0 - i), "o": dh[j] * tanh_c * o * (1.0 - o),
             "u": dc_j * i * (1.0 - u**2)}
        for g in "iou":
            dX[j] += W[g] @ z[g]
            grad[g][0] += np.outer(X[j], z[g])
            grad[g][1] += np.outer(h_sum, z[g])
            grad[g][2] += z[g]
        dh_sum = sum(U[g] @ z[g] for g in "iou")
        for k, f_k in f.items():
            z_f = dc_j * c[k] * f_k * (1.0 - f_k)
            dX[j] += W["f"] @ z_f
            grad["f"][0] += np.outer(X[j], z_f)
            grad["f"][1] += np.outer(h[k], z_f)
            grad["f"][2] += z_f
            dh[k] += dh_sum + U["f"] @ z_f
            dc[k] += dc_j * f_k
    grads = {kind: np.concatenate([grad[g][n] for g in "uiof"], axis=-1)
             for n, kind in enumerate("WUb")}
    grads |= {"Wy": np.outer(h[read], dlogits), "by": dlogits}
    return logits, dX, grads


def per_gate_init(model_type, dim, hidden, seed):
    """The initial parameters as one uniform draw per matrix: for the
    recurrent cell W, U and b of each gate in the order i, f, o, u (the
    forget bias of "lstm" then set to 1), laid side by side in the columns
    u, i, o, f, then Wy and by; for the CNN in param_shapes order. Returns
    (parameters, the generator after drawing)."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.uniform(-0.05, 0.05, size=shape)

    if model_type == "cnn":
        params = {"Wconv": draw(hidden, FILTER_WIDTH * dim), "bconv": draw(hidden)}
    else:
        gates = {g: (draw(dim, hidden), draw(hidden, hidden), draw(hidden)) for g in "ifou"}
        if model_type == "lstm":
            gates["f"] = (*gates["f"][:2], np.ones(hidden))
        params = {kind: np.concatenate([gates[g][n] for g in "uiof"], axis=-1)
                  for n, kind in enumerate("WUb")}
    params |= {"Wy": draw(hidden, 3), "by": draw(3)}
    return params, rng


class TestZeroParameterAlgebra:
    def test_lstm_logits_equal_output_bias(self):
        m = zeroed("lstm", np.random.default_rng(1).standard_normal((6, 4)), 3)
        m.params["by"][...] = [0.5, -1.0, 2.0]
        logits = logits_of(m, seq_input(6))
        # zero gates keep c at 0 (g = tanh(0) = 0), so h stays 0
        assert np.allclose(logits, [0.5, -1.0, 2.0], atol=1e-15)

    def test_treelstm_states_stay_zero(self):
        m = zeroed("treelstm", np.random.default_rng(2).standard_normal((4, 4)), 3)
        m.params["by"][...] = [1.0, 2.0, 3.0]
        inst = tree_input(children=[(1, 2), (3,), (), ()])
        logits = logits_of(m, inst)
        assert np.allclose(logits, [1.0, 2.0, 3.0], atol=1e-15)

    def test_cnn_pooled_is_relu_of_bias(self):
        m = zeroed("cnn", np.ones((7, 2)), 3)
        m.params["bconv"][...] = [1.5, -2.0, 0.25]
        m.params["Wy"][...] = np.eye(3)
        logits = logits_of(m, seq_input(7))
        # zero filters make every window score bconv; relu clamps the negative
        assert np.allclose(logits, [1.5, 0.0, 0.25], atol=1e-15)


class TestLstmSingleStep:
    def test_length_one_matches_cell_formula(self):
        rng = np.random.default_rng(7)
        m, X = build_then_draw("lstm", (1, 3), 4, rng)
        x = X[0]
        p = m.params
        i = sigmoid(x @ gate(p, "W", "i") + gate(p, "b", "i"))
        o = sigmoid(x @ gate(p, "W", "o") + gate(p, "b", "o"))
        g = np.tanh(x @ gate(p, "W", "u") + gate(p, "b", "u"))
        h = o * np.tanh(i * g)  # c0 = 0, so the forget gate drops out
        want = h @ p["Wy"] + p["by"]
        logits = logits_of(m, seq_input(1))
        assert np.allclose(logits, want, atol=1e-14)


class TestOneCell:
    # the input alone, or between a shorter and a longer one: the batch is
    # laid out longest first and its input gradient mapped back
    @pytest.mark.parametrize("length,others", [
        *(pytest.param(n, (), id=str(n)) for n in range(1, 13)),
        *(pytest.param(n, (1, 14), id=f"{n}-mid-batch") for n in (1, 2, 7, 12)),
        pytest.param(1, (1, 1), id="1-among-ones"),  # no position reads a child
    ])
    def test_lstm_equals_textbook_loop(self, length, others):
        rng = np.random.default_rng(100 + length)
        lengths = (*others[:1], length, *others[1:])
        m, X = build_then_draw("lstm", (sum(lengths), 5), 6, rng)
        first_rows = np.cumsum(lengths) - lengths
        batch = [seq_input(n, first_row=r) for n, r in zip(lengths, first_rows)]
        dlogits = rng.standard_normal((len(batch), 3))
        logits, cache = m.forward(batch)
        dX = np.split(m.backward(cache, dlogits, input_grad=True), first_rows[1:])
        k = len(others[:1])  # the tested input's place in the batch
        rows = slice(first_rows[k], first_rows[k] + length)
        want_logits, want_dX = textbook_lstm(m.params, X[rows], dlogits[k])
        assert np.abs(logits[k] - want_logits).max() <= 1e-12
        assert np.abs(dX[k] - want_dX).max() <= 1e-12

    def test_lstm_forget_bias_starts_at_one(self):
        m = build_model("lstm", np.zeros((1, 3)), 4, np.random.default_rng(0))
        assert np.array_equal(gate(m.params, "b", "f"), np.ones(4))

    @pytest.mark.parametrize("model_type", ["lstm", "treelstm", "cnn"])
    @pytest.mark.parametrize("dim,hidden", [(24, 32), (6, 8), (1, 1), (5, 3)])
    def test_init_draws_the_numbers_of_one_draw_per_matrix(self, model_type, dim, hidden):
        # the model draws all its parameters at once; a seed still gives
        # the numbers and leaves the generator where per-matrix draws do
        want, want_rng = per_gate_init(model_type, dim, hidden, seed=dim * hidden)
        rng = np.random.default_rng(dim * hidden)
        m = build_model(model_type, np.zeros((2, dim)), hidden, rng)
        assert list(m.params.values) == list(want)
        for name, value in want.items():
            assert m.params[name].tobytes() == value.tobytes(), name
        assert rng.random() == want_rng.random()

    @pytest.mark.parametrize("lengths", [(1,), (2,), (7,), (3, 7, 1, 5)],
                             ids=lambda lengths: "-".join(map(str, lengths)))
    def test_treelstm_on_chain_tree_equals_lstm(self, lengths):
        # forward and backward: the lstm reaches a chain level's children
        # through slices, the treelstm through index arrays
        rng = np.random.default_rng([200, *lengths])
        m, X = build_then_draw("lstm", (sum(lengths), 4), 5, rng)
        tree = restore_model("treelstm", m.params.buffer, X, 5)
        starts = np.cumsum((0, *lengths[:-1])).tolist()
        chains = [seq_input(n, s) for n, s in zip(lengths, starts)]
        trees = [tree_input([()] + [(t - 1,) for t in range(1, n)], root_pos=n - 1, first_row=s)
                 for n, s in zip(lengths, starts)]
        dlogits = rng.standard_normal((len(lengths), 3))
        results = []
        for model, batch in ((m, chains), (tree, trees)):
            logits, cache = model.forward(batch)
            dX = model.backward(cache, dlogits, input_grad=True)
            results.append((logits, dX, model.params.grad_buffer))
        (want, want_dX, want_grads), (got, got_dX, got_grads) = results
        assert got.tobytes() == want.tobytes()
        assert got_dX.tobytes() == want_dX.tobytes()
        # the parameter gradients sum over the nodes, which an unequal batch
        # orders longest first in the lstm and by height in the tree
        assert np.abs(got_grads - want_grads).max() <= 1e-12
        if len(lengths) == 1:
            assert got_grads.tobytes() == want_grads.tobytes()


class TestCnnWindows:
    def test_length_five_single_window(self):
        rng = np.random.default_rng(8)
        m, X = build_then_draw("cnn", (FILTER_WIDTH, 3), 6, rng)
        p = m.params
        pooled = np.maximum(X.reshape(-1) @ p["Wconv"].T + p["bconv"], 0.0)
        want = pooled @ p["Wy"] + p["by"]
        logits = logits_of(m, seq_input(FILTER_WIDTH))
        assert np.allclose(logits, want, atol=1e-14)

    def test_short_input_equals_explicit_padding(self):
        rng = np.random.default_rng(9)
        m, X = build_then_draw("cnn", (2, 3), 4, rng)
        logits_short = logits_of(m, seq_input(2))
        padded = np.vstack([X, np.zeros((FILTER_WIDTH - 2, 3))])
        padded_model = restore_model("cnn", m.params.buffer, padded, 4)
        logits_padded = logits_of(padded_model, seq_input(FILTER_WIDTH))
        assert np.array_equal(logits_short, logits_padded)

    def test_short_input_dx_shape_matches_input(self):
        rng = np.random.default_rng(10)
        m, _ = build_then_draw("cnn", (2, 3), 4, rng)
        _, _, dX = model_loss(m, [seq_input(2)], [0], input_grad=True)
        assert dX.shape == (2, 3)


def cnn_loop_reference(p, inputs, dlogits):
    """The CNN in plain loops, one dot per window and filter, each input on
    its own: (logits, winners, grads, dX). winners[b][f] is the window of
    input b that filter f's max-pool picks, the first maximum as Python's
    max takes it; the backward pass of dlogits routes each filter's
    gradient to that window only, and only where the pooled value is
    positive (the rectifier)."""
    W, F = FILTER_WIDTH, len(p["bconv"])
    grads = {name: np.zeros_like(value) for name, value in p.values.items()}
    logits, winners, dXs = [], [], []
    for X, g in zip(inputs, dlogits):
        T, D = X.shape
        Xp = np.vstack([X, np.zeros((max(T, W) - T, D))])
        windows = [Xp[s : s + W].reshape(-1) for s in range(len(Xp) - W + 1)]
        pooled, win = np.zeros(F), []
        for f in range(F):
            acts = [max(float(w @ p["Wconv"][f]) + p["bconv"][f], 0.0) for w in windows]
            win.append(max(range(len(acts)), key=acts.__getitem__))
            pooled[f] = acts[win[-1]]
        logits.append(pooled @ p["Wy"] + p["by"])
        winners.append(win)
        grads["Wy"] += np.outer(pooled, g)
        grads["by"] += g
        dpooled = p["Wy"] @ g
        dXp = np.zeros_like(Xp)
        for f in range(F):
            if pooled[f] > 0.0:
                s = win[f]
                grads["Wconv"][f] += dpooled[f] * windows[s]
                grads["bconv"][f] += dpooled[f]
                dXp[s : s + W] += dpooled[f] * p["Wconv"][f].reshape(W, D)
        dXs.append(dXp[:T])
    return np.array(logits), winners, grads, np.vstack(dXs)


def assert_close(got, want, rel=1e-12):
    """Equal to rel of the largest magnitude in want."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


class TestCnnPoolingAndPadding:
    """The batched CNN against cnn_loop_reference, on batches that mix
    inputs shorter than, as long as and longer than one window. Some
    windows are all zeros, so they tie exactly (at the rectified bias):
    the first of them must win, and an input gradient routed to any
    other window would land on other positions."""

    LENGTHS = (3, 5, 8, 1, 6, 7, 8, 4)

    def case(self, seed):
        rng = np.random.default_rng(seed)
        X = np.empty((sum(self.LENGTHS), 4))
        m = build_model("cnn", X, 6, rng)
        X[...] = rng.standard_normal(X.shape)
        starts = np.cumsum((0,) + self.LENGTHS[:-1])
        X[starts[5] + 1 : starts[5] + 7] = 0.0  # input 5: one token, then zero windows
        X[starts[6] : starts[6] + 8] = 0.0  # input 6: every window ties
        m.params["bconv"][...] = [0.3, -0.3, 0.2, -0.1, 0.4, 0.0]
        batch = [seq_input(n, first_row=s) for n, s in zip(self.LENGTHS, starts.tolist())]
        inputs = [X[s : s + n] for n, s in zip(self.LENGTHS, starts.tolist())]
        return m, batch, inputs, rng.standard_normal((len(batch), 3))

    def backward(self, m, cache, dlogits, **asked):
        m.params.zero_grads()
        dX = m.backward(cache, dlogits, **asked)
        return {name: g.copy() for name, g in m.params.grads.items()}, dX

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_forward_equals_loop_reference(self, seed):
        m, batch, inputs, dlogits = self.case(seed)
        want, winners, _, _ = cnn_loop_reference(m.params, inputs, dlogits)
        logits, _ = m.forward(batch)
        assert_close(logits, want)
        # the case holds ties: every window of input 6, and windows 1 and 2
        # of input 5, which the first of them wins
        assert winners[6] == [0] * 6
        assert 1 in winners[5] and 2 not in winners[5]

    @pytest.mark.parametrize("seed", range(4))
    def test_backward_routes_each_filter_to_its_window(self, seed):
        m, batch, inputs, dlogits = self.case(seed)
        _, _, want_grads, want_dX = cnn_loop_reference(m.params, inputs, dlogits)
        _, cache = m.forward(batch)
        grads, dX = self.backward(m, cache, dlogits, input_grad=True)
        param_only, none = self.backward(m, cache, dlogits)
        untouched, input_only = self.backward(m, cache, dlogits, input_grad=True,
                                              param_grads=False)
        assert none is None
        assert all(not g.any() for g in untouched.values())
        assert np.array_equal(input_only, dX)
        for name, g in grads.items():
            assert np.array_equal(param_only[name], g), name
            assert_close(g, want_grads[name])
        assert_close(dX, want_dX)

    def test_batch_of_one_runs_the_same_path(self):
        m, batch, inputs, dlogits = self.case(5)
        for b, (inst, X) in enumerate(zip(batch, inputs)):
            want, _, want_grads, want_dX = cnn_loop_reference(m.params, [X], dlogits[b : b + 1])
            logits, cache = m.forward([inst])
            assert_close(logits, want)
            grads, dX = self.backward(m, cache, dlogits[b : b + 1], input_grad=True)
            assert_close(dX, want_dX)
            for name, g in grads.items():
                assert_close(g, want_grads[name])


class TestTreeSingleNode:
    def test_matches_cell_formula(self):
        rng = np.random.default_rng(11)
        m, X = build_then_draw("treelstm", (1, 3), 4, rng)
        x = X[0]
        p = m.params
        i = sigmoid(x @ gate(p, "W", "i") + gate(p, "b", "i"))
        o = sigmoid(x @ gate(p, "W", "o") + gate(p, "b", "o"))
        u = np.tanh(x @ gate(p, "W", "u") + gate(p, "b", "u"))
        want = (o * np.tanh(i * u)) @ p["Wy"] + p["by"]
        logits = logits_of(m, tree_input(children=[()]))
        assert np.allclose(logits, want, atol=1e-14)


class TestGradients:
    @pytest.mark.parametrize("model_type,layout", [
        *(pytest.param(m, None, id=m) for m in ("lstm", "cnn", "treelstm")),
        pytest.param("treelstm", "mixed levels", id="treelstm-mixed-levels"),
        *(pytest.param(m, "one position", id=f"{m}-one-position")
          for m in ("lstm", "cnn", "treelstm")),
    ])
    def test_parameter_gradients(self, model_type, layout):
        if layout is None:
            worst = max(gradcheck_model(model_type, seed) for seed in range(3))
        else:
            model, batch, _ = batch_case(model_type, 0, layout=layout)
            golds = np.arange(len(batch)) % 3
            worst = grad_check(lambda: float(model_loss(model, batch, golds)[0].sum()),
                               model.params)
        assert worst < 1e-4

    @pytest.mark.parametrize("model_type", ["lstm", "cnn", "treelstm"])
    def test_input_gradients(self, model_type):
        rng = np.random.default_rng(21)
        length = 9 if model_type == "cnn" else 4
        X = np.empty((length, 4))
        m = build_model(model_type, X, 5, rng)
        inst = random_instance(model_type, X, rng)
        _, _, dX = model_loss(m, [inst], [1], input_grad=True)
        m.params.zero_grads()

        def loss_at(Xp):
            logits = logits_of(restore_model(model_type, m.params.buffer, Xp, 5), inst)
            return softmax_xent(logits[None], [1])[0][0]

        eps = 1e-6
        rng2 = np.random.default_rng(0)
        idx = [
            (int(rng2.integers(length)), int(rng2.integers(4))) for _ in range(12)
        ]
        for t, d in idx:
            Xp = X[inst.rows]
            Xp[t, d] += eps
            up = loss_at(Xp)
            Xp[t, d] -= 2 * eps
            down = loss_at(Xp)
            num = (up - down) / (2 * eps)
            assert abs(num - dX[t, d]) < 1e-6

    def test_model_loss_accumulates(self):
        rng = np.random.default_rng(22)
        X = np.empty((4, 3))
        m = build_model("lstm", X, 4, rng)
        inst = random_instance("lstm", X, rng)
        model_loss(m, [inst], [0])
        once = {k: v.copy() for k, v in m.params.grads.items()}
        model_loss(m, [inst], [0])
        for k, v in m.params.grads.items():
            assert np.allclose(v, 2 * once[k], atol=1e-15)


class TestClassify:
    def test_bias_rigged_past(self):
        m = zeroed("lstm", np.zeros((3, 3)), 4)
        m.params["by"][...] = [2.0, 0.0, 0.0]
        status, prob = classify(m, seq_input(3))
        assert status is TemporalStatus.PAST
        # independently computed: e^2 / (e^2 + 2)
        assert abs(prob[0] - 0.7869860421615985) < 1e-12
        assert abs(prob.sum() - 1.0) < 1e-12

    def test_tie_breaks_toward_lower_index(self):
        m = zeroed("lstm", np.zeros((2, 3)), 4)
        status, prob = classify(m, seq_input(2))
        assert status is TemporalStatus.PAST
        assert np.allclose(prob, 1 / 3, atol=1e-15)

    def test_eval_forward_deterministic(self):
        rng = np.random.default_rng(30)
        X = np.empty((7, 4))
        m = build_model("cnn", X, 5, rng)
        inst = random_instance("cnn", X, rng)
        a, _ = m.forward([inst])
        b, _ = m.forward([inst])
        assert a.tobytes() == b.tobytes()

    def test_non_finite_logits_rejected(self):
        # finite weights whose saturated gates and huge readout overflow
        m = build_model("lstm", np.ones((3, 4)), 5, np.random.default_rng(0))
        m.params["b"][:15] = 50.0
        m.params["Wy"][...] = m.params["by"][...] = 1.7e308
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as caught:
            classify(m, seq_input(3))
        assert caught.value.row == 0
        # training refuses them through softmax_xent's own check
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as caught:
            model_loss(m, [seq_input(2), seq_input(3)], [0, 1])
        assert caught.value.row == 0


class TestPredict:
    @pytest.mark.parametrize("model_type", ["lstm", "cnn", "treelstm"])
    def test_labels_are_argmax_of_the_eval_forward(self, model_type):
        rng = np.random.default_rng(32)
        m, X = build_then_draw(model_type, (40, 4), 5, rng)
        batch = random_batch(model_type, X, [3, 7, 1, 5, 2], rng)
        labels, logits, cache = predict(m, batch)
        forward, _ = m.forward(batch)
        assert logits.tobytes() == forward.tobytes()
        assert labels.tolist() == [int(np.argmax(row)) for row in logits]
        assert [classify(m, inst)[0] for inst in batch] == [TemporalStatus(x) for x in labels]
        # the cache feeds a backward pass
        _, _, dlogits = softmax_xent(logits, labels)
        assert m.backward(cache, dlogits, input_grad=True, param_grads=False).shape == (18, 4)

    @pytest.mark.parametrize("model_type", ["lstm", "cnn", "treelstm"])
    def test_classify_and_maps_are_softmax_xent_of_predicted_logits(self, model_type):
        # both skip softmax_xent's checks on logits predict has checked, and
        # keep its bytes
        rng = np.random.default_rng(34)
        m, X = build_then_draw(model_type, (40, 4), 5, rng)
        batch = random_batch(model_type, X, [3, 7, 1, 5, 2], rng)
        for inst in batch:
            labels, logits, _ = predict(m, [inst])
            status, prob = classify(m, inst)
            assert status is TemporalStatus(int(labels[0]))
            assert prob.tobytes() == softmax_xent(logits, labels)[1][0].tobytes()
        golds = [None, TemporalStatus.FUTURE, TemporalStatus.PAST, None, TemporalStatus.ONGOING]
        labels, logits, cache = predict(m, batch)
        at = [int(p if g is None else g) for p, g in zip(labels, golds)]
        dX = m.backward(cache, softmax_xent(logits, at)[2], input_grad=True, param_grads=False)
        maps = list(saliency_maps(m, batch, golds))
        assert [s.predicted for s in maps] == [TemporalStatus(int(p)) for p in labels]
        assert np.concatenate([s.raw for s in maps]).tobytes() == np.abs(dX).tobytes()

    def test_ties_break_toward_lower_index(self):
        m = zeroed("cnn", np.zeros((4, 3)), 4)
        m.params["by"][...] = [0.0, 1.0, 1.0]
        labels, _, _ = predict(m, [seq_input(2), seq_input(4)])
        assert labels.tolist() == [1, 1]

    def test_non_finite_logits_name_the_first_bad_row(self):
        # one finite but huge row, read by the third and fifth inputs alone,
        # overflows their logits and no others
        X = np.full((7, 4), 0.1)
        X[6] = 1.7e308
        m = build_model("cnn", X, 5, np.random.default_rng(33))
        m.params["Wconv"][...] = 1.0
        batch = [seq_input(3), seq_input(2, 2), EncodedInput(("w",), np.array([6])),
                 seq_input(6), EncodedInput(("v", "w"), np.array([0, 6]))]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError) as caught:
                predict(m, batch)
            assert caught.value.row == 2
            labels, _, _ = predict(m, batch[:2] + batch[3:4])
        assert labels.shape == (3,)


class TestTreeInvariance:
    def test_child_order_permutation(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            n = int(rng.integers(3, 10))
            X = np.empty((n, 4))
            m = build_model("treelstm", X, 6, rng)
            children = random_tree_children(n, rng)
            X[...] = rng.standard_normal((n, 4))
            base = logits_of(m, tree_input(children))
            shuffled = tuple(
                tuple(rng.permutation(list(c)).tolist()) for c in children
            )
            perm = logits_of(m, tree_input(shuffled))
            assert np.abs(base - perm).max() <= 1e-12


class TestInputValidation:
    def test_empty_sequence(self):
        m = zeroed("lstm", np.zeros((0, 3)), 4)
        inst = seq_input(0)
        with pytest.raises(ValueError, match="empty"):
            m.forward([inst])

    @pytest.mark.parametrize("model_type", ["lstm", "cnn", "treelstm"])
    def test_empty_batch(self, model_type):
        m = zeroed(model_type, np.zeros((2, 3)), 4)
        with pytest.raises(ValueError, match=f"^{model_type} forward: empty batch$"):
            m.forward([])

    def test_tree_without_children(self):
        m = zeroed("treelstm", np.zeros((2, 3)), 4)
        inst = seq_input(2)
        with pytest.raises(ValueError, match="tree structure"):
            m.forward([inst])

    def test_tree_cycle_detected(self):
        m = zeroed("treelstm", np.zeros((2, 3)), 4)
        inst = tree_input(children=[(1,), (0,)])
        with pytest.raises(ValueError, match="cycle"):
            m.forward([inst])

    def test_tree_not_spanning(self):
        m = zeroed("treelstm", np.zeros((3, 3)), 4)
        inst = tree_input(children=[(1,), (), ()])
        with pytest.raises(ValueError, match="span"):
            m.forward([inst])

    def test_unknown_model_type(self):
        with pytest.raises(ValueError, match="model type"):
            build_model("transformer", np.zeros((1, 3)), 4, np.random.default_rng(0))

    def test_bad_tree_readout(self):
        with pytest.raises(ValueError, match="readout"):
            build_model("treelstm", np.zeros((1, 3)), 4, np.random.default_rng(0),
                        tree_readout="leaf")


class TestRestore:
    @pytest.mark.parametrize("model_type", ["lstm", "cnn", "treelstm"])
    def test_restored_model_same_logits(self, model_type):
        rng = np.random.default_rng(40)
        X = np.empty((6, 4))
        m = build_model(model_type, X, 5, rng)
        inst = random_instance(model_type, X, rng)
        want = logits_of(m, inst)
        m2 = restore_model(model_type, m.params.buffer.copy(), X, 5)
        got = logits_of(m2, inst)
        assert np.array_equal(want, got)

    def test_target_readout_differs_from_root(self):
        rng = np.random.default_rng(41)
        m, X = build_then_draw("treelstm", (4, 4), 5, rng)
        inst_root = tree_input([(1, 2), (3,), (), ()], target_pos=3)
        logits_root = logits_of(m, inst_root)
        m_t = restore_model("treelstm", m.params.buffer, X, 5, tree_readout="target")
        logits_target = logits_of(m_t, inst_root)
        assert not np.allclose(logits_root, logits_target)

    @pytest.mark.parametrize("model_type", ["lstm", "cnn", "treelstm"])
    def test_buffer_of_another_size_is_refused(self, model_type):
        size = sum(math.prod(shape) for shape in param_shapes(model_type, 4, 5).values())
        for n in (size - 1, size + 1):
            with pytest.raises(ValueError, match=f"a ParamSet of {size} values"):
                restore_model(model_type, np.zeros(n), np.zeros((2, 4)), 5)

    @pytest.mark.parametrize("model_type", ["lstm", "cnn", "treelstm"])
    def test_unpickled_model_steps_as_the_original(self, model_type):
        # a model pickles as its constructor's arguments, so the copy's
        # parameters are views of its own buffer and a step moves it
        rng = np.random.default_rng(42)
        X = np.empty((6, 4))
        readout = "target" if model_type == "treelstm" else "root"
        m = build_model(model_type, X, 5, rng, tree_readout=readout)
        inst = random_instance(model_type, X, rng)
        m2 = pickle.loads(pickle.dumps(m))
        assert m2.params.buffer.tobytes() == m.params.buffer.tobytes()
        start = m.params.buffer.copy()
        for model in (m, m2):
            model_loss(model, [inst], [2])
            RmsProp(model.params, learning_rate=0.01).step()
        assert not np.array_equal(m.params.buffer, start)
        assert m2.params.buffer.tobytes() == m.params.buffer.tobytes()
        assert logits_of(m2, inst).tobytes() == logits_of(m, inst).tobytes()

    @pytest.mark.parametrize("model_type,children", [
        pytest.param("lstm", None, id="lstm-chain"),
        pytest.param("treelstm", [(1,), (2,), ()], id="treelstm-path"),
        pytest.param("treelstm", [(1, 2), (), ()], id="treelstm-two-children"),
    ])
    def test_forward_holds_no_copy_of_the_parameters(self, model_type, children):
        # at the default hidden 300 / dim 300, W, U and b are 5.5 MiB; the
        # forward pass reads them in place, so one over three tokens
        # allocates a small fraction of that
        X = np.random.default_rng(43).standard_normal((3, 300))
        m = build_model(model_type, X, 300, np.random.default_rng(44))
        inst = seq_input(3) if children is None else tree_input(children)
        m.forward([inst])  # the schedule's first build is not the pass's
        shapes = param_shapes(model_type, 300, 300)
        block_bytes = 8 * sum(math.prod(shapes[name]) for name in ("W", "U", "b"))
        tracemalloc.start()
        try:
            m.forward([inst])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block_bytes / 10

    @pytest.mark.parametrize("model_type", ["lstm", "treelstm"])
    def test_forward_reads_the_parameters_as_they_stand(self, model_type):
        # after a step and after an edit in place, the model's logits are
        # those of a fresh model over a copy of its buffer: nothing the
        # forward pass reads is derived from older parameters
        rng = np.random.default_rng(45)
        X = np.empty((6, 4))
        m = build_model(model_type, X, 5, rng)
        inst = random_instance(model_type, X, rng)

        def fresh():
            return logits_of(restore_model(model_type, m.params.buffer.copy(), X, 5), inst)

        before = logits_of(m, inst)
        model_loss(m, [inst], [1])
        RmsProp(m.params, learning_rate=0.01).step()
        stepped = logits_of(m, inst)
        assert stepped.tobytes() == fresh().tobytes() != before.tobytes()
        U = m.params["U"]
        U *= -2.0
        edited = logits_of(m, inst)
        assert edited.tobytes() == fresh().tobytes() != stepped.tobytes()

    @pytest.mark.parametrize("model_type", ["lstm", "cnn", "treelstm"])
    def test_param_shapes_match_built_model(self, model_type):
        m = build_model(model_type, np.zeros((1, 4)), 5, np.random.default_rng(0))
        shapes = {n: v.shape for n, v in m.params.values.items()}
        assert list(param_shapes(model_type, 4, 5).items()) == list(shapes.items())


class TestRandomTree:
    def test_parents_lower_numbered(self):
        rng = np.random.default_rng(50)
        for n in (1, 2, 5, 12):
            children = random_tree_children(n, rng)
            assert len(children) == n
            parent = {}
            for j, kids in enumerate(children):
                for k in kids:
                    assert k > j
                    parent[k] = j
            assert sorted(parent) == list(range(1, n))


class TestSigmoid:
    def test_matches_two_branch_logistic(self):
        # the cell's sigmoid gates, step by step as its forward pass takes
        # them: the pre-activation halved, tanh, then halved and shifted
        x = np.concatenate([np.linspace(-800.0, 800.0, 200001), [-np.inf, np.inf]])
        with np.errstate(all="raise"):
            got = np.tanh(x * 0.5)
            got *= 0.5
            got += 0.5
        # the exact logistic, with exp only of non-positive arguments
        ez = np.exp(-np.abs(x))
        want = np.where(x >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))
        assert np.abs(got - want).max() <= 4.5e-16
        assert ((got >= 0.0) & (got <= 1.0)).all()


# a path (one child per node, 8 levels) beside two bushy trees: the levels
# above height 2 hold path nodes only, the lower ones mix fan-outs 1 to 4
MIXED_TREES = (
    [(1,), (2,), (3,), (4,), (5,), (6,), (7,), ()],
    [(1, 2, 3, 4), (5, 6), (), (7,), (), (), (), ()],
    [(1, 2), (), (3,), ()],
)


def batch_case(model_type, seed, readout="root", dim=4, hidden=5, layout="random"):
    """A random model and inputs for it. The "random" layout draws 3-8
    inputs of lengths 1-13 (CNN inputs shorter than the filter and trees of
    mixed fan-out included) in random order; "shortest first" and
    "shortest mid-batch" fix the lengths' order; "one position" is five
    inputs of one position each, so no node reads a child; "mixed levels"
    is MIXED_TREES."""
    rng = np.random.default_rng(seed)
    vectors = np.zeros((8 * 13, dim))  # room for the most and longest inputs drawn below
    model = build_model(model_type, vectors, hidden, rng, tree_readout=readout)
    if layout == "mixed levels":
        sizes = [len(children) for children in MIXED_TREES]
        first_rows = np.cumsum(sizes) - sizes
        vectors[: sum(sizes)] = rng.standard_normal((sum(sizes), dim))
        batch = [tree_input(children, target_pos=len(children) - 1, first_row=r)
                 for children, r in zip(MIXED_TREES, first_rows)]
        return model, batch, rng.standard_normal((len(batch), 3))
    lengths = {
        "random": lambda: rng.permutation(
            [1, 2, 13] + rng.integers(1, 14, size=int(rng.integers(0, 6))).tolist()),
        "shortest first": lambda: [1, 4, 13, 2, 13, 6],
        "shortest mid-batch": lambda: [9, 3, 1, 12, 12, 5],
        "one position": lambda: [1] * 5,
    }[layout]()
    batch = random_batch(model_type, vectors, lengths, rng)
    return model, batch, rng.standard_normal((len(batch), 3))


def run_batch(model, batch, dlogits, drop_ratio=0.0, drop_rng=None):
    """(logits, dX, parameter gradients) of one forward and backward, with
    the batch's input gradient split into one array per input."""
    model.params.zero_grads()
    logits, cache = model.forward(batch, drop_ratio, drop_rng)
    dX = model.backward(cache, dlogits, input_grad=True)
    assert dX.shape == (sum(map(len, batch)), model.vectors.shape[1])
    dX = np.split(dX, np.cumsum([len(inst) for inst in batch])[:-1])
    grads = {k: v.copy() for k, v in model.params.grads.items()}
    model.params.zero_grads()
    return logits, dX, grads


def run_singles(model, batch, dlogits, drop_ratio=0.0, drop_rng=None):
    """The same as run_batch, one batch of one per input in turn."""
    model.params.zero_grads()
    logits, dX = [], []
    for inst, d in zip(batch, dlogits):
        out, cache = model.forward([inst], drop_ratio, drop_rng)
        logits.append(out[0])
        dX.append(model.backward(cache, d[None], input_grad=True))
    grads = {k: v.copy() for k, v in model.params.grads.items()}
    model.params.zero_grads()
    return np.array(logits), dX, grads


def max_diff(a, b):
    la, xa, ga = a
    lb, xb, gb = b
    assert len(xa) == len(xb) and ga.keys() == gb.keys()
    return max([np.abs(la - lb).max()]
               + [np.abs(p - q).max() for p, q in zip(xa, xb)]
               + [np.abs(ga[k] - gb[k]).max() for k in ga])


MODEL_CASES = [("lstm", "root"), ("cnn", "root"), ("treelstm", "root"), ("treelstm", "target")]


LAYOUT_CASES = [
    *(pytest.param(m, r, "random", id=f"{m}-{r}") for m, r in MODEL_CASES),
    *(pytest.param(m, r, layout, id=f"{m}-{r}-{layout.replace(' ', '-')}") for m, r, layout in (
        ("lstm", "root", "shortest first"), ("lstm", "root", "shortest mid-batch"),
        ("treelstm", "root", "shortest mid-batch"), ("treelstm", "root", "mixed levels"),
        ("treelstm", "target", "mixed levels"))),
]


class TestBatch:
    @pytest.mark.parametrize("model_type,readout,layout", LAYOUT_CASES)
    @pytest.mark.parametrize("seed", range(4))
    def test_batch_equals_batches_of_one(self, model_type, readout, layout, seed):
        model, batch, dlogits = batch_case(model_type, seed, readout, layout=layout)
        batched = run_batch(model, batch, dlogits)
        singles = run_singles(model, batch, dlogits)
        assert [x.shape for x in batched[1]] == [(len(inst), 4) for inst in batch]
        assert max_diff(batched, singles) <= 1e-12

    @pytest.mark.parametrize("model_type,readout,layout", [
        case for case in LAYOUT_CASES if case.values[0] != "cnn"])
    @pytest.mark.parametrize("seed", range(4))
    def test_logits_do_not_depend_on_batch_layout(self, model_type, readout, layout, seed):
        # the cell adds children in list order and halves each level's
        # sigmoid gates exactly; only a matrix product may round differently
        # for another number of rows (BLAS can take another kernel for one
        # row), so a batch's logits are those of its inputs alone to a few ulps
        model, batch, _ = batch_case(model_type, seed, readout, layout=layout)
        batched, _ = model.forward(batch)
        for row, inst in zip(batched, batch):
            alone = logits_of(model, inst)
            assert np.abs(row - alone).max() <= 16 * np.spacing(np.abs(alone).max())

    @pytest.mark.parametrize("model_type,layout", [
        *(pytest.param(m, layout, id=f"{m}-{layout.replace(' ', '-')}")
          for m in ("lstm", "cnn", "treelstm") for layout in ("random", "one position")),
        pytest.param("treelstm", "mixed levels", id="treelstm-mixed-levels"),
    ])
    def test_input_gradient_leaves_parameter_gradients_alone(self, model_type, layout):
        # the input gradient is extra work at the end, asked for or not
        model, batch, dlogits = batch_case(model_type, 50, layout=layout)
        _, cache = model.forward(batch)
        assert model.backward(cache, dlogits) is None
        without = model.params.grad_buffer.copy()
        model.params.zero_grads()
        assert model.backward(cache, dlogits, input_grad=True) is not None
        assert model.params.grad_buffer.tobytes() == without.tobytes()

    @pytest.mark.parametrize("model_type,readout,layout", [
        *(pytest.param(m, r, layout, id=f"{m}-{r}-{layout.replace(' ', '-')}")
          for m, r in MODEL_CASES for layout in ("random", "one position")),
        *(pytest.param("treelstm", r, "mixed levels", id=f"treelstm-{r}-mixed-levels")
          for r in ("root", "target")),
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_input_gradient_alone(self, model_type, readout, layout, seed):
        # the pass saliency asks for: the full pass's input gradient, bit
        # for bit, with the gradient buffer left as it was
        model, batch, dlogits = batch_case(model_type, seed, readout, layout=layout)
        _, cache = model.forward(batch)
        full = model.backward(cache, dlogits, input_grad=True)
        grads = model.params.grad_buffer
        grads[...] = np.random.default_rng(seed).standard_normal(grads.shape)
        before = grads.copy()
        _, cache = model.forward(batch)
        alone = model.backward(cache, dlogits, input_grad=True, param_grads=False)
        assert alone.dtype == full.dtype and alone.shape == full.shape
        assert alone.tobytes() == full.tobytes()
        assert grads.tobytes() == before.tobytes()

    @pytest.mark.parametrize("model_type,readout,layout", [
        *(pytest.param(m, r, "random", id=f"{m}-{r}") for m, r in MODEL_CASES),
        *(pytest.param(m, "root", "one position", id=f"{m}-one-position")
          for m in ("lstm", "treelstm")),
        pytest.param("treelstm", "root", "mixed levels", id="treelstm-mixed-levels"),
    ])
    @pytest.mark.parametrize("one", [False, True], ids=["batch", "batch-of-one"])
    def test_cache_survives_another_forward(self, model_type, readout, layout, one):
        # a forward's cache holds what its backward reads: another forward
        # in between, on other inputs, must not write into it
        model, batch, dlogits = batch_case(model_type, 7, readout, layout=layout)
        first, other = (batch[:1], batch[1:2]) if one else (batch, batch[:0:-1])
        dlogits = dlogits[: len(first)]

        def gradients(between):
            model.params.zero_grads()
            _, cache = model.forward(first)
            if between:
                model.forward(other)
            dX = model.backward(cache, dlogits, input_grad=True)
            return dX.tobytes(), model.params.grad_buffer.tobytes()

        assert gradients(between=True) == gradients(between=False)

    @pytest.mark.parametrize("model_type", ["lstm", "cnn", "treelstm"])
    def test_backward_asked_for_no_gradient_refused(self, model_type):
        model, batch, dlogits = batch_case(model_type, 0)
        _, cache = model.forward(batch)
        with pytest.raises(ValueError, match="neither"):
            model.backward(cache, dlogits, param_grads=False)
        assert not model.params.grad_buffer.any()

    @pytest.mark.parametrize("model_type", ["lstm", "cnn", "treelstm"])
    def test_dropout_draws_the_stream_of_single_calls(self, model_type):
        model, batch, dlogits = batch_case(model_type, 10)
        batched = run_batch(model, batch, dlogits, 0.5, np.random.default_rng(3))
        singles = run_singles(model, batch, dlogits, 0.5, np.random.default_rng(3))
        assert max_diff(batched, singles) <= 1e-12
        undropped = run_batch(model, batch, dlogits)
        assert not np.allclose(batched[0], undropped[0])

    @pytest.mark.parametrize("model_type", ["lstm", "cnn", "treelstm"])
    def test_reordering_reorders_rows(self, model_type):
        model, batch, dlogits = batch_case(model_type, 20)
        perm = np.random.default_rng(0).permutation(len(batch))
        logits, dX, grads = run_batch(model, batch, dlogits)
        p_logits, p_dX, p_grads = run_batch(model, [batch[i] for i in perm], dlogits[perm])
        assert max_diff((logits[perm], [dX[i] for i in perm], grads),
                        (p_logits, p_dX, p_grads)) <= 1e-12

    @pytest.mark.parametrize("model_type,bad", [
        ("lstm", "empty"), ("cnn", "empty"), ("treelstm", "empty"),
        ("treelstm", "cycle"), ("treelstm", "not spanning"), ("treelstm", "two parents"),
        ("treelstm", "no tree"),
    ])
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_one_invalid_input_fails_the_batch(self, model_type, bad, where):
        model, batch, _ = batch_case(model_type, 30)
        invalid = {
            "empty": seq_input(0),
            "cycle": tree_input([(1,), (2,), (0,)]),
            "not spanning": tree_input([(1,), (), ()]),
            "two parents": tree_input([(1, 2), (2,), ()]),
            "no tree": seq_input(3),
        }[bad]
        match = {"empty": "empty", "cycle": "cycle", "not spanning": "span",
                 "two parents": "one parent each", "no tree": "tree structure"}[bad]
        with pytest.raises(ValueError, match=match):
            model.forward(batch[:where] + [invalid] + batch[where:])


def random_trees(seed, n_trees=6):
    """Trees of 1-14 positions rooted at 0, from paths to bushy random
    recursive trees (each position's parent among the last `reach` before
    it), with children lists in random order, over consecutive rows."""
    rng = np.random.default_rng(seed)
    batch, first_row = [], 0
    for _ in range(n_trees):
        n = int(rng.integers(1, 15))
        reach = int(rng.integers(1, n + 1))
        children = [[] for _ in range(n)]
        for j in range(1, n):
            children[int(rng.integers(max(0, j - reach), j))].append(j)
        children = [rng.permutation(kids).tolist() for kids in children]
        batch.append(tree_input(children, target_pos=int(rng.integers(0, n)),
                                first_row=first_row))
        first_row += n
    return batch, rng


class TestTreeCell:
    """The batched tree cell against textbook_tree_lstm, tree by tree."""

    @pytest.mark.parametrize("readout", ["root", "target"])
    @pytest.mark.parametrize("layout", ["mixed levels", "one position",
                                        *(f"random {s}" for s in range(4))])
    def test_batch_equals_textbook_cell(self, readout, layout):
        if not layout.startswith("random"):
            model, batch, dlogits = batch_case("treelstm", 40, readout, layout=layout)
        else:
            batch, rng = random_trees(int(layout.split()[1]))
            vectors = rng.standard_normal((sum(map(len, batch)), 4))
            model = build_model("treelstm", vectors, 5, rng, tree_readout=readout)
            dlogits = rng.standard_normal((len(batch), 3))
        logits, dX, grads = run_batch(model, batch, dlogits)
        want_grads = {name: np.zeros_like(g) for name, g in grads.items()}
        for k, inst in enumerate(batch):
            read = inst.root_pos if readout == "root" else inst.target_pos
            want_logits, want_dX, tree_grads = textbook_tree_lstm(
                model.params, model.vectors[inst.rows], inst.children, read, dlogits[k])
            assert np.abs(logits[k] - want_logits).max() <= 1e-12
            assert np.abs(dX[k] - want_dX).max() <= 1e-12
            for name, g in tree_grads.items():
                want_grads[name] += g
        for name, g in grads.items():
            assert np.abs(g - want_grads[name]).max() <= 1e-12, name


class TestInputRows:
    @pytest.mark.parametrize("model_type", ["lstm", "cnn", "treelstm"])
    @pytest.mark.parametrize("rows", [
        pytest.param(np.arange(4), id="longer"), pytest.param(np.arange(2), id="shorter"),
        pytest.param(np.arange(3).reshape(3, 1), id="2-D"),
        pytest.param(np.arange(3.0), id="float"), pytest.param([0, 1, 2], id="list"),
        pytest.param(np.ones(3, dtype=bool), id="bool"),
        # only -1 means the unk row; -2 would read the last word's embedding
        pytest.param(np.array([0, -2, 1]), id="below-unk"),
    ])
    def test_mis_sized_rows_rejected_at_construction(self, model_type, rows):
        # a batch gathers its inputs' rows end to end: rows longer than the
        # forms would shift every later input onto its neighbour's embeddings
        children = ((1, 2), (), ()) if model_type == "treelstm" else None
        model = build_model(model_type, np.random.default_rng(5).standard_normal((6, 4)), 3,
                            np.random.default_rng(6))
        with pytest.raises(ValueError, match="needs rows as a 1-D integer array of 3 entries"):
            EncodedInput(forms=("a", "b", "c"), rows=rows, children=children)
        good = EncodedInput(forms=("d", "e", "f"), rows=np.arange(3, 6), children=children)
        alone, _ = model.forward([good])
        first = EncodedInput(forms=("a", "b", "c"), rows=np.arange(3), children=children)
        paired, _ = model.forward([first, good])
        assert np.abs(paired[1] - alone[0]).max() <= 1e-15


def chain_schedule_oracle(lengths):
    """(order, rank, levels, read, single) of a chain batch, position by
    position: level t holds position t of every input longer than t,
    longest first (ties in batch order), and a node's child is the node
    at its place on the level below."""
    starts = np.cumsum(lengths) - lengths
    by_length = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    order, bounds = [], [0]
    for t in range(max(lengths)):
        order += [starts[i] + t for i in by_length if lengths[i] > t]
        bounds.append(len(order))
    rank = np.argsort(order)
    levels = [(0, bounds[1], None, None)]
    rows, kids = [], []
    for t in range(1, len(bounds) - 1):
        a, b = bounds[t], bounds[t + 1]
        levels.append((a, b, slice(bounds[t - 1], bounds[t - 1] + b - a), None))
        rows += range(a, b)
        kids += range(bounds[t - 1], bounds[t - 1] + b - a)
    read = rank[starts + np.array(lengths) - 1]
    return np.array(order), rank, tuple(levels), read, (np.array(rows), np.array(kids))


def assert_same_schedule(got, want):
    """The memo's schedule picks what the oracle's does. Its order and rank
    are None, the identity, for one input and only then; single's rows are
    always a slice and its children one when the inputs' lengths are equal."""
    order, rank, levels, read, (rows, kids) = got
    assert isinstance(levels, tuple) and levels == want[2]
    n_inputs = levels[0][1]
    n_nodes = levels[-1][1]
    assert (order is None) == (rank is None) == (n_inputs == 1)
    if n_inputs == 1:
        order = rank = np.arange(n_nodes)
    equal_lengths = all(b - a == n_inputs for a, b, _, _ in levels)
    assert isinstance(rows, slice) and isinstance(kids, slice) == equal_lengths
    rows, kids = (np.arange(n_nodes)[i] if isinstance(i, slice) else i for i in (rows, kids))
    for g, w in zip((order, rank, read, rows, kids), (*want[:2], want[3], *want[4])):
        assert g.dtype.kind == "i" and g.shape == w.shape and (g == w).all()


class TestChainScheduleMemo:
    """A chain batch's schedule is memoised per length profile."""

    CASES = [(1,), (7,), (4, 4, 4), (1, 1, 1), (3, 9, 1, 9, 4), (1, 13, 2),
             *(tuple(np.random.default_rng(s).integers(1, 14, size=1 + s % 9).tolist())
               for s in range(8))]

    @pytest.mark.parametrize("lengths", CASES, ids=str)
    def test_memo_equals_unmemoised(self, lengths):
        want = chain_schedule_oracle(lengths)
        assert_same_schedule(_chain_schedule.__wrapped__(lengths), want)
        first = _chain_schedule(lengths)
        assert_same_schedule(first, want)
        hits = _chain_schedule.cache_info().hits
        assert _chain_schedule(lengths) is first
        assert _chain_schedule.cache_info().hits == hits + 1

    @pytest.mark.parametrize("lengths", [(1,), (5, 2, 5)], ids=str)
    def test_arrays_refuse_writes(self, lengths):
        order, rank, _, read, single = _chain_schedule(lengths)
        arrays = [a for a in (order, rank, read, *single) if isinstance(a, np.ndarray)]
        assert len(arrays) == (1 if len(lengths) == 1 else 4)  # read; order, rank and kids
        for array in arrays:
            assert not array.flags.writeable
            if array.size:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1

    def test_rows_never_enter_memo(self):
        """Two batches of one length profile over different rows: the second
        runs from the first's memoised schedule, and gives the same bytes as
        after the memo is cleared."""
        model, batch, dlogits = batch_case("lstm", 11, layout="shortest mid-batch")
        lengths = [len(inst) for inst in batch]
        first = sum(lengths)
        model.vectors[first : 2 * first] = np.random.default_rng(12).standard_normal(
            (first, model.vectors.shape[1]))
        other = [seq_input(n, first_row=first + s)
                 for n, s in zip(lengths, np.cumsum(lengths) - lengths)]
        base = run_batch(model, batch, dlogits)
        hit = run_batch(model, other, dlogits)
        assert _chain_schedule.cache_info().currsize
        _chain_schedule.cache_clear()
        cold = run_batch(model, other, dlogits)
        assert base[0].tobytes() != hit[0].tobytes()  # the rows do change the logits
        assert hit[0].tobytes() == cold[0].tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(hit[1], cold[1]))
        assert all(hit[2][k].tobytes() == cold[2][k].tobytes() for k in cold[2])

    def test_memo_holds_at_most_its_size(self):
        _chain_schedule.cache_clear()
        for n in range(1, _CHAIN_MEMO_SIZE + 11):
            _chain_schedule((n, 2))
        info = _chain_schedule.cache_info()
        assert info.currsize == info.maxsize == _CHAIN_MEMO_SIZE
        assert info.misses == _CHAIN_MEMO_SIZE + 10
