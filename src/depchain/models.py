"""Three classifiers over token representations: LSTM, CNN, tree-LSTM.

Each model maps an encoded input to 3-class logits (PAST, ONGOING, FUTURE),
exposes a backward pass that accumulates parameter gradients and returns the
gradient with respect to the input embeddings, and is deterministic unless
given a dropout ratio, which only training does. Dropout touches only the
penultimate vector (final hidden state or pooled feature vector). The LSTM
and the tree-LSTM share one cell: the LSTM is the child-sum tree-LSTM run on
a chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import TemporalStatus
from .nncore import ParamSet, dropout, grad_check, softmax, softmax_xent, uniform_init

__all__ = [
    "N_CLASSES",
    "FILTER_WIDTH",
    "EncodedInput",
    "CnnClassifier",
    "TreeLstmClassifier",
    "MODEL_TYPES",
    "build_model",
    "param_shapes",
    "restore_model",
    "model_loss",
    "classify",
    "random_tree_children",
    "random_instance",
    "gradcheck_model",
]

N_CLASSES = 3
FILTER_WIDTH = 5


@dataclass(frozen=True)
class EncodedInput:
    """Model-ready view of one mention.

    Sequence models read forms/X only. The tree model additionally needs the
    children lists (positions, not token ids), the root position, and the
    target position for the alternative readout.
    """

    forms: tuple[str, ...]
    X: np.ndarray  # (T, dim) embedding rows, float64
    rows: np.ndarray  # (T,) embedding table row per position, -1 for unk
    children: tuple[tuple[int, ...], ...] | None = None
    root_pos: int = 0
    target_pos: int = 0

    def __len__(self) -> int:
        return len(self.forms)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class CnnClassifier:
    """Width-5 convolution, rectifier, max-over-time pooling, linear output.

    Sequences shorter than the filter width are zero-padded on the right.
    """

    model_type = "cnn"

    def __init__(self, params: ParamSet, dim: int, n_filters: int):
        self.params = params
        self.dim = dim
        self.n_filters = n_filters

    @classmethod
    def init(cls, dim: int, n_filters: int, rng: np.random.Generator) -> "CnnClassifier":
        p = ParamSet()
        for name, shape in param_shapes("cnn", dim, n_filters).items():
            p.add(name, uniform_init(rng, shape))
        return cls(p, dim, n_filters)

    def forward(self, inst: EncodedInput, drop_ratio: float = 0.0, drop_rng=None):
        T = len(inst)
        if T == 0:
            raise ValueError("cnn forward: empty sequence")
        p = self.params
        Xp = inst.X
        if T < FILTER_WIDTH:
            Xp = np.vstack([Xp, np.zeros((FILTER_WIDTH - T, self.dim))])
        n_pos = Xp.shape[0] - FILTER_WIDTH + 1
        # windows: (n_pos, width*dim), valid convolution stride 1
        windows = np.stack([Xp[s : s + FILTER_WIDTH].reshape(-1) for s in range(n_pos)])
        pre = windows @ p["Wconv"].T + p["bconv"]  # (n_pos, F)
        act = np.maximum(pre, 0.0)
        argmax = np.argmax(act, axis=0)  # (F,) first max wins
        pooled = act[argmax, np.arange(self.n_filters)]
        pd, mask = dropout(pooled, drop_ratio, drop_rng)
        logits = pd @ p["Wy"] + p["by"]
        cache = (inst, Xp.shape[0], windows, pre, argmax, pd, mask)
        return logits, cache

    def backward(self, cache, dlogits: np.ndarray) -> np.ndarray:
        inst, padded_len, windows, pre, argmax, pd, mask = cache
        p = self.params
        g_ = self.params.grads
        g_["Wy"] += np.outer(pd, dlogits)
        g_["by"] += dlogits
        dpooled = (p["Wy"] @ dlogits) * mask
        # max routing: each filter's gradient reaches its argmax position only
        dact = np.zeros_like(pre)
        dact[argmax, np.arange(self.n_filters)] = dpooled
        dpre = dact * (pre > 0.0)
        g_["Wconv"] += dpre.T @ windows
        g_["bconv"] += dpre.sum(axis=0)
        dwindows = dpre @ p["Wconv"]  # (n_pos, width*dim)
        dXp = np.zeros((padded_len, self.dim))
        for s in range(dwindows.shape[0]):
            dXp[s : s + FILTER_WIDTH] += dwindows[s].reshape(FILTER_WIDTH, self.dim)
        return dXp[: len(inst)]


class TreeLstmClassifier:
    """Child-sum tree-LSTM; model_type "lstm" runs the same cell on a chain.

    Gates i/o/u read the sum of children hidden states through the fused
    W_iou/U_iou (columns i, o, u); each child k gets its own forget gate
    f_k = sigmoid(x W_f + h_k U_f + b_f). Under "treelstm" the input's
    dependency tree is read at the root node by default; readout="target"
    reads the mention node instead. Under "lstm" the input is a left-to-right
    chain (position t's only child is t-1), the last position is read out, and
    the forget bias starts at 1. This is the standard LSTM: with one child the
    child sum is the previous hidden state (Tai, Socher & Manning 2015).
    """

    def __init__(self, params: ParamSet, dim: int, hidden: int,
                 model_type: str = "treelstm", readout: str = "root"):
        if model_type not in ("lstm", "treelstm"):
            raise ValueError(f"unknown model type {model_type!r}")
        if readout not in ("root", "target"):
            raise ValueError(f"readout must be 'root' or 'target', got {readout!r}")
        self.params = params
        self.dim = dim
        self.hidden = hidden
        self.model_type = model_type
        self.readout = readout

    @classmethod
    def init(cls, dim: int, hidden: int, rng: np.random.Generator,
             model_type: str = "treelstm", readout: str = "root") -> "TreeLstmClassifier":
        # draw W, U, b gate by gate in the order i, f, o, u, then fuse i/o/u:
        # a seed gives the same numbers as one matrix per gate would
        shapes = ((dim, hidden), (hidden, hidden), (hidden,))
        drawn = {gate: [uniform_init(rng, s) for s in shapes] for gate in "ifou"}
        if model_type == "lstm":
            drawn["f"][2] = np.ones(hidden)  # standard forget-gate bias, helps long gaps
        p = ParamSet()
        for k, kind in enumerate("WUb"):
            p.add(kind + "_iou", np.concatenate([drawn[g][k] for g in "iou"], axis=-1))
        for k, kind in enumerate("WUb"):
            p.add(kind + "_f", drawn["f"][k])
        p.add("Wy", uniform_init(rng, (hidden, N_CLASSES)))
        p.add("by", uniform_init(rng, (N_CLASSES,)))
        return cls(p, dim, hidden, model_type, readout)

    def _structure(self, inst: EncodedInput):
        """(children lists, node order with children before parents, readout)."""
        T = len(inst)
        if self.model_type == "lstm":
            if T == 0:
                raise ValueError("lstm forward: empty sequence")
            return [[]] + [[t] for t in range(T - 1)], range(T), T - 1
        if T == 0:
            raise ValueError("treelstm forward: empty tree")
        if inst.children is None:
            raise ValueError("treelstm forward: input lacks tree structure")
        # iterative post-order from the root
        order: list[int] = []
        stack = [(inst.root_pos, False)]
        pushes = 0
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            pushes += 1
            if pushes > T:
                raise ValueError("tree input contains a cycle")
            stack.append((node, True))
            for ch in inst.children[node]:
                stack.append((ch, False))
        if len(order) != T:
            raise ValueError("tree input does not span all positions")
        read = inst.root_pos if self.readout == "root" else inst.target_pos
        return [list(kids) for kids in inst.children], order, read

    def forward(self, inst: EncodedInput, drop_ratio: float = 0.0, drop_rng=None):
        children, order, read = self._structure(inst)
        p = self.params
        T, H = len(inst), self.hidden
        U_iou, U_f = p["U_iou"], p["U_f"]
        x_iou = inst.X @ p["W_iou"] + p["b_iou"]  # input terms of every node at once
        x_f = inst.X @ p["W_f"] + p["b_f"]
        h_sum = np.zeros((T, H))
        iou = np.empty((T, 3 * H))
        f = np.zeros((T, H))  # row k: the forget gate k's parent applies to c[k]
        c = np.empty((T, H))
        tanh_c = np.empty((T, H))
        h = np.empty((T, H))
        for j in order:
            kids = children[j]
            z = x_iou[j]
            if kids:
                h_sum[j] = h[kids].sum(axis=0)
                z = z + h_sum[j] @ U_iou
                f[kids] = _sigmoid(x_f[j] + h[kids] @ U_f)
            iou[j, : 2 * H] = _sigmoid(z[: 2 * H])
            iou[j, 2 * H :] = np.tanh(z[2 * H :])
            c[j] = iou[j, :H] * iou[j, 2 * H :]
            if kids:
                c[j] += (f[kids] * c[kids]).sum(axis=0)
            tanh_c[j] = np.tanh(c[j])
            h[j] = iou[j, H : 2 * H] * tanh_c[j]
        hd, mask = dropout(h[read], drop_ratio, drop_rng)
        logits = hd @ p["Wy"] + p["by"]
        cache = (inst, children, order, read, h_sum, iou, f, c, tanh_c, h, hd, mask)
        return logits, cache

    def backward(self, cache, dlogits: np.ndarray) -> np.ndarray:
        inst, children, order, read, h_sum, iou, f, c, tanh_c, h, hd, mask = cache
        p = self.params
        g_ = self.params.grads
        T, H = len(inst), self.hidden
        U_iou, U_f_T = p["U_iou"], p["U_f"].T
        g_["Wy"] += np.outer(hd, dlogits)
        g_["by"] += dlogits
        i, o, u = iou[:, :H], iou[:, H : 2 * H], iou[:, 2 * H :]
        act_iou = iou * (1.0 - iou)  # sigmoid' of i and o; tanh' of u below
        act_iou[:, 2 * H :] = 1.0 - u * u
        act_f = f * (1.0 - f)
        dtanh_c = 1.0 - tanh_c * tanh_c
        dh = np.zeros((T, H))
        dc = np.zeros((T, H))
        dh[read] = (p["Wy"] @ dlogits) * mask
        dz_iou = np.zeros((T, 3 * H))  # pre-activation gradients per node
        dz_f = np.zeros((T, H))  # row k: forget pre-activation gradient of child k
        dz_f_sum = np.zeros((T, H))  # row j: dz_f summed over j's children
        for j in reversed(order):  # parents before children
            dcj = dc[j] + dh[j] * o[j] * dtanh_c[j]
            dz = dz_iou[j]
            dz[:H] = dcj * u[j]
            dz[H : 2 * H] = dh[j] * tanh_c[j]
            dz[2 * H :] = dcj * i[j]
            dz *= act_iou[j]
            kids = children[j]
            if kids:
                zf = dcj * c[kids] * act_f[kids]
                dz_f[kids] = zf
                dz_f_sum[j] = zf.sum(axis=0)
                dh[kids] += U_iou @ dz + zf @ U_f_T
                dc[kids] += dcj * f[kids]
        g_["W_iou"] += inst.X.T @ dz_iou
        g_["U_iou"] += h_sum.T @ dz_iou
        g_["b_iou"] += dz_iou.sum(axis=0)
        g_["W_f"] += inst.X.T @ dz_f_sum
        g_["U_f"] += h.T @ dz_f
        g_["b_f"] += dz_f_sum.sum(axis=0)
        return dz_iou @ p["W_iou"].T + dz_f_sum @ p["W_f"].T


MODEL_TYPES = ("lstm", "cnn", "treelstm")


def build_model(model_type: str, dim: int, hidden: int,
                rng: np.random.Generator, tree_readout: str = "root"):
    """Initialize a fresh classifier; hidden doubles as the CNN filter count."""
    if model_type == "cnn":
        return CnnClassifier.init(dim, hidden, rng)
    return TreeLstmClassifier.init(dim, hidden, rng, model_type, tree_readout)


def param_shapes(model_type: str, dim: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """Parameter names and shapes of a model in init order, without
    allocating it; hidden doubles as the CNN filter count."""
    if model_type == "cnn":
        return {"Wconv": (hidden, FILTER_WIDTH * dim), "bconv": (hidden,),
                "Wy": (hidden, N_CLASSES), "by": (N_CLASSES,)}
    return {"W_iou": (dim, 3 * hidden), "U_iou": (hidden, 3 * hidden), "b_iou": (3 * hidden,),
            "W_f": (dim, hidden), "U_f": (hidden, hidden), "b_f": (hidden,),
            "Wy": (hidden, N_CLASSES), "by": (N_CLASSES,)}


def restore_model(model_type: str, params: ParamSet, dim: int, hidden: int,
                  tree_readout: str = "root"):
    """Wrap already-loaded parameters (checkpoint restore path)."""
    if model_type == "cnn":
        return CnnClassifier(params, dim, hidden)
    return TreeLstmClassifier(params, dim, hidden, model_type, tree_readout)


def model_loss(model, inst: EncodedInput, gold: int, drop_ratio: float = 0.0, drop_rng=None):
    """Forward + cross-entropy + backward. Returns (loss, prob, dX).

    Accumulates parameter gradients into model.params without zeroing first,
    so callers can average over a batch.
    """
    logits, cache = model.forward(inst, drop_ratio, drop_rng)
    loss, prob, dlogits = softmax_xent(logits, gold)
    dX = model.backward(cache, dlogits)
    return loss, prob, dX


def classify(model, inst: EncodedInput) -> tuple[TemporalStatus, np.ndarray]:
    """Prediction without dropout; ties break toward the lower class index."""
    logits, _ = model.forward(inst)
    prob = softmax(logits)
    return TemporalStatus(int(np.argmax(logits))), prob


def random_tree_children(n: int, rng: np.random.Generator) -> tuple[tuple[int, ...], ...]:
    """Random rooted tree over positions 0..n-1 with root 0; each node's
    parent is drawn among lower-numbered nodes, so the result is acyclic."""
    children: list[list[int]] = [[] for _ in range(n)]
    for j in range(1, n):
        children[int(rng.integers(0, j))].append(j)
    return tuple(tuple(c) for c in children)


def random_instance(model_type: str, dim: int, length: int,
                    rng: np.random.Generator) -> EncodedInput:
    """Synthetic input for gradient checks and invariance tests."""
    X = rng.standard_normal((length, dim))
    forms = tuple(f"w{t}" for t in range(length))
    rows = np.full(length, -1, dtype=np.int64)
    if model_type != "treelstm":
        return EncodedInput(forms=forms, X=X, rows=rows)
    return EncodedInput(
        forms=forms,
        X=X,
        rows=rows,
        children=random_tree_children(length, rng),
        root_pos=0,
        target_pos=int(rng.integers(0, length)),
    )


def gradcheck_model(model_type: str, seed: int, dim: int = 6, hidden: int = 8,
                    length: int | None = None) -> float:
    """Max relative error between analytic and central-difference gradients
    for one randomly initialized model on one random input.

    Default lengths: 9 for the CNN (several pooling positions), 5 for the
    recurrent models (deeper inputs shrink the verifiable gradient range).
    """
    if length is None:
        length = 9 if model_type == "cnn" else 5
    rng = np.random.default_rng(seed)
    model = build_model(model_type, dim, hidden, rng)
    inst = random_instance(model_type, dim, length, rng)
    gold = int(rng.integers(0, N_CLASSES))

    def loss_fn():
        loss, _, _ = model_loss(model, inst, gold)
        return loss

    return grad_check(loss_fn, model.params)
