"""Three classifiers over token representations: LSTM, CNN, tree-LSTM.

Each model holds its embedding matrix, its first layer, and maps a batch (a
list) of encoded inputs, which hold row indices into that matrix, to (B, 3)
logits (PAST, ONGOING, FUTURE). It exposes a backward pass that accumulates
parameter gradients and returns the batch's gradient with respect to its
embeddings (one (sum of lengths, dim) array in batch order), and is
deterministic unless given a dropout ratio, which only training does.
Dropout touches only the penultimate vector (final hidden state or pooled
feature vector). A single input runs as a batch of one; there is no other
path. The LSTM and the tree-LSTM share one cell: the LSTM is the child-sum
tree-LSTM run on a chain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import TemporalStatus
from .errors import TrainingError
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
    "random_batch",
    "gradcheck_model",
]

N_CLASSES = 3
FILTER_WIDTH = 5


@dataclass(frozen=True)
class EncodedInput:
    """Model-ready view of one mention: indices, no embeddings.

    The (T, dim) input is the rows of the model's embedding matrix that
    ``rows`` picks, gathered by its forward, so an input sees the embeddings
    as they are then, fine-tuned ones included. Sequence models read
    forms/rows only. The tree model additionally needs the children lists
    (positions, not token ids), the root position, and the target position
    for the alternative readout.
    """

    forms: tuple[str, ...]
    rows: np.ndarray  # (T,) embedding row per position; -1 is the last (unk) row
    children: tuple[tuple[int, ...], ...] | None = None
    root_pos: int = 0
    target_pos: int = 0

    def __len__(self) -> int:
        return len(self.forms)

    @cached_property
    def tree_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """(height, kids) of the tree, computed on first use and kept with
        the input: height per position (leaves 0, a parent one above its
        highest child) and the children as a (T, max fan-out) position
        matrix padded with -1. Raises ValueError unless the children lists
        form one tree over all positions, rooted at root_pos."""
        T = len(self)
        if self.children is None:
            raise ValueError("treelstm forward: input lacks tree structure")
        if len(self.children) != T:
            raise ValueError("tree input needs one children list per position")
        fan = np.fromiter(map(len, self.children), np.int64, T)
        kids = np.fromiter(itertools.chain.from_iterable(self.children), np.int64)
        positions = np.append(kids, [self.root_pos, self.target_pos])
        if ((positions < 0) | (positions >= T)).any():
            raise ValueError("tree input has a position out of range")
        parents = np.repeat(np.arange(T), fan)
        # peel the tree from its leaves: a node is placed one level above
        # the last of its children; nodes on a cycle are never placed
        height = np.zeros(T, dtype=np.int64)
        pending = fan.copy()
        placed = pending == 0
        new = placed
        level = 0
        while new.any():
            level += 1
            pending -= np.bincount(parents[new[kids]], minlength=T)
            new = (pending == 0) & ~placed
            height[new] = level
            placed = placed | new
        if not placed.all():
            raise ValueError("tree input contains a cycle")
        # without a cycle, one parent for every position but the root is one tree
        n_parents = np.bincount(kids, minlength=T)
        n_parents[self.root_pos] += 1
        if (n_parents != 1).any():
            raise ValueError("tree input does not span all positions with one parent each")
        padded = np.full((T, int(fan.max())), -1, dtype=np.int64)
        padded[parents, np.arange(kids.size) - np.repeat(np.cumsum(fan) - fan, fan)] = kids
        return height, padded


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # the logistic function through tanh: one expression, no overflow
    return 0.5 * np.tanh(0.5 * x) + 0.5


class CnnClassifier:
    """Width-5 convolution, rectifier, max-over-time pooling, linear output.

    Sequences shorter than the filter width are zero-padded on the right to
    one window. A batch runs as one im2col matmul over every input's
    windows, padded to the longest input; windows past an input's own padded
    length are masked out of its max-pool.
    """

    model_type = "cnn"

    def __init__(self, params: ParamSet, vectors: np.ndarray):
        self.params = params
        self.vectors = vectors
        self.dim = vectors.shape[1]
        self.n_filters = params["bconv"].shape[0]

    @classmethod
    def init(cls, vectors: np.ndarray, n_filters: int, rng: np.random.Generator) -> "CnnClassifier":
        shapes = param_shapes("cnn", vectors.shape[1], n_filters)
        return cls(ParamSet.of({name: uniform_init(rng, s) for name, s in shapes.items()}), vectors)

    def forward(self, batch: list[EncodedInput], drop_ratio: float = 0.0, drop_rng=None):
        sizes = [len(inst) for inst in batch]
        if not all(sizes):
            raise ValueError("cnn forward: empty sequence")
        p = self.params
        B, W, F = len(batch), FILTER_WIDTH, self.n_filters
        padded = [max(T, W) for T in sizes]
        T_max = max(padded)
        present = np.arange(T_max) < np.array(sizes)[:, None]  # row-major: batch order
        Xp = np.zeros((B, T_max, self.dim))
        Xp[present] = self.vectors[np.concatenate([inst.rows for inst in batch])]
        # im2col: row (b, s) is positions s..s+W-1 of input b, flattened,
        # gathered as W slices of Xp at offsets 0..W-1
        n_pos = T_max - W + 1
        windows = np.concatenate([Xp[:, k : k + n_pos] for k in range(W)], axis=2)
        windows = windows.reshape(-1, W * self.dim)
        pre = (windows @ p["Wconv"].T + p["bconv"]).reshape(B, n_pos, F)
        act = np.maximum(pre, 0.0)
        pool = act
        if min(padded) < T_max:
            # windows past an input's padded length never win its max-pool:
            # the rectifier is >= 0, so a masked -1 loses to any window
            valid = np.arange(n_pos) <= np.subtract(padded, W)[:, None]
            pool = np.where(valid[:, :, None], act, -1.0)
        argmax = pool.argmax(axis=1)  # (B, F), first max wins
        pick = (np.arange(B)[:, None], argmax, np.arange(F))
        pooled = act[pick]
        pd, mask = dropout(pooled, drop_ratio, drop_rng)
        logits = pd @ p["Wy"] + p["by"]
        cache = (present, Xp.shape, windows, pre, pick, pd, mask)
        return logits, cache

    def backward(self, cache, dlogits: np.ndarray) -> np.ndarray:
        present, padded_shape, windows, pre, pick, pd, mask = cache
        p = self.params
        g_ = self.params.grads
        g_["Wy"] += pd.T @ dlogits
        g_["by"] += dlogits.sum(axis=0)
        dpooled = (dlogits @ p["Wy"].T) * mask
        # max routing: each filter's gradient reaches its argmax window only
        dpre = np.zeros(pre.shape)
        dpre[pick] = dpooled
        dpre *= pre > 0.0
        dpre = dpre.reshape(-1, self.n_filters)
        g_["Wconv"] += dpre.T @ windows
        g_["bconv"] += dpre.sum(axis=0)
        B, n_pos = pre.shape[:2]
        dwindows = (dpre @ p["Wconv"]).reshape(B, n_pos, FILTER_WIDTH, self.dim)
        dXp = np.zeros(padded_shape)
        # offset k of window s is position s+k; adding the last offset first
        # sums each position's windows in window order
        for k in reversed(range(FILTER_WIDTH)):
            dXp[:, k : k + n_pos] += dwindows[:, :, k]
        return dXp[present]


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

    A batch runs level by level: every node of every input is sorted by
    height (on a chain, its position), so one level is a contiguous slice
    whose children are all on lower levels, and each level costs a few
    matmuls whatever the batch size.
    """

    def __init__(self, params: ParamSet, vectors: np.ndarray,
                 model_type: str = "treelstm", readout: str = "root"):
        if model_type not in ("lstm", "treelstm"):
            raise ValueError(f"unknown model type {model_type!r}")
        if readout not in ("root", "target"):
            raise ValueError(f"readout must be 'root' or 'target', got {readout!r}")
        self.params = params
        self.vectors = vectors
        self.hidden = params["b_f"].shape[0]
        self.model_type = model_type
        self.readout = readout

    @classmethod
    def init(cls, vectors: np.ndarray, hidden: int, rng: np.random.Generator,
             model_type: str = "treelstm", readout: str = "root") -> "TreeLstmClassifier":
        # draw W, U, b gate by gate in the order i, f, o, u, then fuse i/o/u:
        # a seed gives the same numbers as one matrix per gate would
        shapes = ((vectors.shape[1], hidden), (hidden, hidden), (hidden,))
        drawn = {gate: [uniform_init(rng, s) for s in shapes] for gate in "ifou"}
        if model_type == "lstm":
            drawn["f"][2] = np.ones(hidden)  # standard forget-gate bias, helps long gaps
        values = {}
        for k, kind in enumerate("WUb"):
            values[kind + "_iou"] = np.concatenate([drawn[g][k] for g in "iou"], axis=-1)
        for k, kind in enumerate("WUb"):
            values[kind + "_f"] = drawn["f"][k]
        values["Wy"] = uniform_init(rng, (hidden, N_CLASSES))
        values["by"] = uniform_init(rng, (N_CLASSES,))
        return cls(ParamSet.of(values), vectors, model_type, readout)

    def _schedule(self, batch: list[EncodedInput]):
        """Level schedule of a batch, over its N nodes sorted by height.

        Returns (order, rank, levels, kids, read). order[s] is the
        node at sorted index s, counting over the inputs laid end to end, and
        rank is its inverse. kids is the (N x max fan-out) matrix of sorted
        child indices, padded with the sentinel index N. levels holds
        (start, stop, level_kids, parents) per height: the level's slice of
        kids cut to its own fan-out (None on the leaf level), and the sorted
        parent index of each of its nodes (N for a root), and read the
        sorted index of each input's readout node.
        """
        sizes = [len(inst) for inst in batch]
        if not all(sizes):
            raise ValueError(f"{self.model_type} forward: empty sequence")
        ends = list(itertools.accumulate(sizes))
        starts = [e - T for e, T in zip(ends, sizes)]
        N = ends[-1]
        if self.model_type == "lstm":
            height = np.arange(N) - np.repeat(starts, sizes)
            kids = np.arange(-1, N - 1)[:, None]
            kids[starts] = -1
            read = np.subtract(ends, 1)
        else:
            trees = [inst.tree_levels for inst in batch]
            height = np.concatenate([h for h, _ in trees])
            kids = np.full((N, max(k.shape[1] for _, k in trees)), -1, dtype=np.int64)
            for start, (_, k) in zip(starts, trees):
                kids[start : start + len(k), : k.shape[1]] = np.where(k >= 0, k + start, -1)
            read = np.add(starts, [inst.root_pos if self.readout == "root" else inst.target_pos
                                   for inst in batch])
        order = np.argsort(height, kind="stable")
        rank = np.empty(N + 1, dtype=np.int64)
        rank[order] = np.arange(N)
        rank[N] = N  # -1, a missing child, maps to the sentinel
        kids = rank[kids[order]]
        parents = np.full(N + 1, N)  # row N takes the sentinel's writes
        parents[kids] = np.arange(N)[:, None]
        height = height[order]
        edges = [0, *(np.flatnonzero(height[1:] != height[:-1]) + 1).tolist(), N]
        fan_out = np.maximum.reduceat((kids < N).sum(axis=1), edges[:-1]).tolist()
        levels = [(a, b, kids[a:b, :w] if w else None, parents[a:b])
                  for a, b, w in zip(edges, edges[1:], fan_out)]
        return order, rank[:N], levels, kids, rank[read]

    def forward(self, batch: list[EncodedInput], drop_ratio: float = 0.0, drop_rng=None):
        order, rank, levels, kids, read = self._schedule(batch)
        p = self.params
        N, H = len(order), self.hidden
        # sigmoid(x) = 0.5 tanh(x/2) + 0.5, so one tanh serves the i, o and u
        # gates: i and o columns are halved going in, scaled and shifted out
        scale = np.repeat([0.5, 0.5, 1.0], H)
        shift = np.repeat([0.5, 0.5, 0.0], H)
        U_iou, U_f = p["U_iou"] * scale, p["U_f"]
        X = self.vectors[np.concatenate([inst.rows for inst in batch])[order]]
        x_iou = (X @ p["W_iou"] + p["b_iou"]) * scale  # input terms of every node at once
        x_f = X @ p["W_f"] + p["b_f"]
        # row N is the zero sentinel that padded child slots read
        h = np.zeros((N + 1, H))
        c = np.zeros((N + 1, H))
        f = np.zeros((N + 1, H))  # row k: the forget gate k's parent applies to c[k]
        h_sum = np.zeros((N, H))
        iou = np.empty((N, 3 * H))
        tanh_c = np.empty((N, H))
        for a, b, level_kids, _ in levels:
            gates = iou[a:b]
            if level_kids is None:
                np.tanh(x_iou[a:b], out=gates)
            else:
                h_kids = h[level_kids]  # (nodes, fan-out, H)
                h_sum[a:b] = h_kids.sum(axis=1)
                np.tanh(x_iou[a:b] + h_sum[a:b] @ U_iou, out=gates)
                f_kids = _sigmoid(x_f[a:b, None] + (h_kids.reshape(-1, H) @ U_f).reshape(h_kids.shape))
                f[level_kids] = f_kids
            gates *= scale
            gates += shift
            c_level = gates[:, :H] * gates[:, 2 * H :]
            if level_kids is not None:
                c_level += (f_kids * c[level_kids]).sum(axis=1)
            c[a:b] = c_level
            np.tanh(c_level, out=tanh_c[a:b])
            np.multiply(gates[:, H : 2 * H], tanh_c[a:b], out=h[a:b])
        hd, mask = dropout(h[read], drop_ratio, drop_rng)
        logits = hd @ p["Wy"] + p["by"]
        cache = (rank, levels, kids, read, X, h_sum, iou, f, c, tanh_c, h, hd, mask)
        return logits, cache

    def backward(self, cache, dlogits: np.ndarray) -> np.ndarray:
        rank, levels, kids, read, X, h_sum, iou, f, c, tanh_c, h, hd, mask = cache
        p = self.params
        g_ = self.params.grads
        N, H = len(rank), self.hidden
        U_iou_T, U_f_T = p["U_iou"].T, p["U_f"].T
        g_["Wy"] += hd.T @ dlogits
        g_["by"] += dlogits.sum(axis=0)
        i, o, u = iou[:, :H], iou[:, H : 2 * H], iou[:, 2 * H :]
        # the pre-activation gradient of node j is its (dc, dh, dc) times
        # these per-node factors; the derivatives are s(1-s) and 1-tanh^2
        dz_factor = np.concatenate(
            [u * i * (1.0 - i), tanh_c * o * (1.0 - o), i * (1.0 - u * u)], axis=1)
        out_factor = o * (1.0 - tanh_c * tanh_c)  # dc of a node per unit of its dh
        forget_factor = c[:N] * f[:N] * (1.0 - f[:N])  # dz_f of a child per unit of parent dc
        dh = np.zeros((N, H))
        dh[read] = (dlogits @ p["Wy"].T) * mask
        # row N is the zero sentinel that a root reads as its parent
        dc = np.zeros((N + 1, H))  # total cell gradient per node
        dz_iou = np.zeros((N + 1, 3 * H))  # pre-activation gradients per node
        dz_f = np.zeros((N + 1, H))  # row k: forget pre-activation gradient of child k
        for a, b, _, parents in reversed(levels):  # parents before children
            dc_parent = dc[parents]
            zf = dc_parent * forget_factor[a:b]
            dz_f[a:b] = zf
            dh_level = dh[a:b] + dz_iou[parents] @ U_iou_T + zf @ U_f_T
            dc_level = dc_parent * f[a:b] + dh_level * out_factor[a:b]
            dc[a:b] = dc_level
            np.multiply(np.concatenate([dc_level, dh_level, dc_level], axis=1),
                        dz_factor[a:b], out=dz_iou[a:b])
        dz_iou = dz_iou[:N]
        dz_f_sum = dz_f[kids].sum(axis=1)  # row j: dz_f summed over j's children
        g_["W_iou"] += X.T @ dz_iou
        g_["U_iou"] += h_sum.T @ dz_iou
        g_["b_iou"] += dz_iou.sum(axis=0)
        g_["W_f"] += X.T @ dz_f_sum
        g_["U_f"] += h[:N].T @ dz_f[:N]
        g_["b_f"] += dz_f_sum.sum(axis=0)
        return (dz_iou @ p["W_iou"].T + dz_f_sum @ p["W_f"].T)[rank]


MODEL_TYPES = ("lstm", "cnn", "treelstm")


def build_model(model_type: str, vectors: np.ndarray, hidden: int,
                rng: np.random.Generator, tree_readout: str = "root"):
    """Initialize a fresh classifier over the embedding matrix ``vectors``
    (held, not copied); hidden doubles as the CNN filter count."""
    if model_type == "cnn":
        return CnnClassifier.init(vectors, hidden, rng)
    return TreeLstmClassifier.init(vectors, hidden, rng, model_type, tree_readout)


def param_shapes(model_type: str, dim: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """Parameter names and shapes of a model in init order, without
    allocating it; hidden doubles as the CNN filter count."""
    if model_type == "cnn":
        return {"Wconv": (hidden, FILTER_WIDTH * dim), "bconv": (hidden,),
                "Wy": (hidden, N_CLASSES), "by": (N_CLASSES,)}
    return {"W_iou": (dim, 3 * hidden), "U_iou": (hidden, 3 * hidden), "b_iou": (3 * hidden,),
            "W_f": (dim, hidden), "U_f": (hidden, hidden), "b_f": (hidden,),
            "Wy": (hidden, N_CLASSES), "by": (N_CLASSES,)}


def restore_model(model_type: str, params: ParamSet, vectors: np.ndarray,
                  tree_readout: str = "root"):
    """Wrap already-loaded parameters and an embedding matrix (checkpoint
    restore path)."""
    if model_type == "cnn":
        return CnnClassifier(params, vectors)
    return TreeLstmClassifier(params, vectors, model_type, tree_readout)


def model_loss(model, batch: list[EncodedInput], golds, drop_ratio: float = 0.0,
               drop_rng=None):
    """Forward + cross-entropy + backward over a batch. Returns (losses, probs,
    dX): (B,) losses, (B, 3) probabilities and the batch's input gradient,
    one (sum of lengths, dim) array in batch order.

    Accumulates the gradient of the summed loss into model.params without
    zeroing first, so callers can average over a batch.
    """
    logits, cache = model.forward(batch, drop_ratio, drop_rng)
    losses, probs, dlogits = softmax_xent(logits, golds)
    return losses, probs, model.backward(cache, dlogits)


def classify(model, inst: EncodedInput) -> tuple[TemporalStatus, np.ndarray]:
    """Prediction without dropout, as a batch of one; ties break toward the
    lower class index."""
    logits, _ = model.forward([inst])
    return TemporalStatus(int(np.argmax(logits[0]))), softmax(logits[0])


def random_tree_children(n: int, rng: np.random.Generator) -> tuple[tuple[int, ...], ...]:
    """Random rooted tree over positions 0..n-1 with root 0; each node's
    parent is drawn among lower-numbered nodes, so the result is acyclic."""
    children: list[list[int]] = [[] for _ in range(n)]
    for j in range(1, n):
        children[int(rng.integers(0, j))].append(j)
    return tuple(tuple(c) for c in children)


def random_instance(model_type: str, vectors: np.ndarray, rng: np.random.Generator,
                    rows: np.ndarray | None = None) -> EncodedInput:
    """Synthetic input for gradient checks and invariance tests over ``rows``
    of ``vectors`` (default: every row), which it fills in place with
    standard normal draws before it draws the tree."""
    rows = np.arange(len(vectors)) if rows is None else rows
    length = len(rows)
    vectors[rows] = rng.standard_normal((length, vectors.shape[1]))
    forms = tuple(f"w{t}" for t in range(length))
    if model_type != "treelstm":
        return EncodedInput(forms=forms, rows=rows)
    return EncodedInput(
        forms=forms,
        rows=rows,
        children=random_tree_children(length, rng),
        root_pos=0,
        target_pos=int(rng.integers(0, length)),
    )


def random_batch(model_type: str, vectors: np.ndarray, lengths,
                 rng: np.random.Generator) -> list[EncodedInput]:
    """Random inputs of the given lengths over consecutive rows of
    ``vectors`` from row 0, as random_instance draws them in turn."""
    ends = itertools.accumulate(lengths)
    return [random_instance(model_type, vectors, rng, np.arange(end - n, end))
            for n, end in zip(lengths, ends)]


def gradcheck_model(model_type: str, seed: int, dim: int = 6, hidden: int = 8,
                    length: int | None = None) -> float:
    """Max relative error between analytic and central-difference gradients
    for one randomly initialized model on a batch of three random inputs.

    The inputs have `length`, about half of it, and 1 positions (trees of
    different shapes), so levels and CNN windows span several inputs.
    Default length: 9 for the CNN (several pooling positions; the shorter
    inputs are padded), 5 for the recurrent models (deeper inputs shrink the
    verifiable gradient range). TrainingError when the model or its inputs
    cannot be allocated.
    """
    if length is None:
        length = 9 if model_type == "cnn" else 5
    rng = np.random.default_rng(seed)
    lengths = (length, (length + 1) // 2, 1)
    try:
        # rng draws the parameters first, then the inputs' rows of this matrix
        vectors = np.empty((sum(lengths), dim))
        model = build_model(model_type, vectors, hidden, rng)
    except (ValueError, MemoryError):  # numpy: "array is too big", or out of memory
        raise TrainingError(f"cannot allocate {model_type} parameters with hidden {hidden} "
                            f"over dim {dim}") from None
    batch = random_batch(model_type, vectors, lengths, rng)
    golds = rng.integers(0, N_CLASSES, size=len(batch))

    def loss_fn():
        losses, _, _ = model_loss(model, batch, golds)
        return float(losses.sum())

    return grad_check(loss_fn, model.params)
