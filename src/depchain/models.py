"""Three classifiers over token representations: LSTM, CNN, tree-LSTM.

Each model holds its embedding matrix, its first layer, and maps a batch (a
list) of encoded inputs, which hold row indices into that matrix, to (B, 3)
logits (PAST, ONGOING, FUTURE). Its backward pass forms only the gradients
its caller names. By default (param_grads=True) it accumulates the
parameter gradients, as training needs; input_grad=True also returns the
batch's gradient with respect to its embeddings (one (sum of lengths, dim)
array in batch order), else the pass returns None. Saliency asks for the
input gradient alone (param_grads=False), which leaves the gradient buffer
untouched; asking for neither is a ValueError. Each gradient is bitwise the
same whichever others are formed with it. A model is deterministic unless
given a dropout ratio, which only training does.
Dropout touches only the penultimate vector (final hidden state or pooled
feature vector). Every prediction is one checked predict call over a batch,
a single input a batch of one; classify takes its probabilities as the
exp of softmax_xent's log-probabilities (log_softmax), with no second check
and no loss.
The CNN reads its windows as one strided view of the zero-padded batch and
max-pools them, routing each filter's gradient back to its first winning
window (see CnnClassifier). The LSTM
and the tree-LSTM share one cell: the LSTM is the child-sum tree-LSTM run
on a chain, in one loop over height levels that branches per level on what
the level's nodes have below them (see TreeLstmClassifier).
Its four gates are fused: W, U and b hold them in columns u, i, o, f and lie
back to back, one (dim + hidden + 1, 4 hidden) block that both passes read
in place. The forward pass stores the gates gate-major, one contiguous
(nodes, hidden) array per gate, and works each level's gates, halving the
sigmoids into the one tanh, as one contiguous block, never as column slices
of node-major rows.
A model is its type, its sizes and one flat parameter buffer, which its
constructor lays out. It pickles as those, so an unpickled model's
parameters view its buffer; gradients are not kept (RMSProp zeroes them).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .corpus import STATUSES, TemporalStatus
from .errors import TrainingError
from .nncore import (ONE, NonFiniteError, ParamSet, constant, dropout, grad_check, log_softmax,
                     softmax_xent, uniform_init)

__all__ = [
    "EncodedInput",
    "CnnClassifier",
    "TreeLstmClassifier",
    "MODEL_TYPES",
    "build_model",
    "param_shapes",
    "restore_model",
    "model_loss",
    "predict",
    "classify",
    "gradcheck_model",
]

N_CLASSES = 3
FILTER_WIDTH = 5
# a sort key packs fields of this many bits into an int64; in a tree of up to
# 2**21 positions every height, place and fan-out fits one
_KEY_BITS = 21
_PLACE_MASK = (1 << _KEY_BITS) - 1
_PAD_KEY = np.iinfo(np.int64).max
# the per-batch passes' scalar operands, as 0-d float64 (see nncore.constant)
_ZERO, _HALF, _MINUS_ONE = map(constant, (0.0, 0.5, -1.0))


@dataclass(frozen=True)
class EncodedInput:
    """Model-ready view of one mention: indices, no embeddings.

    The (T, dim) input is the rows of the model's embedding matrix that
    ``rows`` picks, gathered by its forward, so an input sees the embeddings
    as they are then, fine-tuned ones included. Sequence models read
    forms/rows only, in order. The tree model also reads the children lists
    (positions, not token ids) of the dependency edges among the tokens, the
    root position, and the target position for the alternative readout.
    """

    forms: tuple[str, ...]
    rows: np.ndarray  # (T,) embedding row per position; -1 is the last (unk) row, none lower
    children: tuple[tuple[int, ...], ...] | None = None
    root_pos: int = 0
    target_pos: int = 0

    def __len__(self) -> int:
        return len(self.forms)

    def __post_init__(self):
        rows = self.rows
        if not (isinstance(rows, np.ndarray) and rows.shape == (len(self.forms),)
                and rows.dtype.kind in "iu"):
            got = (f"{rows.dtype} array of shape {rows.shape}" if isinstance(rows, np.ndarray)
                   else type(rows).__name__)
        elif min(rows.tolist(), default=0) < -1:  # numpy would read -2 as the last word's row
            got = f"row {rows.min()}"
        else:
            return
        raise ValueError(f"an input of {len(self.forms)} forms needs rows as a 1-D integer "
                         f"array of {len(self.forms)} entries, none below -1 (the unk row), "
                         f"got {got}")

    @cached_property
    def tree_levels(self) -> np.ndarray:
        """The tree's share of a level schedule, worked out in plain Python
        on first use and kept with the input, so that a batch of trees only
        lays its inputs' shares end to end and sorts them (see _schedule).

        A (6, T) int64 array with one column per position and one per edge:
        the T-1 edges in the order of the children lists, then a pad edge
        that sorts after every edge. A position's height is 0 for a leaf and
        one above its highest child otherwise.
        - Rows 0-1, per position: its key, height * 2**21 - fan-out (sorting
          by key sorts by height, most children first), and its embedding
          row.
        - Rows 2-5, per edge: its key, group * 2**21 - the parent's fan-out
          (sorting by key sorts the edges by level, then place, then the
          parent's key); its parent's and its child's position, counted
          from the edge's own column; its group, the parent's height *
          2**21 + the child's place in the parent's children list.
        Raises ValueError unless the children lists form one tree over all
        positions, rooted at root_pos."""
        T = len(self)
        children = self.children
        if children is None:
            raise ValueError("treelstm forward: input lacks tree structure")
        if len(children) != T:
            raise ValueError("tree input needs one children list per position")
        if T > 1 << _KEY_BITS:
            raise ValueError(f"tree input has more than {1 << _KEY_BITS} positions")
        positions = [*itertools.chain.from_iterable(children), self.root_pos, self.target_pos]
        if min(positions) < 0 or max(positions) >= T:
            raise ValueError("tree input has a position out of range")
        n_parents = [0] * T
        for k in positions[:-2]:
            n_parents[k] += 1
        one_parent_each = not n_parents[self.root_pos] and n_parents.count(1) == T - 1
        # top down from the positions no list names, each once all its
        # parents are reached: positions on or below a cycle never are
        topo = [v for v, n in enumerate(n_parents) if not n]
        for v in topo:
            for k in children[v]:
                n_parents[k] -= 1
                if not n_parents[k]:
                    topo.append(k)
        if len(topo) < T:
            raise ValueError("tree input contains a cycle")
        # without a cycle, one parent for every position but the root is one tree
        if not one_parent_each:
            raise ValueError("tree input does not span all positions with one parent each")
        height = [0] * T
        key = [0] * T  # a leaf's
        for v in reversed(topo):  # children first
            kids = children[v]
            if kids:
                height[v] = 1 + max(map(height.__getitem__, kids))
                key[v] = (height[v] << _KEY_BITS) - len(kids)
        group, edge_key, parents = [], [], []
        for v, kids in enumerate(children):  # edges in list order
            if kids:
                f = len(kids)
                start = height[v] << _KEY_BITS  # the group of the edge to its first child
                group += range(start, start + f)
                edge_key += range((start << _KEY_BITS) - f, ((start + f) << _KEY_BITS) - f,
                                  1 << _KEY_BITS)
                parents += [v] * f
        arrays = np.array([key, self.rows, [*edge_key, _PAD_KEY], [*parents, 0],
                           [*positions[:-2], 0], [*group, _PAD_KEY]], dtype=np.int64)
        arrays[3:5] -= np.arange(T)
        return arrays


def _windows(padded: np.ndarray) -> np.ndarray:
    """Every width-5 window of a C-contiguous (B, T, dim) batch, T >= 5, as
    one (B, T - 4, 5 * dim) strided view: window (b, s), positions s..s+4
    of input b, is the 5 * dim numbers from padded[b, s, 0] on. The last
    window ends at the array's last number."""
    B, T, D = padded.shape
    step = padded.itemsize
    return np.ndarray((B, T - FILTER_WIDTH + 1, FILTER_WIDTH * D), padded.dtype, padded, 0,
                      (T * D * step, D * step, step))


class CnnClassifier:
    """Width-5 convolution, rectifier, max-over-time pooling, linear output.

    Sequences shorter than the filter width are zero-padded on the right to
    one window. A batch runs as one im2col matmul over every input's
    windows, padded to the longest input. The im2col matrix is a strided
    view of the padded batch (_windows), which a matmul reads in place when
    each input has one window, as every input of up to 5 tokens does; with
    more windows per input, its rows are one copy. Windows past an input's
    own padded length are masked out of its max-pool. The pool is each
    filter's max; the backward pass routes a filter's gradient to the first
    window holding that max (argmax), through one flat index, and adds each
    window's input gradient back through the same view, window by window.
    """

    model_type = "cnn"

    def __init__(self, buffer: np.ndarray, vectors: np.ndarray, n_filters: int):
        self.params = ParamSet(param_shapes("cnn", vectors.shape[1], n_filters), buffer)
        self.vectors = vectors
        self.dim = vectors.shape[1]
        self.n_filters = n_filters

    def __reduce__(self):
        return CnnClassifier, (self.params.buffer, self.vectors, self.n_filters)

    def forward(self, batch: list[EncodedInput], drop_ratio: float = 0.0, drop_rng=None):
        if not batch:
            raise ValueError("cnn forward: empty batch")
        sizes = [len(inst.rows) for inst in batch]
        if not all(sizes):
            raise ValueError("cnn forward: empty sequence")
        p = self.params
        B, W, D, F = len(batch), FILTER_WIDTH, self.dim, self.n_filters
        T_max = max(W, *sizes)
        n_pos = T_max - W + 1
        present = np.arange(T_max) < np.array(sizes)[:, None]  # row-major: batch order
        Xp = np.zeros((B, T_max, D))
        Xp[present] = self.vectors[np.concatenate([inst.rows for inst in batch])]
        # im2col as a view (see _windows); its rows copy only when windows
        # overlap: with one window per input (n_pos 1) they are Xp itself
        windows = _windows(Xp).reshape(-1, W * D)
        act = windows @ p["Wconv"].T
        act += p["bconv"]
        np.maximum(act, _ZERO, out=act)  # np.maximum deprecates a positional out
        pool = act.reshape(B, n_pos, F)
        if max(W, min(sizes)) < T_max:
            # windows past an input's padded length never win its max-pool:
            # the rectifier is >= 0, so a masked -1 loses to any window
            valid = np.arange(n_pos) <= np.maximum(sizes, W)[:, None] - W
            pool = np.where(valid[:, :, None], pool, _MINUS_ONE)
        # each filter's largest rectified output; backward routes to the
        # first window that holds it
        pooled = np.maximum.reduce(pool, 1)
        pd, mask = dropout(pooled, drop_ratio, drop_rng)
        logits = pd @ p["Wy"]
        logits += p["by"]
        cache = (present, windows, pool, pooled, pd, mask)
        return logits, cache

    def backward(self, cache, dlogits: np.ndarray, input_grad: bool = False,
                 param_grads: bool = True) -> np.ndarray | None:
        _check_asked(input_grad, param_grads)
        present, windows, pool, pooled, pd, mask = cache
        p = self.params
        g_ = self.params.grads
        if param_grads:
            g_["Wy"] += pd.T @ dlogits
            g_["by"] += np.add.reduce(dlogits, 0)
        dpooled = (dlogits @ p["Wy"].T) * mask
        dpooled *= pooled > _ZERO  # the rectifier, at each filter's winning window
        # max routing: each filter's gradient reaches the first window that
        # holds its max only, through one flat index into dpre laid out
        # (B, F, n_pos); read as (B, n_pos, F) rows, it is a view when n_pos is 1
        B, n_pos, F = pool.shape
        at = pool.argmax(axis=1)
        at += np.arange(0, B * F * n_pos, n_pos).reshape(B, F)
        dpre = np.zeros((B, F, n_pos))
        dpre.reshape(-1)[at] = dpooled
        dpre = dpre.transpose(0, 2, 1).reshape(-1, F)
        if param_grads:
            g_["Wconv"] += dpre.T @ windows
            g_["bconv"] += np.add.reduce(dpre, 0)
        if not input_grad:
            return None
        dwindows = (dpre @ p["Wconv"]).reshape(B, n_pos, -1)
        dXp = np.zeros((B, present.shape[1], self.dim))
        # im2col's transpose: each window's gradient goes back onto the
        # positions it read, windows in order, so a position sums its
        # windows in window order
        dXp_windows = _windows(dXp)
        for s in range(n_pos):
            dXp_windows[:, s] += dwindows[:, s]
        return dXp[present]


class TreeLstmClassifier:
    """Child-sum tree-LSTM; model_type "lstm" runs the same cell on a chain.

    The fused W, U and b hold the gates in columns u, i, o, f; the forward
    pass stores them gate-major, as one (4, nodes, hidden) array. Gates u,
    i, o read the sum of children hidden states; each child k gets its own
    forget gate f_k = sigmoid(x W_f + h_k U_f + b_f), from the f columns. Under
    "treelstm" the dependency tree over the input's tokens (the mention's
    dependency chain or the whole sentence) is read at the root node by
    default; readout="target" reads the mention node. Under "lstm" the input
    is a left-to-right chain (position t's only child is t-1), the last
    position is read out, and the forget bias starts at 1. This is the
    standard LSTM: with one child the child sum is the previous hidden state
    (Tai, Socher & Manning 2015).

    A batch runs level by level: every node of every input is sorted by
    height (on a chain, its position), so one level is a contiguous row
    range whose children are all on lower levels, and each level costs a few
    matmuls whatever the batch size. The loop branches per level on what the
    level's nodes have below them:
    - nothing (the leaves);
    - one child each (every chain level but the first, and tree levels such
      as the nodes of a path): all four gates are one matmul h_child @ U
      and one tanh. On a chain, inputs are laid out longest first, so level
      t's children are the first rows of level t-1 in the same order: a
      slice, read and written as a view;
    - otherwise: each edge has its own forget-gate row. A level's nodes are
      laid out most children first and its edges by place in the children
      list, so the k-th children of all nodes that have one are a slice of
      the edges and their parents a prefix of the level: a child sum adds
      the children in list order, one slice per place (one block for the
      places every node has).
    A level's pre-activations are node-major, its rows of the input terms
    plus its children's matmul: k gates of hidden columns per node, k 4 on
    a one-child level and 3 (u, i, o) on the others. The elementwise work,
    the sigmoids' halving into the one tanh included, then runs on one
    C-contiguous (k, rows, hidden) block, since an op on a column slice
    costs several times as much: a level of several rows gets the block by
    one transposed copy and stores it into the gates by another; a one-row
    level's row already is that block, so it works on a view, and the gates
    of all one-row levels are gathered into the gate array by the backward
    pass, as a prediction alone never reads them.
    The readout takes np.dot, which gives @'s bits without its ufunc
    dispatch and was never the slower at a row count measured. Every other
    product stays on @: a level's rows are at most the batch size and the
    input terms' one per node, and past about 60 rows np.dot is the
    slower.
    The backward pass pushes each level's gradients into its children's
    rows, top level first, whichever gradients are asked for. It ends, when
    asked for the parameter gradients, in one matmul for those of W and b
    over every node's x and 1 and one for U over the nodes that read a
    child, the leaves not (trees add the same two over the edge rows),
    each added into its rows of the gradient block; and, when asked for
    the input gradient, in one for it. Only trees keep child sums and
    per-edge arrays from the forward pass: a chain's child sums are its
    single children's hidden states, read from h.

    A batch of trees builds its schedule from what each input works out
    once and keeps (EncodedInput.tree_levels): sort keys for its positions
    and its edges, its edges and its embedding rows. The batch lays these
    arrays end to end and sorts its node keys and its edge keys once each,
    however many trees it holds. A chain's schedule follows from the
    inputs' lengths alone, so it is worked out once per length profile and
    memoised (_chain_schedule): serving one mention at a time, or repeating
    a pass, reuses it. A batch of trees is not memoised: its schedule
    follows from the trees' shapes, which inputs of equal lengths need not
    share.
    """

    def __init__(self, buffer: np.ndarray, vectors: np.ndarray, hidden: int,
                 model_type: str = "treelstm", readout: str = "root"):
        if model_type not in ("lstm", "treelstm"):
            raise ValueError(f"unknown model type {model_type!r}")
        if readout not in ("root", "target"):
            raise ValueError(f"readout must be 'root' or 'target', got {readout!r}")
        self.params = params = ParamSet(param_shapes(model_type, vectors.shape[1], hidden), buffer)
        self.vectors = vectors
        self.hidden = H = hidden
        self.model_type = model_type
        self.readout = readout
        # W, U and b lie back to back: one (dim + hidden + 1, 4 hidden) block
        # of values and one of gradients, with gate columns u, i, o, f
        size = (vectors.shape[1] + H + 1) * 4 * H
        self._block, self._grad_block = (flat[:size].reshape(-1, 4 * H)
                                         for flat in (params.buffer, params.grad_buffer))

    def __reduce__(self):
        return TreeLstmClassifier, (self.params.buffer, self.vectors, self.hidden,
                                    self.model_type, self.readout)

    def _schedule(self, batch: list[EncodedInput]):
        """Level schedule of a batch over its N nodes, in sorted order.

        Returns (x_rows, rank, levels, read, single, multi).
        - x_rows: the embedding row of each node; rank: the sorted index of
          each node, counting over the inputs laid end to end, or None for
          one chain, whose nodes are in order; read: the sorted index of
          each input's readout node.
        - levels: (start, stop, kids, edges) per height, leaves first. On a
          level where each node has one child, kids holds those children:
          a slice on a chain, else an index array. On a level with more,
          edges is (e0, e1, children, node, places): the level's rows e0:e1
          of the batch's edge list, their children, each edge's node counted
          from the level's first, and where each place of the children lists
          lies among them (see _child_sum). Both are None on the leaf level.
        - single: (rows, kids) over every node that has one child; None on a
          batch of trees where no level has one child per node. On chains
          rows is a slice (see _chain_schedule).
        - multi: None unless some level has edges, else (children, parents)
          of every edge.
        Chains: everything but x_rows follows from the inputs' lengths and
        comes from _chain_schedule, memoised per length profile; the rows
        never enter the memo, and a batch of one reads its input's as they
        are. Trees: the nodes sort by their inputs' node keys (height, then
        most children first, then batch order); _tree_schedule sorts the
        edges by their keys and counts each level's edges at each place.
        """
        if not batch:
            raise ValueError(f"{self.model_type} forward: empty batch")
        sizes = tuple(len(inst.rows) for inst in batch)
        if not all(sizes):
            raise ValueError(f"{self.model_type} forward: empty sequence")
        if self.model_type == "lstm":
            order, rank, levels, read, single = _chain_schedule(sizes)
            x_rows = (batch[0].rows if order is None  # a batch of one, in its own order
                      else np.concatenate([inst.rows for inst in batch])[order])
            return x_rows, rank, levels, read, single, None
        arrays = np.concatenate([inst.tree_levels for inst in batch], axis=1)
        # by height, most children first, ties in batch order
        order = arrays[0].argsort(kind="stable")
        index = np.arange(len(order))
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = index
        starts = [0, *itertools.accumulate(sizes[:-1])]
        read = [s + (inst.root_pos if self.readout == "root" else inst.target_pos)
                for s, inst in zip(starts, batch)]
        levels, single, multi = _tree_schedule(arrays, index, rank, len(batch))
        return arrays[1][order], rank, levels, rank[read], single, multi

    def forward(self, batch: list[EncodedInput], drop_ratio: float = 0.0, drop_rng=None):
        schedule = self._schedule(batch)
        x_rows, _, levels, read, _, multi = schedule
        p = self.params
        N, D, H = len(x_rows), self.vectors.shape[1], self.hidden
        U = self._block[D:-1]
        X = self.vectors[x_rows]
        # input terms of every node at once; each level adds its children's
        # terms to its rows, which then hold its pre-activations
        z = X @ self._block[:D] + self._block[-1]
        gates = np.empty((4, N, H))  # u, i, o, f; f only for a single child
        c = np.empty((N, H))
        h = np.empty((N, H))
        tanh_c = np.empty((N, H))
        # child sums of a tree's nodes, which backward fills in for the single
        # children; a chain's are all single, read by backward from h
        h_in = None if self.model_type == "lstm" else np.zeros((N, H))
        f_edge = h_edge = None
        if multi is not None:
            # forget gate and child's hidden state per edge; zero on one-child
            # levels, which keep them in the node rows
            f_edge = np.zeros((len(multi[0]), H))
            h_edge = np.zeros((len(multi[0]), H))
            x_f = z[multi[1], 3 * H :]  # the forget gate's input term of each edge's parent
        one_row = []  # levels of one node, whose gates stay in their rows of z
        for a, b, kids, edges in levels:
            # gates u, i, o, and a node's own forget gate only with one child
            k = 3 if kids is None else 4
            pre = z[a:b, : k * H]
            if kids is not None:
                np.add(h[kids] @ U, pre, pre)
            elif edges is not None:
                e0, e1, kids_e, node, places = edges
                h_kids = h.take(kids_e, 0, h_edge[e0:e1])
                h_sum = _child_sum(h_kids, places, h_in[a:b])
                np.add(h_sum @ U[:, : 3 * H], pre, pre)
                g_f = np.matmul(h_kids, U[:, 3 * H :], f_edge[e0:e1])
                g_f += x_f[e0:e1]
                g_f *= _HALF
                np.tanh(g_f, g_f)
                g_f *= _HALF
                g_f += _HALF
            # the level's gates as one C-contiguous (k, rows, H) block, so that
            # no op below runs on a column slice: a one-row level's row
            # already is that block, so it works in z itself
            if b - a == 1:
                g = pre.reshape(k, 1, H)
                one_row.append(a)
            else:
                g = pre.reshape(b - a, k, H).transpose(1, 0, 2).copy()
            # sigmoid(x) = 0.5 tanh(x/2) + 0.5: one tanh serves the level's
            # gates, the sigmoids halved (exactly) going in, scaled and shifted out
            sigmoids = g[1:]
            sigmoids *= _HALF
            np.tanh(g, g)
            sigmoids *= _HALF
            sigmoids += _HALF
            c_level = np.multiply(g[1], g[0], c[a:b])
            if kids is not None:
                c_level += g[3] * c[kids]
            elif edges is not None:
                c_level += _child_sum(g_f * c[kids_e], places, np.empty((b - a, H)))
            np.multiply(g[2], np.tanh(c_level, tanh_c[a:b]), h[a:b])
            if b - a > 1:
                gates[:k, a:b] = g
        hd, mask = dropout(h[read], drop_ratio, drop_rng)
        logits = np.dot(hd, p["Wy"])
        logits += p["by"]
        cache = (schedule, X, z, one_row, h_in, gates, f_edge, h_edge, c, tanh_c, h, hd, mask)
        return logits, cache

    def backward(self, cache, dlogits: np.ndarray, input_grad: bool = False,
                 param_grads: bool = True) -> np.ndarray | None:
        _check_asked(input_grad, param_grads)
        schedule, X, z, one_row, h_in, gates, f_edge, h_edge, c, tanh_c, h, hd, mask = cache
        _, rank, levels, read, single, multi = schedule
        p = self.params
        N, D, H = len(h), self.vectors.shape[1], self.hidden
        if one_row:
            # the one-row levels' gates, left in their rows of z. A chain
            # batch's are its last levels: a slice, which reads and writes
            # without building an index array
            first, last = one_row[0], one_row[-1]
            rows = slice(first, last + 1) if last - first == len(one_row) - 1 else one_row
            gates[:, rows] = z[rows].reshape(-1, 4, H).transpose(1, 0, 2)
        if param_grads:
            p.grads["Wy"] += hd.T @ dlogits
            p.grads["by"] += np.add.reduce(dlogits, 0)
        # in the gate columns u, i, o, f, the pre-activation gradient of a
        # node is its (dc, dc, dh, dc) times these factors; the derivatives
        # are s(1-s) and 1-tanh^2, and the forget column is zero unless the
        # node has a single child. The gates are stored gate by gate, so
        # every product below runs on contiguous arrays, and the factors are
        # laid side by side once. Forward stored h = o tanh(c), so
        # (tanh(c) o)(1-o) is h (1-o)
        u, i, o, f = gates
        f_i = np.multiply(u, i)
        f_i *= ONE - i
        f_o = np.subtract(ONE, o)
        f_o *= h
        f_u = np.multiply(u, u)
        np.subtract(ONE, f_u, f_u)
        f_u *= i
        f_f = np.zeros((N, H))
        if single is not None:  # a node with one child reads it through its own row
            rows, children = single
            if param_grads and h_in is not None:  # a tree's U gradient reads it as the child sum
                h_in[rows] = h[children]
            f_single = f[rows]
            f_f[rows] = c[children] * f_single * (ONE - f_single)
        factor = np.concatenate([f_u, f_i, f_o, f_f], 1)
        out_factor = o * (ONE - tanh_c * tanh_c)  # dc of a node per unit of its dh
        if multi is not None:
            edge_factor = c[multi[0]] * f_edge * (ONE - f_edge)
            dz_edge = np.zeros(f_edge.shape)  # forget pre-activation gradient per edge
        dh = np.zeros((N, H))
        dh[read] = (dlogits @ p["Wy"].T) * mask
        dc = np.zeros((N, H))  # set by the parent (a root's stays 0), then the node's total
        dz = np.empty((N, 4 * H))  # pre-activation gradients per node
        U_T = self._block[D:-1].T
        for a, b, kids, edges in reversed(levels):  # parents before children
            dh_level, dc_level = dh[a:b], dc[a:b]
            dc_level += dh_level * out_factor[a:b]
            dz_level = np.concatenate([dc_level, dc_level, dh_level, dc_level], 1, dz[a:b])
            dz_level *= factor[a:b]
            if kids is not None:
                dh[kids] += dz_level @ U_T
                dc[kids] = dc_level * f[a:b]
            elif edges is not None:
                e0, e1, kids_e, node, places = edges
                dc_edge = dc_level[node]
                dz_f = np.multiply(dc_edge, edge_factor[e0:e1], dz_edge[e0:e1])
                dh[kids_e] += (dz_level[:, : 3 * H] @ U_T[: 3 * H])[node] + dz_f @ U_T[3 * H :]
                dc[kids_e] = dc_edge * f_edge[e0:e1]
        if param_grads:
            # the rows of W and b: x and 1 of every node times its dz; of U:
            # the child sum, which leaves (the first level's rows) do not
            # have and a chain's other nodes read as their one child's h.
            # Each part is added into its rows of the block: no block-sized sum
            grad = self._grad_block
            n_leaves = levels[0][1]
            h_sum = h[single[1]] if h_in is None else h_in[n_leaves:]
            X = np.concatenate([X, np.ones((N, 1))], 1)  # x and 1 of every node
            grad_x = X.T @ dz
            grad[:D] += grad_x[:D]
            grad[D:-1] += h_sum.T @ dz[n_leaves:]
            grad[-1:] += grad_x[D:]
            if multi is not None:
                # an edge's forget gate reads its parent's x and 1 and its own child's h
                grad_x = X[multi[1]].T @ dz_edge
                grad_f = grad[:, 3 * H :]
                grad_f[:D] += grad_x[:D]
                grad_f[D:-1] += h_edge.T @ dz_edge
                grad_f[-1:] += grad_x[D:]
        if not input_grad:
            return None
        if multi is not None:  # x of a node with several children feeds each edge's forget gate
            for a, b, _, edges in levels:
                if edges is not None:
                    e0, e1, _, _, places = edges
                    dz[a:b, 3 * H :] += _child_sum(dz_edge[e0:e1], places, np.empty((b - a, H)))
        dX = dz @ self._block[:D].T
        return dX if rank is None else dX[rank]


def _check_asked(input_grad: bool, param_grads: bool) -> None:
    if not (input_grad or param_grads):
        raise ValueError("backward: asked for neither the input nor the parameter gradients")


def _child_sum(rows: np.ndarray, places, out: np.ndarray) -> np.ndarray:
    """Per node of an edge level, the sum of ``rows`` (one per edge) over its
    children, into ``out``, adding the children in list order. ``places``
    is (full, rest): the first ``full`` places, which every node has, are
    one (full, nodes) block of rows; each (start, count) of ``rest`` adds a
    later place's rows to the first count nodes."""
    full, rest = places
    if full == 1:  # the same numbers as a one-place reduce, at a third of its cost
        out[...] = rows[: len(out)]
    else:
        np.add.reduce(rows[: full * len(out)].reshape(full, len(out), -1), axis=0, out=out)
    for start, count in rest:
        out[:count] += rows[start : start + count]
    return out


# distinct length profiles kept. One cross-validation pass of 16-window
# batches meets about two dozen (training batches ending at a sentence edge,
# test batches, the short last batch), and serving one mention at a time
# meets one per window length, so 64 holds a pass with room while repeated
# passes hit; shuffled chains of many lengths rarely repeat a profile, so a
# larger memo would hold memory (about 32 bytes per node of each profile)
# for few hits
_CHAIN_MEMO_SIZE = 64


@lru_cache(maxsize=_CHAIN_MEMO_SIZE)
def _chain_schedule(lengths: tuple[int, ...]):
    """order, rank, levels, read and single of TreeLstmClassifier._schedule
    for a batch of chains of these lengths, with order the node at each
    sorted place, counting over the inputs laid end to end. Order and rank
    are None for one input, whose nodes keep their order. Single's rows are
    a slice, and so are its children when the inputs have equal lengths. It
    follows from the lengths alone, so it is memoised per length profile;
    every array is read-only and levels is a tuple, since one result serves
    every batch of that profile."""
    sizes = np.array(lengths)
    ends = sizes.cumsum()
    starts = ends - sizes
    # longest input first (stable): a level's r-th node is a position of the
    # r-th longest input, and its child is the r-th node of the level below
    by_length = (-sizes).argsort(kind="stable")
    ordered = sizes[by_length]
    present = np.arange(ordered[0])[:, None] < ordered  # (level, input)
    order = (starts[by_length] + np.arange(ordered[0])[:, None])[present]
    counts = present.sum(axis=1)
    bounds = [0, *counts.cumsum().tolist()]
    levels = ((0, bounds[1], None, None),
              *((a, b, slice(k, k + b - a), None)
                for k, a, b in zip(bounds, bounds[1:], bounds[2:])))
    N, B = bounds[-1], len(lengths)
    if B == 1:  # one input is its own order
        order = rank = None
        read = np.array([N - 1])
    else:
        rank = np.empty(N, dtype=np.int64)
        rank[order] = np.arange(N)
        read = rank[ends - 1]
    # every node above the leaves has one child, the node at its place one level down
    children = (slice(0, N - B) if ordered[-1] == ordered[0]  # levels of B nodes each
                else np.arange(B, N) - counts[:-1].repeat(counts[1:]))
    for array in (order, rank, read, children):
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return order, rank, levels, read, (slice(B, N), children)


def _tree_schedule(arrays: np.ndarray, index: np.ndarray, rank: np.ndarray, n_trees: int):
    """levels, single and multi of TreeLstmClassifier._schedule for a batch
    of n_trees trees, from their inputs' tree_levels laid end to end, each
    column's index and the sorted index of each node.

    One stable sort of the edge keys orders the batch's edges by level,
    place and parent: the nodes of a level are sorted most children first,
    so the parents at each place are a prefix of the level. The runs of
    equal groups then count each level's edges at each place, and a level
    whose edges are as many as its nodes has one child per node."""
    E = len(rank) - n_trees  # the pads, one per tree, sort last
    by_key = arrays[2].argsort(kind="stable")
    parent, child = rank[(arrays[3:5] + index)[:, by_key[:E]]]
    group = arrays[5][by_key[: E + 1]]  # the edges' groups, then a pad's
    runs = [0, *(np.flatnonzero(group[1:] != group[:-1]) + 1).tolist()]  # where each starts
    counts = []  # per level above the leaves, its edges at each place
    for start, stop, code in zip(runs, runs[1:], group[runs].tolist()):
        if not code & _PLACE_MASK:
            counts.append([])
        counts[-1].append(stop - start)
    a = len(rank) - sum(per_place[0] for per_place in counts)  # every parent has a first child
    levels = [(0, a, None, None)]
    single = []
    multi = None
    e0 = 0
    for per_place in counts:
        b = a + per_place[0]
        e1 = e0 + sum(per_place)
        # as many edges as nodes means one child each
        if e1 - e0 == b - a:
            levels.append((a, b, child[e0:e1], None))
            single.append(slice(e0, e1))
        else:
            full = per_place.count(b - a)  # the counts never grow from place to place
            rest = list(zip(itertools.accumulate(per_place, initial=0), per_place))[full:]
            levels.append((a, b, None, (e0, e1, child[e0:e1], parent[e0:e1] - a, (full, rest))))
            multi = (child, parent)
        a, e0 = b, e1
    if single:
        single = tuple(np.concatenate([ends[s] for s in single]) for ends in (parent, child))
    return levels, single or None, multi


MODEL_TYPES = ("lstm", "cnn", "treelstm")


def build_model(model_type: str, vectors: np.ndarray, hidden: int,
                rng: np.random.Generator, tree_readout: str = "root"):
    """Initialize a fresh classifier over the embedding matrix ``vectors``
    (held, not copied); hidden doubles as the CNN filter count. One draw
    holds the numbers of one draw per matrix in init order; the recurrent
    cell's is W, U and b of the gates i, f, o, u in turn, then Wy and by. A
    gate's W, U and b are one (dim + hidden + 1, hidden) block, and the four
    side by side in the order u, i, o, f are the buffer's block of W, U and
    b. TrainingError when the parameters cannot be allocated."""
    dim = vectors.shape[1]
    size = sum(map(math.prod, param_shapes(model_type, dim, hidden).values()))
    try:
        flat = uniform_init(rng, size)
        if model_type != "cnn":
            gates = flat[: 4 * (dim + hidden + 1) * hidden].reshape(4, -1, hidden)  # i, f, o, u
            if model_type == "lstm":
                gates[1, -1] = 1.0  # the forget gate's b: the standard bias, helps long gaps
            flat[: gates.size] = np.hstack([gates[3], gates[0], gates[2], gates[1]]).ravel()
    except (ValueError, MemoryError):  # numpy: "array is too big", or out of memory
        raise TrainingError(f"cannot allocate {model_type} parameters with hidden {hidden} "
                            f"over dim {dim}") from None
    return restore_model(model_type, flat, vectors, hidden, tree_readout)


def param_shapes(model_type: str, dim: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """Parameter names and shapes of a model in init order, without
    allocating it; hidden doubles as the CNN filter count."""
    if model_type == "cnn":
        return {"Wconv": (hidden, FILTER_WIDTH * dim), "bconv": (hidden,),
                "Wy": (hidden, N_CLASSES), "by": (N_CLASSES,)}
    return {"W": (dim, 4 * hidden), "U": (hidden, 4 * hidden), "b": (4 * hidden,),
            "Wy": (hidden, N_CLASSES), "by": (N_CLASSES,)}


def check_param_memory(model_type: str, dim: int, hidden: int, copies: int) -> None:
    """TrainingError, before anything is allocated, when ``copies`` float64
    arrays the size of a model's parameters would not fit in physical
    memory: training holds four (values, gradients and RMSProp's two
    buffers). The bytes are counted with Python ints; where os.sysconf cannot
    tell the memory size, nothing is checked."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return
    need = copies * 8 * sum(map(math.prod, param_shapes(model_type, dim, hidden).values()))
    if physical > 0 and need > physical:
        raise TrainingError(f"cannot allocate {model_type} parameters with hidden {hidden} "
                            f"over dim {dim}: {copies} copies need {need / 2**30:.1f} GiB, "
                            f"the machine has {physical / 2**30:.1f} GiB")


def restore_model(model_type: str, buffer: np.ndarray, vectors: np.ndarray, hidden: int,
                  tree_readout: str = "root"):
    """A model_type classifier over ``buffer``, its flat float64 parameters
    in param_shapes order (read and updated in place), and the embedding
    matrix ``vectors``; hidden doubles as the CNN filter count."""
    if model_type == "cnn":
        return CnnClassifier(buffer, vectors, hidden)
    return TreeLstmClassifier(buffer, vectors, hidden, model_type, tree_readout)


def model_loss(model, batch: list[EncodedInput], golds, drop_ratio: float = 0.0,
               drop_rng=None, input_grad: bool = False):
    """Forward + cross-entropy + backward over a batch. Returns (losses, probs,
    dX): (B,) losses, (B, 3) probabilities and, when ``input_grad`` asks for
    it, the batch's input gradient, one (sum of lengths, dim) array in batch
    order; otherwise dX is None and the backward pass skips that work. The
    parameter gradients are the same either way.

    Accumulates the gradient of the summed loss into model.params without
    zeroing first, so callers can average over a batch.
    """
    logits, cache = model.forward(batch, drop_ratio, drop_rng)
    losses, probs, dlogits = softmax_xent(logits, golds)
    return losses, probs, model.backward(cache, dlogits, input_grad)


def predict(model, batch: list[EncodedInput]):
    """One forward pass without dropout: (labels, logits, cache), labels the rows'
    argmax (lowest index on ties). NonFiniteError names the first non-finite row."""
    logits, cache = model.forward(batch)
    if not np.isfinite(logits).all():
        raise NonFiniteError(int(np.argmin(np.isfinite(logits).all(axis=1))))
    return logits.argmax(1), logits, cache


def classify(model, inst: EncodedInput) -> tuple[TemporalStatus, np.ndarray]:
    """predict over a batch of one: the label and its (3,) probabilities,
    softmax_xent's (np.exp of log_softmax) over the logits predict has
    checked, with no loss formed."""
    labels, logits, _ = predict(model, [inst])
    return STATUSES[labels[0]], np.exp(log_softmax(logits)[0])


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

    The inputs have about half of `length`, 1 and `length` positions, in
    that order (trees of different shapes): levels and CNN windows span
    several inputs, and the recurrent cell's longest-first layout reorders
    them.
    Default length: 9 for the CNN (several pooling positions; the shorter
    inputs are padded), 5 for the recurrent models (deeper inputs shrink the
    verifiable gradient range). TrainingError when the model or its inputs
    cannot be allocated.
    """
    if length is None:
        length = 9 if model_type == "cnn" else 5
    check_param_memory(model_type, dim, hidden, copies=2)  # values and gradients
    rng = np.random.default_rng(seed)
    lengths = ((length + 1) // 2, 1, length)
    try:
        vectors = np.empty((sum(lengths), dim))
    except (ValueError, MemoryError):  # numpy: "array is too big", or out of memory
        raise TrainingError(f"cannot allocate {sum(lengths)} input vectors of dim {dim}") from None
    # rng draws the parameters first, then the inputs' rows of this matrix
    model = build_model(model_type, vectors, hidden, rng)
    batch = random_batch(model_type, vectors, lengths, rng)
    golds = rng.integers(0, N_CLASSES, size=len(batch))

    def loss_fn():
        losses, _, _ = model_loss(model, batch, golds)
        return float(losses.sum())

    return grad_check(loss_fn, model.params)
