"""In-memory span tracer that wraps depchain's public functions in place.

A span is (name, start, end, parent). Installing the tracer replaces every
binding of each target function inside the depchain package, so a call is
seen whichever module made it: ``depchain.harness.model_loss`` and
``depchain.saliency.model_loss`` are one function bound in two modules, and
both bindings are wrapped. Methods (``RmsProp.step``, the models' ``forward``
and ``backward``) are replaced on their class. ``uninstall`` puts every
original back and reports whether each binding really is the original again.

Targets that no longer exist in the program are skipped and listed in
``missing``, so the benchmark keeps running after a refactor renames them.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

# (span name, defining module, function name). Two functions may share a span
# name when together they are one layer's job (chain vs window extraction).
FUNCTIONS = (
    ("corpus.parse_conllu", "depchain.corpus", "parse_conllu"),
    ("corpus.load_events", "depchain.corpus", "load_events"),
    ("corpus.index_sentences", "depchain.corpus", "index_sentences"),
    ("chain.extract", "depchain.chain", "extract_chain"),
    ("chain.extract", "depchain.chain", "extract_window"),
    ("nncore.softmax_xent", "depchain.nncore", "softmax_xent"),
    ("nncore.load_checkpoint", "depchain.nncore", "load_checkpoint"),
    ("models.model_loss", "depchain.models", "model_loss"),
    ("models.classify", "depchain.models", "classify"),
    ("harness.encode_input", "depchain.harness", "encode_input"),
    ("harness.train", "depchain.harness", "train"),
    ("harness.evaluate", "depchain.harness", "evaluate"),
    ("harness.cross_validate", "depchain.harness", "cross_validate"),
    ("harness.load_trained", "depchain.harness", "load_trained"),
    ("saliency.compute", "depchain.saliency", "compute_saliency"),
    ("saliency.emit", "depchain.saliency", "emit_heatmap"),
)

# (span name, defining module, class name, method name)
METHODS = (
    ("nncore.rmsprop", "depchain.nncore", "RmsProp", "step"),
    ("nncore.embed", "depchain.nncore", "EmbeddingTable", "embed"),
)

# The only spans of an untraced cv run: the fold boundary, to time folds.
FOLD_SPANS = ("harness.train", "harness.evaluate")


def _instances(x) -> tuple[int, int]:
    """(instances, tokens) of a model input: one EncodedInput or a batch."""
    if hasattr(x, "forms"):
        return 1, len(x)
    if isinstance(x, (list, tuple)):
        return len(x), sum(len(i) for i in x)
    return 1, 0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _measure_forward(args, kwargs, result):
    return _instances(_arg(args, kwargs, 1, "inst"))


def _measure_backward(args, kwargs, result):
    dlogits = np.asarray(_arg(args, kwargs, 2, "dlogits"))
    return (dlogits.shape[0] if dlogits.ndim == 2 else 1), 0


def _measure_parse(args, kwargs, result):
    return len(result), 0


MEASURES = {
    "models.forward": _measure_forward,
    "models.backward": _measure_backward,
    "corpus.parse_conllu": _measure_parse,
}


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _model_methods():
    """forward/backward of every classifier class the models module defines."""
    models = _module("depchain.models")
    out = []
    if models is None:
        return out
    for cls in vars(models).values():
        if isinstance(cls, type) and cls.__module__ == models.__name__:
            for method in ("forward", "backward"):
                if method in vars(cls):
                    out.append((f"models.{method}", cls, method))
    return out


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "depchain" or name.startswith("depchain."))]


class Tracer:
    """Records spans of the selected targets between install and uninstall.

    Spans from several install/uninstall rounds accumulate; ``mark_pass``
    closes one round of work so per-pass figures can be derived.
    """

    def __init__(self, only: tuple[str, ...] | None = None):
        self.only = only
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items: dict[str, int] = {}
        self.tokens: dict[str, int] = {}
        self.encode_keys: list[set] = [set()]
        self.passes: list[tuple[int, int, float, float]] = []  # (first, end span, t0, t1)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._pass_first = 0

    # -- wrapping -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, span: str, fn):
        nid = self._name_id(span)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        measure = MEASURES.get(span)
        items, tokens = self.items, self.tokens
        keys = self.encode_keys if span == "harness.encode_input" else None

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if measure is not None:
                n, t = measure(args, kwargs, result)
                items[span] = items.get(span, 0) + n
                tokens[span] = tokens.get(span, 0) + t
            if keys is not None:
                m = _arg(args, kwargs, 1, "mention")
                keys[-1].add((m.doc_id, m.sent_id, m.token_id))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _targets(self):
        """(span, owner, attribute, original) for every binding to replace."""
        out = []
        modules = _package_modules()
        for span, modname, attr in FUNCTIONS:
            if self.only is not None and span not in self.only:
                continue
            original = getattr(_module(modname), attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        out.append((span, mod, name, original))
        methods = [(span, getattr(_module(m), c, None), meth)
                   for span, m, c, meth in METHODS] + _model_methods()
        for span, cls, meth in methods:
            if self.only is not None and span not in self.only:
                continue
            if cls is None or meth not in vars(cls):
                self.missing.append(f"{span}:{meth}")
                continue
            out.append((span, cls, meth, vars(cls)[meth]))
        return out

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.missing = []
        wrappers: dict[tuple[str, int], object] = {}
        for span, owner, attr, original in self._targets():
            key = (span, id(original))
            if key not in wrappers:
                wrappers[key] = self._wrap(span, original)
            setattr(owner, attr, wrappers[key])
            self._patched.append((owner, attr, original))

    def uninstall(self) -> bool:
        """Restore every replaced binding; True when all are the originals."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        ok = all(vars(owner)[attr] is original for owner, attr, original in self._patched)
        self._patched = []
        return ok

    def mark_pass(self, t0: float, t1: float) -> None:
        """Close one pass of work that ran from clock time t0 to t1."""
        self.passes.append((self._pass_first, len(self.start), t0, t1))
        self._pass_first = len(self.start)
        self.encode_keys.append(set())

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        def view(arr, dtype):
            return np.frombuffer(arr, dtype=dtype) if len(arr) else np.zeros(0, dtype)

        return (view(self.name, np.int32), view(self.parent, np.int32),
                view(self.start, np.float64), view(self.end, np.float64))

    def table(self, i: int) -> "Table":
        """The spans of pass i, times in seconds from the pass start."""
        name, parent, start, end = self.arrays()
        lo, hi, t0, t1 = self.passes[i]
        par = parent[lo:hi].astype(np.int64) - lo
        par[parent[lo:hi] < lo] = -1
        return Table(names=self.names, name=name[lo:hi].copy(), parent=par,
                     start=start[lo:hi] - t0, end=end[lo:hi] - t0, total=t1 - t0)

    def write(self, path) -> None:
        """Save every span as columns: name (index into names), parent, start,
        end; passes as rows of (first span, end span, start, end)."""
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            start=start, end=end, passes=np.array(self.passes))


@dataclass
class Table:
    """Spans of one pass, times in seconds from the pass start."""

    names: list[str]
    name: np.ndarray
    parent: np.ndarray  # row of the parent span, -1 for spans the benchmark called
    start: np.ndarray
    end: np.ndarray
    total: float  # the pass's length

    def rows(self, span: str) -> np.ndarray:
        if span not in self.names:
            return np.zeros(0, np.int64)
        return np.flatnonzero(self.name == self.names.index(span))

    def durations(self) -> np.ndarray:
        return self.end - self.start

    def self_times(self) -> np.ndarray:
        dur = self.durations()
        child = np.zeros_like(dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], dur[has_parent])
        return dur - child

    def fold_times(self) -> list[float]:
        """Each train span to the end of the next evaluate span under the same
        parent: cross_validate runs a fold as train, then evaluate."""
        train, evaluate = set(self.rows("harness.train")), set(self.rows("harness.evaluate"))
        open_train: dict[int, float] = {}
        out = []
        for i in sorted(train | evaluate):
            p = int(self.parent[i])
            if i in train:
                open_train[p] = float(self.start[i])
            elif p in open_train:
                out.append(float(self.end[i]) - open_train.pop(p))
        return out
