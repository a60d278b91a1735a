"""Deterministic numeric core: parameters, losses, dropout, RMSProp, checks.

Everything runs on 64-bit numpy arrays. Desk scale makes the memory cost
irrelevant and keeps finite-difference gradient checks tight.

Allocator policy: a training step allocates and frees the same few hundred
KiB of arrays every time. By default glibc hands the freed top of the heap
back to the kernel once more than 128 KiB of it is free, and serves larger
blocks from mmap, so the next step faulted every page back in, one at a time
(thousands of minor faults per cross-validation pass of the tree-LSTM bench
workload). On glibc only, importing this module fixes the trim threshold at
HEAP_TRIM_THRESHOLD and the mmap threshold at HEAP_MMAP_THRESHOLD; setting
either turns off glibc's adaptive mmap threshold, so both are set. The
process then keeps up to HEAP_TRIM_THRESHOLD of freed heap for reuse. No
arithmetic changes, so every result is the same.

Thread policy: numpy's bundled OpenBLAS starts one thread per core and, at
the default sizes (hidden 300, dim 300), splits a product across them,
which rounds differently for another thread count: the same command wrote
different checkpoints under one and two threads. Importing this module
therefore sets that OpenBLAS to one thread, through the thread-count call
the library exports (found by name; environment variables are read only
when the library loads, which numpy has done by then). Where numpy's
wheel vendors no OpenBLAS, or the call has another name, nothing is set;
blas_info reports what was found and the thread count in effect.
Parallelism comes from cross-validation's worker processes alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import math
import operator
import os
import platform
import re

import numpy as np

from .errors import CheckpointError, EmbeddingError

__all__ = [
    "ParamSet",
    "softmax_xent",
    "RmsProp",
    "grad_check",
    "EmbeddingTable",
    "load_embeddings",
    "write_embeddings",
    "random_embeddings",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT_VERSION = 4

HEAP_TRIM_THRESHOLD = 64 << 20  # freed heap the process may keep, at most
HEAP_MMAP_THRESHOLD = 16 << 20  # smaller blocks come from the heap
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters in glibc's malloc.h


def _keep_freed_heap() -> None:
    """Fix glibc's trim and mmap thresholds (see the module docstring);
    other C libraries are left alone."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)


_keep_freed_heap()

# the thread-count calls of a vendored OpenBLAS, whose names vary by build
_BLAS_THREAD_CALLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                      "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _thread_call(lib: ctypes.CDLL, verb: str, argtypes: tuple, restype):
    """lib's "set" or "get" thread-count call under the first of
    _BLAS_THREAD_CALLS it exports, typed; None when it exports none."""
    for call in _BLAS_THREAD_CALLS:
        if hasattr(lib, call.format(verb)):
            function = getattr(lib, call.format(verb))
            function.argtypes, function.restype = argtypes, restype
            return function
    return None


def _pin_blas_threads():
    """Set the OpenBLAS numpy's wheel vendors (numpy.libs beside the
    package, or numpy/.dylibs on macOS) to one thread; numpy has loaded it,
    so the handle is numpy's own. Returns the library's file name and its
    thread-count getter, None for either that is not found."""
    package = os.path.dirname(np.__file__)
    for where in (package + ".libs", os.path.join(package, ".dylibs")):
        with contextlib.suppress(OSError):  # no such directory, or not loadable
            for name in sorted(os.listdir(where)):
                if "openblas" in name.lower():
                    lib = ctypes.CDLL(os.path.join(where, name))
                    set_threads = _thread_call(lib, "set", (ctypes.c_int,), None)
                    if set_threads is not None:
                        set_threads(1)
                    return name, _thread_call(lib, "get", (), ctypes.c_int)
    return None, None


_BLAS_LIBRARY, _blas_get_threads = _pin_blas_threads()


def blas_info() -> dict:
    """{"library": the file name of numpy's OpenBLAS, "threads": the thread
    count it runs with now}; None for what cannot be found."""
    threads = None if _blas_get_threads is None else _blas_get_threads()
    return {"library": _BLAS_LIBRARY, "threads": threads}


class ParamSet:
    """Named float64 parameters with mirrored gradients, as views into two
    flat buffers.

    ``buffer`` holds every value and ``grad_buffer`` every gradient, one
    contiguous slice per parameter in the order of ``shapes``; ``values`` and
    ``grads`` map each name to its shaped view. Zeroing, scaling, an
    optimizer step and a checkpoint write are each one operation on a buffer.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], buffer: np.ndarray):
        """Views over ``buffer``, a flat float64 array of the total size,
        which the set reads and updates in place (it is not copied)."""
        sizes = [math.prod(shape) for shape in shapes.values()]
        if buffer.dtype != np.float64 or buffer.shape != (sum(sizes),):
            raise ValueError(f"a ParamSet of {sum(sizes)} values needs a flat float64 buffer "
                             f"of that size, got {buffer.dtype} {buffer.shape}")
        self.buffer = buffer
        self.grad_buffer = np.zeros(buffer.size)  # not zeros_like: 4x slower at this size
        self.values: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        start = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            self.values[name] = buffer[start : start + size].reshape(shape)
            self.grads[name] = self.grad_buffer[start : start + size].reshape(shape)
            start += size
        self._grad_views = tuple(self.grads.values())

    @classmethod
    def of(cls, values: dict[str, np.ndarray]) -> "ParamSet":
        """A set holding copies of ``values``, in their order."""
        flat = np.concatenate([np.zeros(0), *map(np.ravel, values.values())])
        return cls({name: np.shape(v) for name, v in values.items()}, flat)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.values[name]

    def check_grads(self):
        """Raise ValueError unless ``grads`` still maps each parameter to its
        view of ``grad_buffer``, the only gradient memory a step reads."""
        views = self._grad_views
        if len(self.grads) != len(views) or any(map(operator.is_not, self.grads.values(), views)):
            changed = [name for (name, g), v in zip(self.grads.items(), views) if g is not v]
            raise ValueError(f"gradients {changed or list(self.grads)} are not this set's "
                             "views of its gradient buffer; write into the views instead")

    def zero_grads(self):
        self.grad_buffer.fill(0.0)

    def scale_grads(self, factor: float):
        self.grad_buffer *= factor


def constant(value) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array, for a hot path's scalar
    operands: it computes what the Python float does, and numpy skips the
    weak-scalar promotion (NEP 50) it works out for a Python float on every
    call, which nearly doubles an in-place op on a small block."""
    array = np.array(value, dtype=np.float64)
    array.flags.writeable = False
    return array


ONE = constant(1.0)


def uniform_init(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform(-0.05, 0.05) draws for initial parameter values."""
    return rng.uniform(-0.05, 0.05, size=shape)


class NonFiniteError(ValueError):
    """Logits that are not all finite; ``row`` is the first such row."""

    def __init__(self, row: int):
        super().__init__(row)
        self.row = row

    def __str__(self) -> str:
        return f"non-finite logits in row {self.row}"


def softmax_xent(logits: np.ndarray, gold) -> tuple:
    """Cross-entropy over a softmax along each row, stabilized by
    max-subtraction.

    Takes (B, C) logits with B gold indices. Returns (loss, prob, dlogits):
    (B,) losses, (B, C) probabilities and dlogits = prob - onehot(gold).
    Non-finite logits raise NonFiniteError, a ValueError naming the first
    bad row.
    """
    logits = np.asarray(logits, np.float64)
    gold = np.asarray(gold)
    if logits.ndim != 2 or gold.shape != logits.shape[:1]:
        raise ValueError(f"softmax_xent: {gold.shape} gold for {logits.shape} logits")
    if not np.isfinite(logits).all():
        raise NonFiniteError(int(np.argmin(np.isfinite(logits).all(axis=1))))
    onehot = gold[:, None] == np.arange(logits.shape[1])  # a row without a True: out of range
    z = logits - np.maximum.reduce(logits, 1, None, None, True)  # max(axis=1, keepdims=True)
    e = np.exp(z)
    logsumexp = np.log(np.add.reduce(e, 1, None, None, True))
    z -= logsumexp  # log-probabilities; -(z - lse) is exactly lse - z
    picked = z[onehot]  # each row's gold entry, in row order
    if picked.size != gold.size:
        raise ValueError(f"softmax_xent: gold index {gold} out of range")
    prob = np.exp(z, out=e)
    return -picked, prob, prob - onehot


def dropout(
    x: np.ndarray,
    ratio: float,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray | float]:
    """Inverted dropout. Returns (y, mask); backward is grad * mask.

    Ratio 0, the models' default and the only ratio outside training, is the
    identity: x itself comes back with the mask ONE, a 0-d 1.0, and no
    random numbers are drawn. Otherwise kept entries are scaled by
    1/(1-ratio), so expectations match.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"dropout ratio must be in [0, 1), got {ratio}")
    if ratio == 0.0:
        return x, ONE
    if rng is None:
        raise ValueError("dropout with a nonzero ratio needs an rng")
    mask = np.multiply(rng.random(x.shape) >= ratio, 1.0 / (1.0 - ratio))
    return x * mask, mask


RMSPROP_DECAY = 0.9
RMSPROP_EPSILON = 1e-8
_DECAY, _KEEP, _EPSILON = map(constant, (RMSPROP_DECAY, 1.0 - RMSPROP_DECAY, RMSPROP_EPSILON))


class RmsProp:
    """RMSProp: acc <- rho*acc + (1-rho)*g^2; theta <- theta - lr*g/(sqrt(acc)+eps).

    rho and eps are the standard RMSPROP_DECAY and RMSPROP_EPSILON. A step
    updates the whole parameter buffer at once, with ``acc`` one accumulator
    buffer beside it, and allocates nothing. Gradients are zeroed after each
    step. The rate, an int or a float, is held as a 0-d float64 (constant).
    """

    def __init__(self, params: ParamSet, learning_rate: float = 0.001):
        self.params = params
        self.learning_rate = constant(learning_rate)
        self.acc = np.zeros(params.buffer.size)
        self._tmp = np.empty(params.buffer.size)

    def step(self):
        p, acc, tmp = self.params, self.acc, self._tmp
        p.check_grads()
        g = p.grad_buffer
        # acc = rho*acc + ((1-rho)*g)*g; theta -= (lr*g) / (sqrt(acc) + eps),
        # term by term in place; the gradient buffer is zeroed at the end anyway
        np.multiply(g, _KEEP, tmp)
        tmp *= g
        acc *= _DECAY
        acc += tmp
        np.sqrt(acc, tmp)
        tmp += _EPSILON
        g *= self.learning_rate
        g /= tmp
        p.buffer -= g
        p.zero_grads()


GRAD_CHECK_EPS = 1e-5
GRAD_CHECK_COORDS = 16  # probed coordinates per parameter array at most


def grad_check(loss_fn, params: ParamSet) -> float:
    """Compare analytic gradients against central differences.

    ``loss_fn()`` must recompute the forward pass from the current parameter
    values, accumulate analytic gradients into ``params`` and return the
    scalar loss. It must be deterministic (dropout off). Small parameters are
    probed in full; for larger ones the GRAD_CHECK_COORDS coordinates with the
    largest analytic magnitudes are probed. The magnitude cut matters: at
    GRAD_CHECK_EPS = 1e-5 the central difference of a float64 loss carries
    about ulp(loss)/2eps ~ 5e-12 of roundoff, so coordinates whose true
    gradient sits below ~1e-7 measure noise, not backward-pass correctness.
    Returns the max of |a-n| / max(|a|, |n|, 1e-8).
    """
    params.zero_grads()
    base = loss_fn()
    if not math.isfinite(base):
        raise ValueError("grad_check: non-finite loss")
    analytic = {name: g.copy() for name, g in params.grads.items()}

    worst = 0.0
    for name, value in params.values.items():
        flat = value.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        n = flat.shape[0]
        if n <= GRAD_CHECK_COORDS:
            coords = np.arange(n)
        else:
            coords = np.argsort(-np.abs(a_flat))[:GRAD_CHECK_COORDS]
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + GRAD_CHECK_EPS
            lp = loss_fn()
            flat[idx] = orig - GRAD_CHECK_EPS
            lm = loss_fn()
            flat[idx] = orig
            if not (math.isfinite(lp) and math.isfinite(lm)):
                raise ValueError("grad_check: non-finite loss under perturbation")
            numeric = (lp - lm) / (2.0 * GRAD_CHECK_EPS)
            a = a_flat[idx]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    params.zero_grads()
    return worst


# ---------------------------------------------------------------------------
# Word embeddings

UNK_SEED = 1013904223  # fixed stream for the unknown-word vector
# whitespace str.split splits on, bar space and tab; within a line only U+001F is ASCII
_OTHER_SPACE = re.compile(r"[^\S \t]")


class EmbeddingTable:
    """Word -> float64 vector map with a persistent unknown-word vector.

    ``vectors`` holds one row per vocabulary word and, last, the unknown-word
    vector, so ``vectors[rows(forms)]`` embeds any forms: numpy reads the -1
    that ``rows`` gives an unknown form as that last row. A form matches
    exactly, then lowercased, then falls back to the unknown vector.
    """

    def __init__(self, words: list[str], vectors: np.ndarray):
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)  # train tunes it as a flat view
        if vectors.ndim != 2 or vectors.shape[0] != len(words) + 1:
            raise EmbeddingError("embedding vectors must have one row per word plus the unk row")
        if vectors.shape[1] < 1:  # a file or checkpoint of it would not read back
            raise EmbeddingError(f"embedding vectors must have dim >= 1, got {vectors.shape[1]}")
        self.words = list(words)
        self.vectors = vectors
        self.index = {w: i for i, w in enumerate(self.words)}
        if len(self.index) != len(self.words):
            raise EmbeddingError("duplicate word in embedding vocabulary")

    @property
    def matrix(self) -> np.ndarray:
        """The vocabulary rows (a view)."""
        return self.vectors[:-1]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.words)

    def row_of(self, word: str) -> int:
        """Row index for a form, -1 for unknown (after lowercase fallback)."""
        i = self.index.get(word)
        if i is None:
            i = self.index.get(word.lower())
        return -1 if i is None else i

    def rows(self, forms) -> np.ndarray:
        """Row indices per form, -1 (the unk row) for unknown forms."""
        return np.array([self.row_of(f) for f in forms], dtype=np.int64)


def _unk_vector(dim: int) -> np.ndarray:
    return np.random.default_rng(UNK_SEED).uniform(-0.1, 0.1, size=(1, dim))


def load_embeddings(text: str) -> EmbeddingTable:
    """Parse the text embedding format: header "vocab_size dim", then one
    "word v1 ... vD" line per word. Spaces and tabs split fields; the counts
    are ASCII digits and the values ASCII numbers without "_", as written."""
    lines = text.splitlines()
    if not lines:
        raise EmbeddingError("empty embedding file")
    for lineno, line in enumerate(lines, start=1):  # str.isascii costs O(1)
        if "\x1f" in line or (not line.isascii() and _OTHER_SPACE.search(line)):
            raise EmbeddingError(f"line {lineno}: whitespace other than spaces and tabs")
    header = lines[0].split()
    # ASCII digits only, as written: int() also reads "+2", "2_0" and "２"
    if len(header) != 2 or not all(n.isascii() and n.isdigit() for n in header):
        raise EmbeddingError(f"line 1: malformed header {lines[0]!r} (expected 'vocab_size dim')")
    vocab_size, dim = int(header[0]), int(header[1])
    if dim < 1:
        raise EmbeddingError(f"line 1: bad header values {lines[0]!r}")
    words: list[str] = []
    vectors: list[np.ndarray] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != dim + 1:
            raise EmbeddingError(
                f"line {lineno}: expected {dim} values for word {parts[0] if parts else '?'!r}, "
                f"got {len(parts) - 1}"
            )
        numbers = " ".join(parts[1:])
        if not numbers.isascii() or "_" in numbers:  # float() also reads "1_0" and "٣"
            raise EmbeddingError(f"line {lineno}: non-numeric vector component")
        try:
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError:
            raise EmbeddingError(f"line {lineno}: non-numeric vector component") from None
        if not np.isfinite(vec).all():
            raise EmbeddingError(f"line {lineno}: non-finite vector component for word {parts[0]!r}")
        words.append(parts[0])
        vectors.append(vec)
    if len(words) != vocab_size:
        raise EmbeddingError(f"header declares {vocab_size} words, file has {len(words)}")
    try:
        unk = _unk_vector(dim)  # an empty vocabulary leaves dim unchecked until here
    except (ValueError, MemoryError):  # numpy: "array is too big", or out of memory
        raise EmbeddingError(f"line 1: cannot allocate vectors of dim {dim}") from None
    return EmbeddingTable(words, np.vstack(vectors + [unk]))


def write_embeddings(table: EmbeddingTable) -> str:
    """Inverse of load_embeddings; float64 values round-trip exactly via %.17g.
    EmbeddingError naming a word that would not read back as one word: an
    empty one, or one with whitespace in it."""
    out = [f"{len(table)} {table.dim}"]
    for i, w in enumerate(table.words):
        if w.split() != [w]:
            raise EmbeddingError(f"embedding word {w!r} does not read back as written")
        out.append(w + " " + " ".join("%.17g" % v for v in table.matrix[i]))
    return "\n".join(out) + "\n"


def random_embeddings(vocab: list[str], dim: int, seed: int) -> EmbeddingTable:
    """Deterministic uniform(-0.1, 0.1) table over a vocabulary; an
    EmbeddingError when it cannot be allocated."""
    rng = np.random.default_rng(seed)
    try:
        vectors = np.vstack([rng.uniform(-0.1, 0.1, size=(len(vocab), dim)), _unk_vector(dim)])
    except (ValueError, MemoryError):  # numpy: "array is too big", or out of memory
        raise EmbeddingError(f"cannot allocate {len(vocab) + 1} vectors of dim {dim}") from None
    return EmbeddingTable(list(vocab), vectors)


# ---------------------------------------------------------------------------
# Artifact files


def read_utf8(path: str, error: type[Exception]) -> str:
    """The text of a UTF-8 file, newlines read as ``open`` reads them and a
    leading byte-order mark dropped; a file that is not UTF-8 raises
    ``error`` naming the path and the byte offset in the file."""
    try:
        with open(path, encoding="utf-8") as f:
            # not "utf-8-sig", whose error offsets start after the mark
            return f.read().removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w"):
    """Open ``path`` for writing ("w" text as UTF-8, or "wb") so that readers
    see either the old file or the whole new one.

    Writes go to a fresh hidden temp file in the same directory, which
    replaces ``path`` when the block exits cleanly and is removed when it
    raises. A killed writer never leaves a truncated artifact, at most its
    temp file. An OSError that names the temp file names ``path`` instead.
    """
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), encoding=None if mode == "wb" else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException as e:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(e, OSError) and e.filename == tmp:
            raise OSError(e.errno, e.strerror, path) from None
        raise


# ---------------------------------------------------------------------------
# Checkpoints
#
# Layout: one JSON header line (sorted keys, no timestamps: format_version,
# config, vocab, dim), then two raw little-endian float64 blocks: the model's
# flat parameter buffer, then the (V+1, dim) embedding vectors (the vocabulary
# rows, then the unk row). The parameter block is whatever precedes the
# table; the config alone gives it meaning. Byte-identical for identical inputs.


def save_checkpoint(path: str, params: np.ndarray, table: EmbeddingTable, config: dict) -> None:
    """Write ``params``, a flat float64 parameter buffer, and ``table``
    under a header holding ``config``."""
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": config,
        "vocab": table.words,
        "dim": table.dim,
    }
    blobs = [np.ascontiguousarray(params, dtype="<f8").tobytes(),
             np.ascontiguousarray(table.vectors, dtype="<f8").tobytes()]
    with atomic_open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8"))
        f.write(b"\n")
        for b in blobs:
            f.write(b)


_HEADER_FIELDS = {"config": dict, "vocab": list, "dim": int}


def load_checkpoint(path: str) -> tuple[dict, np.ndarray, EmbeddingTable]:
    """Read a save_checkpoint file: (config, parameter block, table).

    The parameter block is a read-only float64 view of the file's bytes,
    unchecked: its length and values mean something only against the model
    the config describes. Raises CheckpointError on a malformed header, a
    payload too short for the table or not whole float64 values, or a
    non-finite embedding value."""
    if not os.path.exists(path):
        raise CheckpointError(f"checkpoint not found: {path}")
    with open(path, "rb") as f:
        header_line = f.readline()
        payload = f.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):  # too deeply nested
        raise CheckpointError(f"unreadable checkpoint header in {path}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"checkpoint header in {path} is not a JSON object")
    if header.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format_version {header.get('format_version')!r}")
    for key, kind in _HEADER_FIELDS.items():
        value = header.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):  # a bool is no int
            raise CheckpointError(f"checkpoint header field {key!r} missing or not a {kind.__name__}")
    vocab, dim = header["vocab"], header["dim"]
    if not all(isinstance(w, str) for w in vocab) or len(set(vocab)) < len(vocab) or dim < 1:
        raise CheckpointError("checkpoint header has a malformed vocab or dim")
    # Python ints, checked against the payload before anything is allocated:
    # a forged dim can neither overflow nor ask for a huge array
    n_table = (len(vocab) + 1) * dim
    if len(payload) < 8 * n_table:
        raise CheckpointError("checkpoint payload truncated")
    if len(payload) % 8:
        raise CheckpointError("checkpoint payload is not whole float64 values")
    flat = np.frombuffer(payload, dtype="<f8")
    n_params = flat.size - n_table
    vectors = flat[n_params:].astype(np.float64).reshape(len(vocab) + 1, dim)
    if not np.isfinite(vectors).all():
        raise CheckpointError("checkpoint embedding vectors has a non-finite value")
    return header["config"], flat[:n_params], EmbeddingTable(vocab, vectors)
