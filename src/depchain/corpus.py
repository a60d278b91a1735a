"""Dependency-tree corpora: CoNLL-U parsing, event annotations, synthetic generation.

A corpus is a list of :class:`DepSentence` values, each a rooted single-head
dependency tree over surface tokens. Event mentions point at one token of one
sentence and carry a :class:`TemporalStatus` label (optional at inference
time).

What is checked where: a :class:`Token` checks itself (the types of its
fields, then id, form and head) and a :class:`DepSentence` checks its ids'
types, that it holds tokens, and its tree once, keeping the children lists
that check builds. :func:`parse_conllu` makes the same checks, each once: it checks
every row as it reads it, then builds the row's token without the token's own
check, and checks each block's tree through the same function the sentence
constructor uses. Text reaches these functions already decoded; the file
reader (``nncore.read_utf8``) drops a leading UTF-8 byte-order mark.

The synthetic generator emits template sentences whose temporal cue (an
auxiliary plus the verb form it attaches to) sits on a governor of the target
event noun, several surface positions away from it. The template grammar is
documented on :func:`generate_synthetic`.
"""

from __future__ import annotations

import enum
import json
import numbers
import random
from dataclasses import dataclass

from .errors import CorpusError

__all__ = [
    "Token",
    "DepSentence",
    "TemporalStatus",
    "EventMention",
    "SynthConfig",
    "parse_conllu",
    "serialize_conllu",
    "load_events",
    "serialize_events",
    "index_sentences",
    "generate_synthetic",
    "synthetic_vocabulary",
    "synthetic_cue_forms",
]


class TemporalStatus(enum.IntEnum):
    """Three-way temporal status of an event mention.

    The integer values double as class indices for the classifiers, and the
    ordering (PAST < ONGOING < FUTURE) is the tie-break order for predictions.
    """

    PAST = 0
    ONGOING = 1
    FUTURE = 2

    @property
    def code(self) -> str:
        return _STATUS_CODES[self]

    @classmethod
    def from_code(cls, code: str) -> "TemporalStatus":
        try:
            return _CODE_STATUS[code]
        except KeyError:
            raise CorpusError(f"unknown label {code!r} (expected PA, OG or FU)") from None


_STATUS_CODES = {
    TemporalStatus.PAST: "PA",
    TemporalStatus.ONGOING: "OG",
    TemporalStatus.FUTURE: "FU",
}
_CODE_STATUS = {v: k for k, v in _STATUS_CODES.items()}
# each status at its class index: STATUSES[i] is TemporalStatus(i) for i in
# 0..2, without the enum call's lookup
STATUSES = tuple(TemporalStatus)


@dataclass(frozen=True)
class Token:
    """One surface token of a dependency tree.

    ``head`` is the 1-based id of the governing token, 0 for the root
    attachment. ``lemma`` and ``upos`` may be missing ('_' in CoNLL-U).
    """

    id: int
    form: str
    head: int
    deprel: str
    lemma: str | None = None
    upos: str | None = None

    def __post_init__(self):
        fault = _type_fault("token", self, _TOKEN_TYPES) or _token_fault(self.id, self.form,
                                                                           self.head)
        if fault is not None:
            raise CorpusError(fault)


# the field types the CoNLL-U reader gives a Token and a DepSentence
_TOKEN_TYPES = (("id", int, "an int"), ("form", str, "a string"), ("head", int, "an int"),
                ("deprel", str, "a string"), ("lemma", (str, type(None)), "a string or None"),
                ("upos", (str, type(None)), "a string or None"))
_SENTENCE_TYPES = (("doc_id", str, "a string"), ("sent_id", str, "a string"))


def _type_fault(what: str, obj, types) -> str | None:
    """The first field of ``obj`` whose value has another type than ``types``
    lists (a bool is no int), or None."""
    for name, kind, described in types:
        value = getattr(obj, name)
        if not isinstance(value, kind) or isinstance(value, bool):
            return f"{what} {name} {value!r} is not {described}"
    return None


def _token_fault(tid: int, form: str, head: int) -> str | None:
    """What is wrong with one token on its own, or None."""
    if tid < 1:
        return f"token id must be >= 1, got {tid}"
    if not form:
        return f"token {tid}: empty form"
    if head < 0:
        return f"token {tid}: negative head"
    if head == tid:
        return f"token {tid}: token is its own head"
    return None


@dataclass(frozen=True)
class DepSentence:
    """A parsed sentence: tokens 1..n forming a single rooted tree.

    Construction checks the tree once and keeps what the check builds as
    ``children``: the dependent ids of each token id in surface order, with
    entry 0 holding the root. It is not a field, so equality, hashing and
    ``repr`` see ``doc_id``, ``sent_id`` and ``tokens`` only.
    """

    doc_id: str
    sent_id: str
    tokens: tuple[Token, ...]

    def __post_init__(self):
        fault = _type_fault("sentence", self, _SENTENCE_TYPES)
        if fault is not None:
            raise CorpusError(fault)
        tokens = tuple(self.tokens)
        for token in tokens:
            if not isinstance(token, Token):
                raise CorpusError(f"sentence {self.doc_id}/{self.sent_id}: {token!r} "
                                  "is not a Token")
        object.__setattr__(self, "tokens", tokens)
        children = _tree_children(f"sentence {self.doc_id}/{self.sent_id}", tokens)
        object.__setattr__(self, "children", children)

    def __len__(self) -> int:
        return len(self.tokens)

    def token(self, token_id: int) -> Token:
        if not 1 <= token_id <= len(self.tokens):
            raise CorpusError(
                f"sentence {self.doc_id}/{self.sent_id}: token id {token_id} out of range"
            )
        return self.tokens[token_id - 1]

    @property
    def root_id(self) -> int:
        return self.children[0][0]


def _tree_children(where: str, tokens: tuple[Token, ...]) -> tuple[tuple[int, ...], ...]:
    """The children lists of ``tokens``, checked to be tokens 1..n of a
    single rooted tree; a fault raises CorpusError led by ``where``. Entry 0
    holds the root."""
    n = len(tokens)
    if n == 0:
        raise CorpusError(f"{where}: no tokens")
    kids: list[list[int]] = [[] for _ in range(n + 1)]
    for pos, token in enumerate(tokens, start=1):
        tid, head = token.id, token.head
        if tid != pos:
            raise CorpusError(
                f"{where}: token ids not consecutive (found {tid} at position {pos})"
            )
        if head > n:
            raise CorpusError(f"{where}: token {tid} head {head} out of range (n={n})")
        kids[head].append(tid)
    roots = kids[0]
    if not roots:
        raise CorpusError(f"{where}: no root token")
    if len(roots) > 1:
        raise CorpusError(f"{where}: multiple roots {roots}")
    # Single root + every token reached from it <=> rooted tree.
    reached = [roots[0]]
    for node in reached:  # the list grows as it is walked
        reached += kids[node]
    if len(reached) < n:
        # Name the token where a walk up the heads from the lowest unreached
        # id first comes back to itself: the cycle a walk up from every id
        # in turn would meet first.
        seen = set(reached)
        cur = next(t for t in range(1, n + 1) if t not in seen)
        path = set()
        while cur not in path:
            path.add(cur)
            cur = tokens[cur - 1].head
        raise CorpusError(f"{where}: cycle through token {cur}")
    return tuple([tuple(k) for k in kids])


@dataclass(frozen=True)
class EventMention:
    """An event anchor: (document, sentence, head token) plus optional label."""

    doc_id: str
    sent_id: str
    token_id: int
    label: TemporalStatus | None = None


# ---------------------------------------------------------------------------
# CoNLL-U


def parse_conllu(text: str) -> list[DepSentence]:
    """Parse CoNLL-U text into validated dependency trees.

    Consumes columns ID, FORM, LEMMA, UPOS, HEAD, DEPREL of the 10-column
    format. Multiword-token lines (id "3-4") and empty-node lines (id "3.1")
    are skipped. A blank line or the end of the text closes a block. The
    document id is "1" until the first `# newdoc id = ...`, which holds until
    the next one. A block without `# sent_id = ...` is named by its ordinal
    among the blocks that have rows or a sent_id; other comments are ignored.
    A `# sent_id` or `# newdoc id` comment without a value is rejected.

    Each row is checked once, here, and the sentence's tokens are built
    without running ``Token``'s own check again. Each tree is checked once, by
    building its children lists from the heads and walking them from the root;
    the sentence keeps those lists as ``children``. Faults come in the order
    direct construction would report them: row faults in row order, naming
    their line, then tree faults, naming the line of the block's first row.
    Decoding, including dropping a byte-order mark, is the reader's job.
    """
    sentences: list[DepSentence] = []
    doc_id, sent_id = "1", None
    rows: list[tuple[int, str]] = []  # (line number, line) of the open block
    ordinal = 0
    for lineno, line in enumerate(text.splitlines() + [""], start=1):
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            key = key.strip()
            if key == "sent_id" or key == "newdoc id":
                value = value.strip()
                if not value:
                    raise CorpusError(f"line {lineno}: # {key} without a value")
                if key == "sent_id":
                    sent_id = value
                else:
                    doc_id = value
        elif line.strip():
            rows.append((lineno, line))
        elif rows or sent_id is not None:
            ordinal += 1
            sent = _parse_block(doc_id, str(ordinal) if sent_id is None else sent_id, rows)
            if sent is not None:
                sentences.append(sent)
            sent_id, rows = None, []
    return sentences


_new = object.__new__  # builds a parsed Token or DepSentence without re-checking it


def _parse_block(doc_id: str, sent_id: str, rows: list[tuple[int, str]]) -> DepSentence | None:
    """The sentence of one block's 10-column rows; None when no row is a token."""
    where = f"sentence {doc_id}/{sent_id}"
    tokens: list[Token] = []
    for no, row in rows:
        cols = row.split("\t")
        if len(cols) != 10:
            raise CorpusError(
                f"{where} (line {no}): expected 10 tab-separated columns, got {len(cols)}"
            )
        tid, form, lemma, upos, _xpos, _feats, head, deprel, _deps, _misc = cols
        # CoNLL-U numbers are ASCII digits; int() would also take "+1", " 1",
        # "0_1" and other scripts' digits. A negative head passes the syntax
        # check and is reported as negative.
        if not (tid.isascii() and tid.isdigit()):
            if "-" in tid or "." in tid:  # a multiword or empty-node row
                continue
            raise CorpusError(f"{where} (line {no}): bad token id {tid!r}")
        if not (head.isascii() and head.removeprefix("-").isdigit()):
            raise CorpusError(f"{where} (line {no}): non-integer head {head!r}")
        i, h = int(tid), int(head)
        if i < 1 or not form or h < 0 or h == i:  # _token_fault's checks, inline
            raise CorpusError(f"{where} (line {no}): {_token_fault(i, form, h)}")
        # The row holds a valid Token; fill its fields without checking again.
        token = _new(Token)
        fields = token.__dict__
        fields["id"] = i
        fields["form"] = form
        fields["head"] = h
        fields["deprel"] = deprel
        fields["lemma"] = None if lemma == "_" else lemma
        fields["upos"] = None if upos == "_" else upos
        tokens.append(token)
    if not tokens:
        return None
    sent = _new(DepSentence)
    fields = sent.__dict__
    fields["doc_id"] = doc_id
    fields["sent_id"] = sent_id
    fields["tokens"] = tuple(tokens)
    fields["children"] = _tree_children(f"{where} (line {rows[0][0]})", fields["tokens"])
    return sent


def serialize_conllu(sentences: list[DepSentence]) -> str:
    """Emit sentences in the 10-column CoNLL-U format; round-trips with parse_conllu.

    A value that parse_conllu would reject or read back differently raises
    CorpusError naming the sentence (and the token): an empty doc or sent id,
    one with surrounding whitespace, a tab or line break in an id, form,
    lemma, upos or deprel, and a lemma or upos of '_' (read back as missing).
    """
    out: list[str] = []
    prev_doc: str | None = None
    for sent in sentences:
        where = f"sentence {sent.doc_id!r}/{sent.sent_id!r}"
        for name, value in (("doc id", sent.doc_id), ("sent id", sent.sent_id)):
            if not value or value != value.strip() or "\t" in value or _has_line_break(value):
                raise CorpusError(f"{where}: {name} {value!r} does not read back as written")
        if sent.doc_id != prev_doc:
            out.append(f"# newdoc id = {sent.doc_id}")
            prev_doc = sent.doc_id
        out.append(f"# sent_id = {sent.sent_id}")
        for t in sent.tokens:
            cols = [
                str(t.id),
                t.form,
                t.lemma if t.lemma is not None else "_",
                t.upos if t.upos is not None else "_",
                "_",
                "_",
                str(t.head),
                t.deprel,
                "_",
                "_",
            ]
            row = "\t".join(cols)
            if row.count("\t") != 9 or _has_line_break(row):
                raise CorpusError(f"{where}: token {t.id} holds a tab or line break: {row!r}")
            if "_" in (t.lemma, t.upos):
                raise CorpusError(f"{where}: token {t.id}: lemma or upos '_' reads back as missing")
            out.append(row)
        out.append("")
    return "\n".join(out) + ("\n" if out else "")


def _has_line_break(text: str) -> bool:
    """True when ``str.splitlines`` (the reader's line split) breaks ``text``."""
    return "".join(text.splitlines()) != text


def index_sentences(sentences: list[DepSentence]) -> dict[tuple[str, str], DepSentence]:
    """Build a (doc_id, sent_id) -> sentence map, rejecting duplicates."""
    index: dict[tuple[str, str], DepSentence] = {}
    for s in sentences:
        key = (s.doc_id, s.sent_id)
        if key in index:
            raise CorpusError(f"duplicate sentence id {s.doc_id}/{s.sent_id}")
        index[key] = s
    return index


# ---------------------------------------------------------------------------
# Event annotation files (JSON lines)

_EVENT_FIELDS = {"doc_id", "sent_id", "token_id", "label"}


def load_events(text: str, corpus: list[DepSentence]) -> list[EventMention]:
    """Load line-delimited event records and resolve them against the corpus.

    Each line is a JSON object with fields exactly doc_id, sent_id, token_id,
    label; doc_id and sent_id are strings, label is "PA", "OG", "FU" or null
    (unlabeled).
    """
    index = index_sentences(corpus)
    mentions: list[EventMention] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise CorpusError(f"events line {lineno}: invalid JSON ({e.msg})") from None
        except RecursionError:
            raise CorpusError(f"events line {lineno}: JSON nested too deeply") from None
        if not isinstance(rec, dict) or set(rec) != _EVENT_FIELDS:
            raise CorpusError(
                f"events line {lineno}: fields must be exactly doc_id, sent_id, token_id, label"
            )
        for name in ("doc_id", "sent_id"):  # str() would read 1 as the default doc "1"
            if not isinstance(rec[name], str):
                raise CorpusError(f"events line {lineno}: {name} must be a string")
        key = (rec["doc_id"], rec["sent_id"])
        sent = index.get(key)
        if sent is None:
            raise CorpusError(
                f"events line {lineno}: dangling reference to sentence {key[0]}/{key[1]}"
            )
        token_id = rec["token_id"]
        if type(token_id) is not int or not 1 <= token_id <= len(sent):  # JSON true is no id
            raise CorpusError(
                f"events line {lineno}: token_id {token_id!r} out of range for "
                f"sentence {key[0]}/{key[1]} (n={len(sent)})"
            )
        raw_label = rec["label"]
        if raw_label is None:
            label = None
        elif isinstance(raw_label, str):
            try:
                label = TemporalStatus.from_code(raw_label)
            except CorpusError as e:
                raise CorpusError(f"events line {lineno}: {e}") from None
        else:
            raise CorpusError(f"events line {lineno}: label must be a string or null")
        mentions.append(
            EventMention(doc_id=key[0], sent_id=key[1], token_id=token_id, label=label)
        )
    return mentions


def serialize_events(mentions: list[EventMention]) -> str:
    """Emit mentions as JSON lines with the fixed field order."""
    lines = []
    for m in mentions:
        rec = {
            "doc_id": m.doc_id,
            "sent_id": m.sent_id,
            "token_id": m.token_id,
            "label": m.label.code if m.label is not None else None,
        }
        lines.append(json.dumps(rec, ensure_ascii=False))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Synthetic corpus generator

# Default proportions: the Past/On-Going/Future shares of the test split the
# classifiers must survive (67/21/12).
DEFAULT_LABEL_WEIGHTS = (0.67, 0.21, 0.12)


@dataclass(frozen=True)
class SynthConfig:
    """Configuration of the synthetic corpus generator.

    distractor_len is the number of filler tokens inserted between the cue
    verb and the target noun, all attached off the target's dependency chain.
    """

    n_sentences: int
    label_weights: tuple[float, float, float] = DEFAULT_LABEL_WEIGHTS
    distractor_len: int = 9
    seed: int = 0

    def __post_init__(self):
        fault = _type_fault("synth config", self, _SYNTH_TYPES)
        if fault is not None:
            raise CorpusError(fault)
        if self.n_sentences < 1:
            raise CorpusError(f"n_sentences must be >= 1, got {self.n_sentences}")
        if self.distractor_len < 0:
            raise CorpusError(f"distractor_len must be >= 0, got {self.distractor_len}")
        if self.seed < 0:
            raise CorpusError(f"seed must be >= 0, got {self.seed}")
        try:
            w = tuple(self.label_weights)
        except TypeError:  # not iterable
            w = ()
        if len(w) != 3 or not all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                                  for x in w):
            raise CorpusError(f"synth config label_weights {self.label_weights!r} is not "
                              f"three real numbers")
        w = tuple(map(float, w))
        object.__setattr__(self, "label_weights", w)
        if not all(0 <= x <= 1 for x in w):  # NaN fails too
            raise CorpusError(f"label_weights must be three reals in [0, 1], got {w}")
        if abs(sum(w) - 1.0) > 1e-9:
            raise CorpusError(f"label_weights must sum to 1, got sum {sum(w)!r}")


_SYNTH_TYPES = (("n_sentences", int, "an int"), ("distractor_len", int, "an int"),
                ("seed", int, "an int"))


# Word pools. Only the auxiliary and the cue-verb form carry label signal;
# every other pool is shared across labels.
_SUBJECTS = ["activists", "workers", "students", "farmers", "miners", "nurses", "drivers", "teachers"]
_SUBJECT_MODS = ["angry", "local", "young", "seasoned", "restless"]
# (base, past participle, progressive)
_CUE_VERBS = [
    ("launch", "launched", "launching"),
    ("stage", "staged", "staging"),
    ("organize", "organized", "organizing"),
    ("start", "started", "starting"),
    ("resume", "resumed", "resuming"),
]
_OBJECTS = ["rally", "strike", "march", "boycott", "walkout", "vigil"]
_LINK_VERBS = ["describing", "calling", "framing", "presenting", "promoting"]
_TARGETS = ["protest", "demonstration", "uprising", "movement", "campaign", "action"]
_POSS = [("their", "nmod:poss", "PRON"), ("its", "nmod:poss", "PRON"), ("the", "det", "DET"), ("this", "det", "DET")]
_FILL_PREPS = ["in", "near", "behind", "outside", "beyond", "around"]
_FILL_DETS = ["the", "a"]
_FILL_NOUNS = ["square", "station", "district", "harbor", "market", "plaza", "capital", "quarter"]
_FILL_ADJS = ["crowded", "dusty", "historic", "narrow", "busy", "quiet"]
_TAIL_PREPS = ["to", "for", "before"]
_TAIL_NOUNS = ["press", "cameras", "crowd", "council"]

_AUX_BY_LABEL = {
    TemporalStatus.FUTURE: ("will", 0),   # aux "will" + base form
    TemporalStatus.PAST: ("had", 1),      # aux "had" + past form
    TemporalStatus.ONGOING: ("is", 2),    # aux "is" + progressive form
}


def synthetic_cue_forms(label: TemporalStatus) -> frozenset[str]:
    """Surface forms that carry the label signal: the auxiliary plus the
    matching inflection of every cue verb."""
    aux_form, slot = _AUX_BY_LABEL[label]
    return frozenset({aux_form} | {forms[slot] for forms in _CUE_VERBS})


def synthetic_vocabulary() -> list[str]:
    """All surface forms the generator can emit, sorted."""
    words: set[str] = set()
    words.update(_SUBJECTS, _SUBJECT_MODS, _OBJECTS, _LINK_VERBS, _TARGETS)
    words.update(_FILL_PREPS, _FILL_DETS, _FILL_NOUNS, _FILL_ADJS)
    words.update(_TAIL_PREPS, _TAIL_NOUNS)
    words.update(w for w, _, _ in _POSS)
    words.update(aux for aux, _ in _AUX_BY_LABEL.values())
    for forms in _CUE_VERBS:
        words.update(forms)
    return sorted(words)


class _TreeBuilder:
    """Accumulates rows in surface order; parents are row indices, None = root."""

    def __init__(self):
        self.forms: list[str] = []
        self.parents: list[int | None] = []
        self.deprels: list[str] = []
        self.upos: list[str] = []
        self.lemmas: list[str] = []

    def add(self, form: str, parent: int | None, deprel: str, upos: str, lemma: str | None = None) -> int:
        self.forms.append(form)
        self.parents.append(parent)
        self.deprels.append(deprel)
        self.upos.append(upos)
        self.lemmas.append(lemma if lemma is not None else form)
        return len(self.forms) - 1

    def set_parent(self, row: int, parent: int):
        self.parents[row] = parent

    def build(self, doc_id: str, sent_id: str) -> DepSentence:
        tokens = []
        for pos in range(len(self.forms)):
            parent = self.parents[pos]
            tokens.append(
                Token(
                    id=pos + 1,
                    form=self.forms[pos],
                    head=0 if parent is None else parent + 1,
                    deprel=self.deprels[pos],
                    upos=self.upos[pos],
                    lemma=self.lemmas[pos],
                )
            )
        return DepSentence(doc_id=doc_id, sent_id=sent_id, tokens=tuple(tokens))


def _quota_labels(n: int, weights: tuple[float, float, float]) -> list[TemporalStatus]:
    """Largest-remainder allocation of n labels to the three classes."""
    exact = [n * w for w in weights]
    counts = [int(x) for x in exact]
    remainders = sorted(range(3), key=lambda i: (exact[i] - counts[i], -i), reverse=True)
    for i in range(n - sum(counts)):
        counts[remainders[i % 3]] += 1
    labels: list[TemporalStatus] = []
    for idx, c in enumerate(counts):
        labels.extend([TemporalStatus(idx)] * c)
    return labels


def _emit_fillers(tb: _TreeBuilder, n: int, anchor: int, anchor_is_verb: bool, rng: random.Random):
    """Emit exactly n filler tokens attached (flat) to `anchor`, off the chain.

    Units: (prep det noun) while three or more remain, then (prep noun) for a
    remainder of two, a single adjective/adverb-slot word for a remainder of
    one. All heads are `anchor` or the unit noun, never on the target's
    governor path.
    """
    attach = "obl" if anchor_is_verb else "nmod"
    remaining = n
    while remaining > 0:
        if remaining == 1:
            tb.add(rng.choice(_FILL_ADJS), anchor, "advmod" if anchor_is_verb else "amod", "ADJ")
            remaining -= 1
        elif remaining == 2:
            p = tb.add(rng.choice(_FILL_PREPS), None, "case", "ADP")
            noun = tb.add(rng.choice(_FILL_NOUNS), anchor, attach, "NOUN")
            tb.set_parent(p, noun)
            remaining -= 2
        else:
            p = tb.add(rng.choice(_FILL_PREPS), None, "case", "ADP")
            d = tb.add(rng.choice(_FILL_DETS), None, "det", "DET")
            noun = tb.add(rng.choice(_FILL_NOUNS), anchor, attach, "NOUN")
            tb.set_parent(p, noun)
            tb.set_parent(d, noun)
            remaining -= 3


def generate_synthetic(cfg: SynthConfig) -> tuple[list[DepSentence], list[EventMention]]:
    """Generate a deterministic synthetic corpus of single-event sentences.

    Template grammar (heads in brackets; the target's chain is aux + cue verb
    (+ link verb) + possessive + target):

      A:  (mod) subj AUX CUE det obj <fillers@obj> link poss TARGET (tail@link)
          nsubj->CUE, aux->CUE, CUE=root, obj dobj->CUE, link xcomp->CUE,
          TARGET dobj->link, poss->TARGET, fillers attach to obj.
      B:  (mod) subj AUX CUE <fillers@CUE> poss TARGET (tail@CUE)
          TARGET dobj->CUE, fillers attach to CUE as obliques.

    The AUX form and the cue-verb inflection are the only label-dependent
    tokens: FUTURE "will" + base, PAST "had" + past form, ONGOING "is" +
    progressive. With distractor_len fillers the cue lies distractor_len+2 or
    more surface positions before the target, so it leaves the 7-word window
    once distractor_len > 5 while staying on the dependency chain.

    Labels follow largest-remainder quotas of cfg.label_weights, shuffled with
    the seeded RNG. Equal seeds give byte-identical corpora.
    """
    rng = random.Random(cfg.seed)
    try:
        labels = _quota_labels(cfg.n_sentences, cfg.label_weights)
    except (MemoryError, OverflowError):  # a label list this long cannot exist
        raise CorpusError(f"cannot allocate a corpus of {cfg.n_sentences} sentences") from None
    rng.shuffle(labels)

    sentences: list[DepSentence] = []
    mentions: list[EventMention] = []
    for i, label in enumerate(labels):
        tb = _TreeBuilder()
        aux_form, verb_slot = _AUX_BY_LABEL[label]
        cue_forms = rng.choice(_CUE_VERBS)
        cue_form = cue_forms[verb_slot]

        template_a = rng.random() < 0.5
        with_mod = rng.random() < 0.3

        subj_mod = tb.add(rng.choice(_SUBJECT_MODS), None, "amod", "ADJ") if with_mod else None
        subj = tb.add(rng.choice(_SUBJECTS), None, "nsubj", "NOUN")
        if subj_mod is not None:
            tb.set_parent(subj_mod, subj)
        aux = tb.add(aux_form, None, "aux", "AUX")
        cue = tb.add(cue_form, None, "root", "VERB", lemma=cue_forms[0])
        tb.set_parent(subj, cue)
        tb.set_parent(aux, cue)

        if template_a:
            det = tb.add(rng.choice(_FILL_DETS), None, "det", "DET")
            obj = tb.add(rng.choice(_OBJECTS), cue, "dobj", "NOUN")
            tb.set_parent(det, obj)
            _emit_fillers(tb, cfg.distractor_len, obj, anchor_is_verb=False, rng=rng)
            link = tb.add(rng.choice(_LINK_VERBS), cue, "xcomp", "VERB")
            target_parent = link
        else:
            _emit_fillers(tb, cfg.distractor_len, cue, anchor_is_verb=True, rng=rng)
            target_parent = cue

        poss_form, poss_rel, poss_pos = rng.choice(_POSS)
        poss = tb.add(poss_form, None, poss_rel, poss_pos)
        target = tb.add(rng.choice(_TARGETS), target_parent, "dobj", "NOUN")
        tb.set_parent(poss, target)

        if rng.random() < 0.7:
            p = tb.add(rng.choice(_TAIL_PREPS), None, "case", "ADP")
            noun = tb.add(rng.choice(_TAIL_NOUNS), target_parent, "nmod", "NOUN")
            tb.set_parent(p, noun)

        doc_id = f"d{i // 50:04d}"
        sent_id = f"s{i:05d}"
        sent = tb.build(doc_id, sent_id)
        sentences.append(sent)
        mentions.append(
            EventMention(doc_id=doc_id, sent_id=sent_id, token_id=target + 1, label=label)
        )
    return sentences, mentions
