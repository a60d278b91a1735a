"""Dependency-chain and local-window extraction around a target token.

The chain is built in two stages. Stage 1 collects the target itself, every
direct or indirect governor (the path up to the root) and every direct or
indirect dependent (the target's full subtree). Stage 2 makes one extra pass:
any token standing in an aux, auxpass or cop relation to a word already in
the stage-1 set joins the chain (these relations carry tense, aspect and
mood). Membership is tested against the stage-1 set only; there is no
fixpoint iteration. The result is ordered by surface position.

The window baseline is the contiguous run of half_width tokens to each side
of the target, clipped to the sentence. :func:`representation_ids` is the one
place that maps a representation name (chain, window or tree) to token ids.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass

from .corpus import DepSentence, EventMention, index_sentences
from .errors import CorpusError

__all__ = [
    "DependencyChain",
    "ContextWindow",
    "extract_chain",
    "extract_window",
    "chain_stats",
    "ChainStats",
    "REPRESENTATIONS",
    "representation_ids",
]

REPRESENTATIONS = ("chain", "window", "tree")

# Relations added in stage 2, matched on the base label before any ':' subtype
# (UD v2 writes "aux:pass" for the older "auxpass").
TENSE_CARRIER_RELS = frozenset({"aux", "auxpass", "cop"})


@dataclass(frozen=True)
class DependencyChain:
    """Token ids around a target event token, as extract_chain builds them:
    member_ids and stage1_ids strictly increasing, both holding the target."""

    target_id: int
    member_ids: tuple[int, ...]
    stage1_ids: tuple[int, ...]


@dataclass(frozen=True)
class ContextWindow:
    """Contiguous token-id range centered on the target, clipped to the sentence."""

    target_id: int
    member_ids: tuple[int, ...]


def _base_rel(deprel: str) -> str:
    return deprel.split(":", 1)[0]


def extract_chain(sent: DepSentence, target_id: int) -> DependencyChain:
    """Extract the two-stage dependency chain for the token ``target_id``."""
    sent.token(target_id)  # validates the id
    children = sent.children

    stage1: set[int] = {target_id}
    cur = sent.token(target_id).head
    while cur != 0:
        stage1.add(cur)
        cur = sent.token(cur).head
    stack = list(children[target_id])
    while stack:
        node = stack.pop()
        stage1.add(node)
        stack.extend(children[node])

    members = set(stage1)
    for t in sent.tokens:
        if t.id not in stage1 and _base_rel(t.deprel) in TENSE_CARRIER_RELS and t.head in stage1:
            members.add(t.id)

    return DependencyChain(
        target_id=target_id,
        member_ids=tuple(sorted(members)),
        stage1_ids=tuple(sorted(stage1)),
    )


def extract_window(sent: DepSentence, target_id: int, half_width: int = 7) -> ContextWindow:
    """Contiguous ids [target - half_width, target + half_width], clipped."""
    sent.token(target_id)
    if half_width < 0:
        raise ValueError(f"half_width must be >= 0, got {half_width}")
    lo = max(1, target_id - half_width)
    hi = min(len(sent), target_id + half_width)
    return ContextWindow(target_id=target_id, member_ids=tuple(range(lo, hi + 1)))


@dataclass(frozen=True)
class ChainStats:
    """Corpus-level chain summary."""

    n_mentions: int
    mean_length: float
    median_length: float
    mean_window_overlap: float


def chain_stats(
    corpus: list[DepSentence],
    mentions: list[EventMention],
    half_width: int = 7,
) -> ChainStats:
    """Mean/median chain length and the mean |chain ∩ window| / |chain| fraction."""
    if not mentions:
        raise CorpusError("chain_stats: empty mention list")
    index = index_sentences(corpus)
    lengths: list[int] = []
    overlaps: list[float] = []
    for m in mentions:
        sent = index.get((m.doc_id, m.sent_id))
        if sent is None:
            raise CorpusError(f"mention references missing sentence {m.doc_id}/{m.sent_id}")
        chain = extract_chain(sent, m.token_id)
        window = extract_window(sent, m.token_id, half_width)
        lengths.append(len(chain.member_ids))
        shared = set(chain.member_ids) & set(window.member_ids)
        overlaps.append(len(shared) / len(chain.member_ids))
    return ChainStats(
        n_mentions=len(mentions),
        mean_length=sum(lengths) / len(lengths),
        median_length=float(statistics.median(lengths)),
        mean_window_overlap=sum(overlaps) / len(overlaps),
    )


def representation_ids(
    sent: DepSentence, target_id: int, representation: str, half_width: int = 7
) -> tuple[int, ...]:
    """Token ids, in surface order, that a representation of the mention at
    ``target_id`` holds: its chain, its window, or the whole tree.
    CorpusError when the sentence has no token ``target_id``."""
    sent.token(target_id)
    if representation == "chain":
        return extract_chain(sent, target_id).member_ids
    if representation == "window":
        return extract_window(sent, target_id, half_width).member_ids
    if representation == "tree":
        return tuple(range(1, len(sent) + 1))
    raise ValueError(f"unknown representation {representation!r}")


def representation_record(sent: DepSentence, mention: EventMention, kind: str, half_width: int = 7) -> str:
    """One JSON line describing a mention's representation of the given kind."""
    ids = representation_ids(sent, mention.token_id, kind, half_width)
    rec = {
        "doc_id": mention.doc_id,
        "sent_id": mention.sent_id,
        "token_id": mention.token_id,
        "kind": kind,
        "forms": [sent.token(i).form for i in ids],
        "member_ids": list(ids),
    }
    return json.dumps(rec, ensure_ascii=False)
