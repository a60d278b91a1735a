"""First-order gradient saliency over input embeddings, with CSV/HTML output.

The saliency of a token is the mean over embedding dimensions of the absolute
derivative of the cross-entropy loss with respect to that token's embedding
vector. The loss is taken at the gold label when one is supplied, otherwise
at the model's own prediction. A batch is mapped by one checked prediction
pass (models.predict) and one backward pass; one map is a batch of one.
"""

from __future__ import annotations

import html as _html
import math
import re
from dataclasses import dataclass

import numpy as np

from .corpus import TemporalStatus, _has_line_break
from .models import EncodedInput, predict
from .nncore import softmax_xent

__all__ = [
    "SaliencyMap",
    "saliency_maps",
    "compute_saliency",
    "emit_heatmap",
    "parse_heatmap_csv",
    "heatmap_filename",
]


@dataclass(frozen=True)
class SaliencyMap:
    tokens: tuple[str, ...]
    scores: tuple[float, ...]  # per-token mean absolute derivative, finite and >= 0
    raw: np.ndarray | None  # (T, dim) absolute derivatives; None for parsed maps
    predicted: TemporalStatus | None
    gold: TemporalStatus | None

    def __post_init__(self):
        if len(self.tokens) != len(self.scores):
            raise ValueError("tokens and scores lengths differ")
        for pos, score in enumerate(self.scores, start=1):
            if not math.isfinite(score) or score < 0:  # NaN < 0 is False
                raise ValueError(f"position {pos}: saliency score {score} is not a finite "
                                 f"nonnegative number")

    def __len__(self) -> int:
        return len(self.tokens)


def saliency_maps(model, batch: list[EncodedInput], labels=None):
    """Yield each input's map in turn, at its entry of ``labels`` (None, or a
    None entry: at the prediction), from one predict call (NonFiniteError
    naming the row) and one backward pass for the input gradient alone, which
    leaves the parameter gradients untouched. A map with a non-finite score
    is refused (ValueError) in its turn, after the maps before it."""
    labels = [None] * len(batch) if labels is None else labels
    predicted, logits, cache = predict(model, batch)
    predicted = predicted.tolist()
    at = [p if label is None else int(label) for p, label in zip(predicted, labels, strict=True)]
    _, _, dlogits = softmax_xent(logits, at)
    raw = np.abs(model.backward(cache, dlogits, input_grad=True, param_grads=False))
    scores = (np.add.reduce(raw, 1) / raw.shape[1]).tolist()  # raw.mean(axis=1)
    end = 0
    for inst, pred, label in zip(batch, predicted, labels):
        start, end = end, end + len(inst)
        yield SaliencyMap(tokens=inst.forms, scores=tuple(scores[start:end]),
                          raw=raw[start:end], predicted=TemporalStatus(pred), gold=label)


def compute_saliency(model, inst: EncodedInput,
                     label: TemporalStatus | None = None) -> SaliencyMap:
    """saliency_maps over a batch of one."""
    return next(saliency_maps(model, [inst], [label]))


def _label_name(label: TemporalStatus | None) -> str:
    return "-" if label is None else label.name


def emit_heatmap(smap: SaliencyMap, fmt: str) -> str:
    """Render a map as CSV (position,token,score) or a self-contained HTML
    page whose span backgrounds scale linearly with score/max. CSV refuses
    (ValueError) a token holding a line break as str.splitlines defines one."""
    if len(smap) == 0:
        raise ValueError("empty saliency map")
    if fmt == "csv":
        lines = ["position,token,score"]
        for pos, (tok, score) in enumerate(zip(smap.tokens, smap.scores), start=1):
            if _has_line_break(tok):  # parse_heatmap_csv would split its row
                raise ValueError(f"position {pos}: token {tok!r} holds a line break, "
                                 f"which a CSV row cannot")
            lines.append(f"{pos},{_csv_field(tok)},{score:.6f}")
        return "\n".join(lines) + "\n"
    if fmt != "html":
        raise ValueError(f"unknown heatmap format {fmt!r}")
    peak = max(smap.scores)
    spans = []
    for pos, (tok, score) in enumerate(zip(smap.tokens, smap.scores), start=1):
        alpha = 0.0 if peak == 0.0 else score / peak
        style = f"background: rgba(178, 24, 43, {alpha:.4f})"
        title = f"position {pos}, score {score:.6f}"
        spans.append(
            f'<span class="tok" style="{style}" title="{title}">'
            f"{_html.escape(tok)}</span>"
        )
    caption = f"predicted: {_label_name(smap.predicted)} gold: {_label_name(smap.gold)}"
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        "<title>saliency heatmap</title>\n"
        "<style>\n"
        "body { font-family: serif; margin: 2em; background: white; color: black; }\n"
        ".tok { padding: 0.15em 0.25em; margin: 0 0.1em; border-radius: 3px; }\n"
        ".caption { font-size: 0.9em; color: #333; }\n"
        "</style>\n</head>\n<body>\n"
        f'<p class="caption">{_html.escape(caption)}</p>\n'
        f'<p class="tokens">{" ".join(spans)}</p>\n'
        "</body>\n</html>\n"
    )


def _csv_field(value: str) -> str:
    if any(c in value for c in ',"'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _parse_csv_field(value: str) -> str:
    if value.startswith('"') and value.endswith('"'):
        return value[1:-1].replace('""', '"')
    return value


def parse_heatmap_csv(text: str) -> SaliencyMap:
    """Inverse of the CSV emitter; labels and raw derivatives are not stored
    in the CSV and come back as None. A row whose score is not a finite real
    is a ValueError naming its line."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != "position,token,score":
        raise ValueError("line 1: expected header 'position,token,score'")
    tokens: list[str] = []
    scores: list[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.rsplit(",", 1)
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: malformed row {line!r}")
        head, score_s = parts
        pos_s, _, tok = head.partition(",")
        try:
            pos = int(pos_s)
            score = float(score_s)
            if not math.isfinite(score):
                raise ValueError
        except ValueError:
            raise ValueError(f"line {lineno}: malformed row {line!r}") from None
        if pos != lineno - 1:
            raise ValueError(f"line {lineno}: position {pos} out of order")
        tokens.append(_parse_csv_field(tok))
        scores.append(score)
    return SaliencyMap(tokens=tuple(tokens), scores=tuple(scores), raw=None,
                       predicted=None, gold=None)


def heatmap_filename(doc_id: str, sent_id: str, token_id: int, fmt: str) -> str:
    """<doc>_<sent>_<token>.<ext> with ids sanitized for the filesystem."""
    def clean(s: str) -> str:
        return re.sub(r"[^A-Za-z0-9_-]", "-", s) or "x"

    return f"{clean(doc_id)}_{clean(sent_id)}_{token_id}.{fmt}"
