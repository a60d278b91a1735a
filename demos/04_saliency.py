# Saliency: which tokens drive a prediction
#
# After training a chain model, backpropagate the loss to the input
# embeddings and score each token by the mean absolute derivative. On this
# corpus the tense-bearing auxiliary should dominate for FUTURE events.

import os
import tempfile

import numpy as np

from depchain import (
    SynthConfig,
    TemporalStatus,
    TrainConfig,
    compute_saliency,
    emit_heatmap,
    encode_input,
    generate_synthetic,
    heatmap_filename,
    train,
)

sents, mentions = generate_synthetic(SynthConfig(n_sentences=200, seed=7))
cfg = TrainConfig(
    model_type="lstm", representation="chain",
    hidden=32, embedding_dim=24, epochs=30, learning_rate=0.003, seed=0,
)
trained = train(cfg, sents, mentions)
print(f"trained, final mean loss {trained.history[-1]:.3f}")

by_key = {(s.doc_id, s.sent_id): s for s in sents}
future = next(m for m in mentions if m.label is TemporalStatus.FUTURE)
sent = by_key[(future.doc_id, future.sent_id)]
inst = encode_input(sent, future, "chain", trained.table)

smap = compute_saliency(trained.model, inst, label=future.label)
print(f"\npredicted {smap.predicted.name}, gold {smap.gold.name}")
for tok, score in zip(smap.tokens, smap.scores):
    bar = "#" * int(40 * score / max(smap.scores))
    print(f"  {tok:<12} {score:.6f} {bar}")

top = smap.tokens[int(np.argmax(smap.scores))]
print(f"\ntop token: {top!r}")

# The same map renders as CSV or a standalone HTML page with shaded spans.
out_dir = tempfile.mkdtemp(prefix="saliency-")
name = heatmap_filename(future.doc_id, future.sent_id, future.token_id, "html")
path = os.path.join(out_dir, name)
with open(path, "w", encoding="utf-8") as f:
    f.write(emit_heatmap(smap, "html"))
print(f"heatmap written to {path}")
