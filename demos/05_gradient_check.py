"""
Verifying the hand-written backpropagation
==========================================

All three classifiers compute their gradients manually, so each one is
checked against central finite differences. Relative errors land around
1e-5 or better in 64-bit arithmetic; anything near 1e-2 would mean a
wiring bug in backward().
"""

import numpy as np

from depchain import ParamSet, RmsProp
from depchain.models import gradcheck_model

for model_type in ("lstm", "cnn", "treelstm"):
    worst = max(gradcheck_model(model_type, seed) for seed in range(5))
    print(f"{model_type:<9} max relative error over 5 seeds: {worst:.2e}")

# The optimizer on an ill-conditioned bowl. RMSProp divides each step by
# the running gradient scale, so the steep and the shallow coordinate move
# at comparable speed. The flip side of that normalization: near the
# minimum the steps stay about learning_rate in size, so the iterate
# descends fast and then hovers on a floor set by the learning rate.
print("\nRMSProp on f(w) = w0^2 + 100 w1^2, from w = [3.0, 0.3]")
for lr in (0.05, 0.02):
    params = ParamSet.of({"w": np.array([3.0, 0.3])})
    opt = RmsProp(params, learning_rate=lr)
    print(f"  learning rate {lr}")
    for step in range(1, 201):
        w = params["w"]
        params.grads["w"][...] = np.array([2 * w[0], 200 * w[1]])
        opt.step()
        if step % 50 == 0:
            value = w[0] ** 2 + 100 * w[1] ** 2
            print(f"    step {step:>3}: w = [{w[0]: .4f}, {w[1]: .4f}], f = {value:.6f}")
