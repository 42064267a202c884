"""Loss along the straight line between two models, with and without matching.

A trained model is hidden behind a random stream/head/unit permutation plus
noise.  Interpolating the raw weight sets crosses a huge loss barrier: unit k
of one model and unit k of the other compute unrelated features, so their
average computes mush.  After matching, the interpolation path stays flat -
the two endpoints share one basin.
"""

import numpy as np

from taskport import (
    ArchSpec,
    apply_assignment,
    build_coupling_graph,
    init_random,
    lmc_curve,
    make_blob_batch,
    train_toy,
    weight_match,
)

arch = ArchSpec(
    n_blocks=2, n_heads=4, embed_dim=32, mlp_hidden=64,
    input_dim=16, output_dim=4, has_layernorm=True,
)
batch = make_blob_batch(arch, n=64, seq_len=8, seed=11)
model_a = train_toy(init_random(arch, seed=0), batch, steps=150, lr=0.02)

graph = build_coupling_graph(arch, residual_mode="tie", pin_embedding=False)
rng = np.random.default_rng(12)
plant = graph.random_assignment(rng)
model_b = apply_assignment(model_a, graph, plant)
for name, arr in model_b.tensors.items():
    std = float(arr.std())
    if std > 0:
        model_b.tensors[name] = arr + rng.normal(0.0, 0.01 * std, arr.shape)

result = weight_match(model_a, model_b, graph, seed=3)
matched_a = apply_assignment(model_a, graph, result.assignment)

naive = lmc_curve(model_a, model_b, batch, n_points=11)
matched = lmc_curve(matched_a, model_b, batch, n_points=11)

print("alpha    naive loss    matched loss")
for alpha, ln, lm in zip(naive.alphas, naive.losses, matched.losses):
    bar = "#" * min(60, int(ln * 12))
    print(f"{alpha:5.2f}   {ln:10.4f}    {lm:10.4f}   {bar}")

mid = len(naive.alphas) // 2
end_mean = 0.5 * (matched.losses[0] + matched.losses[-1])
print(f"\nendpoint mean loss:      {end_mean:8.4f}")
print(f"matched midpoint loss:   {matched.losses[mid]:8.4f}")
print(f"naive midpoint loss:     {naive.losses[mid]:8.4f}")
