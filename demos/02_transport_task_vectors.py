"""Carry fine-tuning from one base model to another without data.

Two independently initialized base models stand in for two releases of the
same architecture.  Base A is fine-tuned on a synthetic task; the resulting
weight delta (task vector) is permuted with the A-to-B matching and added to
base B.  The transported model should beat base B on the task even though
B itself never saw a single training example.

Also shows the reuse property: the same matched assignment carries a second
task vector with no extra matching work.
"""

import numpy as np

from taskport import (
    ArchSpec,
    batch_loss,
    build_coupling_graph,
    compute_task_vector,
    init_random,
    make_blob_batch,
    train_toy,
    transport,
    weight_match,
)

arch = ArchSpec(
    n_blocks=2, n_heads=4, embed_dim=32, mlp_hidden=64,
    input_dim=16, output_dim=4, has_layernorm=True,
)

# Two "releases": same architecture, different pre-training (here: different
# random init plus a short warm-up on a shared generic batch).
warmup = make_blob_batch(arch, n=64, seq_len=8, seed=100)
base_a = train_toy(init_random(arch, seed=0), warmup, steps=40, lr=0.02)
base_b = train_toy(init_random(arch, seed=1), warmup, steps=40, lr=0.02)

# Fine-tune A on two downstream tasks.
task1 = make_blob_batch(arch, n=64, seq_len=8, seed=200)
task2 = make_blob_batch(arch, n=64, seq_len=8, seed=300)
tuned1 = train_toy(base_a, task1, steps=150, lr=0.02)
tuned2 = train_toy(base_a, task2, steps=150, lr=0.02)
tau1 = compute_task_vector(tuned1, base_a)
tau2 = compute_task_vector(tuned2, base_a)

# Match once: align base A onto base B.  Tie mode keeps the permuted model a
# standard transformer, which is what adding deltas onto base B assumes.
graph = build_coupling_graph(arch, residual_mode="tie", pin_embedding=False)
result = weight_match(base_a, base_b, graph, seed=7)
print(f"matched A onto B in {result.n_sweeps} sweeps (converged: {result.converged})")

print("\ntask 1 cross-entropy:")
print(f"  base B alone:              {batch_loss(base_b, task1):8.4f}")
print(f"  B + raw delta (no perm):   {batch_loss(transport(base_b, tau1, graph, graph.identity_assignment()), task1):8.4f}")
print(f"  B + permuted delta:        {batch_loss(transport(base_b, tau1, graph, result.assignment), task1):8.4f}")
print(f"  fine-tuned A (reference):  {batch_loss(tuned1, task1):8.4f}")

# Reuse: the same assignment carries the second vector.
print("\ntask 2 via the SAME assignment (no re-matching):")
print(f"  base B alone:              {batch_loss(base_b, task2):8.4f}")
print(f"  B + permuted delta:        {batch_loss(transport(base_b, tau2, graph, result.assignment), task2):8.4f}")
