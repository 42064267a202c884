"""Hide a model behind a structured permutation, then find it again.

Builds a small transformer, scrambles its hidden units with a random
head-respecting permutation (plus a little noise), and runs the matcher to
recover the scrambling.  Ends with the functional-equivalence certificate:
the permuted model, fed through skip connections rewired with the derived
compositions, computes the same outputs as the original.
"""

import numpy as np

from taskport import (
    ArchSpec,
    apply_assignment,
    build_coupling_graph,
    init_random,
    matching_objective,
    recovery_fraction,
    verify_equivalence,
    weight_match,
)

arch = ArchSpec(
    n_blocks=2, n_heads=4, embed_dim=32, mlp_hidden=64,
    input_dim=16, output_dim=4, has_layernorm=True,
)
print(f"architecture: {arch}")

model_a = init_random(arch, seed=0)
graph = build_coupling_graph(arch, residual_mode="compose")
n_wired = sum(var is not None for owners in graph.axes.values() for var in owners)
print(f"coupling graph: {len(graph.variables)} permutation variables, "
      f"{n_wired} wired tensor axes")

# Plant: model B is model A with every free variable randomly permuted,
# plus 1% relative Gaussian noise so the two are not bit-identical.
rng = np.random.default_rng(42)
plant = graph.random_assignment(rng)
model_b = apply_assignment(model_a, graph, plant)
for name, arr in model_b.tensors.items():
    std = float(arr.std())
    if std > 0:
        model_b.tensors[name] = arr + rng.normal(0.0, 0.01 * std, arr.shape)

identity_obj = matching_objective(model_a, model_b, graph.identity_assignment(), graph)
print(f"\nobjective before matching (identity assignment): {identity_obj:.3f}")

result = weight_match(model_a, model_b, graph, seed=1)
print(f"matcher converged: {result.converged} after {result.n_sweeps} sweeps")
for sweep, (obj, changed) in enumerate(zip(result.trace, result.changed), start=1):
    print(f"  sweep {sweep}: objective {obj:10.3f}   variables changed {changed}")

print(f"\nrecovered {recovery_fraction(result.assignment, plant, graph):.1%} "
      f"of the planted permutation indices")

report = verify_equivalence(model_a, graph, result.assignment, n_samples=64, tol=1e-9)
print(f"functional equivalence: max |output difference| = {report.max_dev:.3g} "
      f"(tolerance {report.tol:g}) -> {'PASS' if report.passed else 'FAIL'}")
