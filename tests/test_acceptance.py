"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is stated inline; the two thresholds that the protocol derives
from experiments (noisy-recovery floor, interpolation-barrier bounds) were
frozen after 24-seed calibration runs whose observed margins are quoted in
the docstrings.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import brute_force_min_assignment, make_random_batch
from taskport.attention import singular_values
from taskport.checkpoint import (
    ArchSpec,
    read_checkpoint,
    write_checkpoint,
    write_permutation_assignment,
)
from taskport.cli import main
from taskport.coupling import CouplingGraph, apply_assignment, build_coupling_graph
from taskport.lap import solve_min
from taskport.matching import recovery_fraction, weight_match
from taskport.model import (
    init_random,
    lmc_curve,
    loss_and_grads,
    make_blob_batch,
    batch_loss,
    train_toy,
    verify_equivalence,
)
from taskport.transport import compute_task_vector, transport
from taskport.checkpoint import TaskVector, WeightSet

TOY = ArchSpec(
    n_blocks=2, n_heads=4, embed_dim=32, mlp_hidden=64,
    input_dim=10, output_dim=4, has_layernorm=True,
)


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if passed else 'FAIL'} - {detail}")


def _noisy(ws, sigma, seed):
    rng = np.random.default_rng(seed)
    out = ws.copy()
    for name, arr in out.tensors.items():
        std = float(arr.std())
        if std > 0:
            out.tensors[name] = arr + rng.normal(0.0, sigma * std, arr.shape)
    return out


def test_criterion_1_functional_equivalence():
    """100 random structured assignments and batches on the toy arch,
    compose mode: max |forward(original) - forward(permuted)| <= 1e-9."""
    graph = build_coupling_graph(TOY, "compose")
    ws = init_random(TOY, 0)
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        assignment = graph.random_assignment(rng)
        report = verify_equivalence(
            ws, graph, assignment, n_samples=4, tol=1e-9, seed=int(rng.integers(1 << 31)),
        )
        worst = max(worst, report.max_dev)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(1, ok, f"equivalence over 100 assignments: max dev {worst:.3g} "
                   f"(tol 1e-9), {elapsed:.1f}s (< 60s)")
    assert ok


def test_criterion_2_spectral_invariance():
    """500 permuted head matrices keep their spectra to 1e-9; independent
    matrices sit far apart (> 0.1) at least 99% of the time."""
    rng = np.random.default_rng(2)
    d_k, d_m = TOY.head_dim, TOY.embed_dim
    worst = 0.0
    far = 0
    for _ in range(500):
        h = rng.normal(size=(d_k, d_m))
        permuted = h[rng.permutation(d_k)][:, rng.permutation(d_m)]
        worst = max(
            worst, float(np.abs(singular_values(h) - singular_values(permuted)).max())
        )
        other = rng.normal(size=(d_k, d_m))
        dist = float(
            np.linalg.norm(singular_values(h) - singular_values(other))
        )
        far += dist > 0.1
    ok = worst <= 1e-9 and far >= 495
    _report(2, ok, f"invariance max dev {worst:.3g} (tol 1e-9); "
                   f"negative control separated in {far}/500 (need >= 495)")
    assert ok


def test_criterion_3_lap_exactness():
    """Solver equals exhaustive enumeration (cost and tie-broken permutation)
    on 100 random instances per n in 2..7, within 10 seconds."""
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    mismatches = 0
    for n in range(2, 8):
        for _ in range(100):
            cost = rng.normal(size=(n, n))
            perm, total = solve_min(cost)
            oracle_perm, oracle_total = brute_force_min_assignment(cost)
            if not np.array_equal(perm, oracle_perm) or total != oracle_total:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    _report(3, ok, f"600 instances vs enumeration: {mismatches} mismatches, "
                   f"{elapsed:.1f}s (< 10s)")
    assert ok


def test_criterion_4_plant_and_recover():
    """Clean plants recover 100% of indices; sigma=0.01 noise keeps >= 99%
    (24-seed calibration never dropped below 100%); the objective at recovery
    equals the summed squared weight norm within 1e-6 relative."""
    graph = build_coupling_graph(TOY, "compose")
    ws = init_random(TOY, 4)
    plant = graph.random_assignment(np.random.default_rng(5))
    ws_b = apply_assignment(ws, graph, plant)

    clean = weight_match(ws, ws_b, graph, seed=0)
    frac_clean = recovery_fraction(clean.assignment, plant, graph)

    noisy = weight_match(ws, _noisy(ws_b, 0.01, 6), graph, seed=0)
    frac_noisy = recovery_fraction(noisy.assignment, plant, graph)

    norm_sq = sum(float(np.sum(a * a)) for a in ws.tensors.values() if a.ndim == 2)
    obj_rel = abs(clean.trace[-1] - norm_sq) / norm_sq
    ok = frac_clean == 1.0 and frac_noisy >= 0.99 and obj_rel <= 1e-6
    _report(4, ok, f"recovery clean {frac_clean:.4f} (need 1.0), "
                   f"noisy {frac_noisy:.4f} (need >= 0.99), "
                   f"objective rel err {obj_rel:.2g} (tol 1e-6)")
    assert ok


def test_criterion_5_sweep_monotonicity():
    """Objective trace non-decreasing (rel 1e-9) across 20 random pairs."""
    graph = build_coupling_graph(TOY, "compose")
    violations = 0
    for seed in range(20):
        a = init_random(TOY, 500 + seed)
        b = init_random(TOY, 600 + seed)
        result = weight_match(a, b, graph, seed=seed)
        for prev, nxt in zip(result.trace, result.trace[1:]):
            if nxt < prev - 1e-9 * abs(prev):
                violations += 1
    ok = violations == 0
    _report(5, ok, f"20 random pairs: {violations} monotonicity violations (rel tol 1e-9)")
    assert ok


def test_criterion_6_interpolation_barrier(tmp_path):
    """Tie-mode plant-plus-noise pairs: matched midpoint within 5% of the
    endpoint mean, naive midpoint at least 25% above it.  Calibration over
    24 seeds saw at most 0.12% matched deviation and at least 31x naive
    excess, so both frozen bounds hold with wide margin."""
    graph = build_coupling_graph(TOY, "tie", pin_embedding=False)
    worst_matched = 0.0
    least_naive = np.inf
    for seed in range(5):
        batch = make_blob_batch(TOY, 64, 8, 700 + seed)
        ws_a = train_toy(init_random(TOY, 800 + seed), batch, steps=150, lr=0.02)
        plant = graph.random_assignment(np.random.default_rng(900 + seed))
        ws_b = _noisy(apply_assignment(ws_a, graph, plant), 0.01, 1000 + seed)
        result = weight_match(ws_a, ws_b, graph, seed=seed)
        matched_a = apply_assignment(ws_a, graph, result.assignment)
        curve_m = lmc_curve(matched_a, ws_b, batch, n_points=11)
        curve_n = lmc_curve(ws_a, ws_b, batch, n_points=11)
        for tag, curve in (("matched", curve_m), ("naive", curve_n)):
            rows = ["alpha,loss"] + [
                f"{a:.12g},{l:.12g}" for a, l in zip(curve.alphas, curve.losses)
            ]
            (tmp_path / f"lmc_{tag}_{seed}.csv").write_text("\n".join(rows) + "\n")
        end_mean = 0.5 * (curve_m.losses[0] + curve_m.losses[-1])
        worst_matched = max(worst_matched, abs(curve_m.losses[5] - end_mean) / end_mean)
        least_naive = min(least_naive, (curve_n.losses[5] - end_mean) / end_mean)
    ok = worst_matched <= 0.05 and least_naive >= 0.25
    _report(6, ok, f"matched midpoint dev {worst_matched:.3%} (bound 5%), "
                   f"naive excess {least_naive:.1%} (bound 25%); CSVs in {tmp_path}")
    assert ok


def test_criterion_7_transport_algebra(tmp_path, monkeypatch):
    """Zero scaling is byte-stable through the container; identity transport
    adds exactly; permuting the delta equals differencing permuted models;
    one assignment serves three vectors with zero matcher calls."""
    graph = build_coupling_graph(TOY, "compose")
    base_path = str(tmp_path / "base")
    write_checkpoint(init_random(TOY, 7), base_path)
    base = read_checkpoint(base_path)
    rng = np.random.default_rng(8)
    finetuned = WeightSet(
        TOY, {n: a + 0.05 * rng.normal(size=a.shape) for n, a in base.tensors.items()}
    )
    tv = compute_task_vector(finetuned, base)
    assignment = graph.random_assignment(np.random.default_rng(9))

    # alpha = 0: writing the result reproduces the source bytes
    out_path = str(tmp_path / "alpha0")
    write_checkpoint(transport(base, tv, graph, assignment, 0.0), out_path)
    byte_stable = (
        Path(base_path, "tensors.bin").read_bytes()
        == Path(out_path, "tensors.bin").read_bytes()
    )

    # identity assignment, alpha = 1: exact elementwise addition
    vanilla = transport(base, tv, graph, graph.identity_assignment(), 1.0)
    vanilla_exact = all(
        np.array_equal(vanilla.tensors[n], base.tensors[n] + tv.tensors[n])
        for n in base.tensors
    )

    # permutation commutes with differencing, tensor-exact
    moved = apply_assignment(tv, graph, assignment)
    direct = compute_task_vector(
        apply_assignment(finetuned, graph, assignment),
        apply_assignment(base, graph, assignment),
    )
    commutes = all(
        np.array_equal(moved.tensors[n], direct.tensors[n]) for n in tv.tensors
    )

    # three transports, zero matcher invocations
    import taskport.matching as matching_mod

    calls = {"n": 0}
    real = matching_mod.weight_match

    def counting(*a, **k):
        calls["n"] += 1
        return real(*a, **k)

    monkeypatch.setattr(matching_mod, "weight_match", counting)
    for k in range(3):
        extra = TaskVector(
            TOY, {n: 0.01 * rng.normal(size=a.shape) for n, a in base.tensors.items()}
        )
        transport(base, extra, graph, assignment, 1.0)
    reuse_ok = calls["n"] == 0

    ok = byte_stable and vanilla_exact and commutes and reuse_ok
    _report(7, ok, f"alpha=0 byte-stable: {byte_stable}; vanilla exact: {vanilla_exact}; "
                   f"permute/diff commute: {commutes}; matcher calls during 3 transports: {calls['n']}")
    assert ok


def test_criterion_8_head_contamination_control(tmp_path, monkeypatch):
    """A cross-head-mixing permutation is refused as no symmetry of the model
    (exit 2) on every one of 100 random toy models.  With that refusal
    switched off, the numerical check alone must still fail it (exit 4) on
    at least 99 of them."""
    graph = build_coupling_graph(TOY, "compose")
    contaminated = graph.identity_assignment()
    flat = contaminated.perms["block.0.attn"].copy()
    flat[[0, TOY.head_dim]] = flat[[TOY.head_dim, 0]]
    contaminated.perms["block.0.attn"] = flat
    perm_path = str(tmp_path / "contaminated.perm")
    write_permutation_assignment(contaminated, perm_path)

    refused = failures = 0
    for seed in range(100):
        model_path = str(tmp_path / f"model_{seed}")
        write_checkpoint(init_random(TOY, 1100 + seed), model_path)
        argv = ["verify", "--model", model_path, "--perm", perm_path, "--samples", "8", "--seed", str(seed)]
        refused += main(argv) == 2
        with monkeypatch.context() as m:
            m.setattr(CouplingGraph, "check_assignment", lambda self, assignment: None)
            failures += main(argv) == 4
    ok = refused == 100 and failures >= 99
    _report(8, ok, f"contaminated permutation refused on {refused}/100 models (need 100), "
                   f"failed numerically on {failures}/100 (need >= 99)")
    assert ok


def test_criterion_9_complexity_scaling():
    """Doubling the width from 64 to 128 on the full matcher may cost at
    most 12x wall time (soft cubic bound; both timings logged)."""
    def run(d_m):
        arch = ArchSpec(2, 4, d_m, 2 * d_m, 16, 4, has_layernorm=False)
        a, b = init_random(arch, 1), init_random(arch, 2)
        graph = build_coupling_graph(arch, "compose")
        start = time.perf_counter()
        weight_match(a, b, graph, seed=0)
        return time.perf_counter() - start

    run(32)  # warm-up
    t64 = run(64)
    t128 = run(128)
    ratio = t128 / t64
    ok = ratio <= 12.0
    _report(9, ok, f"matcher wall time: d_m=64 {t64:.2f}s, d_m=128 {t128:.2f}s, "
                   f"ratio {ratio:.2f} (bound 12)")
    assert ok


def test_criterion_10_gradient_check():
    """Analytic vs central finite differences (h=1e-5) on every parameter of
    a 2-block toy; per-tensor relative error <= 1e-4."""
    arch = ArchSpec(2, 2, 8, 12, 5, 3, has_layernorm=True)
    ws = init_random(arch, 12)
    batch = make_random_batch(arch, n=6, seq_len=3, seed=13)
    _, grads = loss_and_grads(ws, batch)
    h = 1e-5
    worst = 0.0
    for name, arr in ws.tensors.items():
        num = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            perturbed = {k: v.copy() for k, v in ws.tensors.items()}
            perturbed[name][idx] += h
            up = batch_loss(WeightSet(arch, perturbed), batch)
            perturbed[name][idx] -= 2 * h
            down = batch_loss(WeightSet(arch, perturbed), batch)
            num[idx] = (up - down) / (2 * h)
        scale = max(np.abs(num).max(), np.abs(grads[name]).max(), 1e-5)
        worst = max(worst, float(np.abs(grads[name] - num).max() / scale))
    ok = worst <= 1e-4
    _report(10, ok, f"worst per-tensor gradient rel error {worst:.2e} (tol 1e-4)")
    assert ok
