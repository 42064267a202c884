"""The three benchmark workloads: seeded fixtures, CLI sessions, output checks.

Each workload writes its fixtures as checkpoint directories under a work
directory, names the CLI calls of one session (run in order by one caller
that waits for each reply), and checks the outputs a session left behind.

* ``planted-attn`` - model B is model A under a random structured plant plus
  1% noise; compose mode.  Session: match, apply, verify.  Almost all of the
  work is the spectral head stage.
* ``pruned-mlp`` - 75% of A's hidden units are zeroed, so the hidden-unit
  value matrix is tie-heavy; tie mode with the embedding unpinned.  Session:
  match, verify.  Almost all of the work is the assignment solver.
* ``port-fanout`` - a precomputed assignment carries K task vectors onto a
  new base; no matching.  Session: apply, K x (task-vector, transport),
  verify.  The work is checkpoint I/O and permutation application.

Fixtures live in the work directory; every session writes its outputs into a
directory of its own, so the outputs of all sessions can be checked after
the timed process has exited.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass

import numpy as np

from taskport.checkpoint import (
    ArchSpec,
    read_checkpoint,
    read_container,
    read_permutation_assignment,
    read_task_vector,
    write_checkpoint,
    write_permutation_assignment,
)
from taskport.coupling import apply_assignment, build_coupling_graph
from taskport.model import init_random

NOISE = 0.01
VERIFY_TOL = 1e-9
RECOVERY_FLOOR = 0.99
RECOVERED = "recovered.perm"
_DEVIATION_RE = re.compile(r"max deviation (\S+)")


@dataclass(frozen=True)
class Step:
    """One CLI call of a session; ``kind`` is its subcommand."""

    kind: str
    argv: list[str]


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def output_digests(out: str) -> dict[str, str]:
    """SHA-256 of every file under directory ``out``, by relative path."""
    found = {}
    for base, _, files in os.walk(out):
        for name in files:
            path = os.path.join(base, name)
            found[os.path.relpath(path, out)] = sha256_file(path)
    return found


def _child_seeds(seed: int, n: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


def _noisy(ws, rng: np.random.Generator, nonzero_only: bool = False):
    """Add Gaussian noise of ``NOISE`` times each tensor's std; constant
    tensors (zero biases, unit gains) stay as they are."""
    out = ws.copy()
    for name, arr in out.tensors.items():
        std = float(arr.std())
        if std > 0:
            noise = rng.normal(0.0, NOISE * std, arr.shape)
            if nonzero_only:
                noise *= arr != 0
            out.tensors[name] = arr + noise
    return out


def _alive_hidden_units(ws, block: int) -> np.ndarray:
    fc1 = ws[f"block.{block}.mlp.fc1.weight"]
    fc2 = ws[f"block.{block}.mlp.fc2.weight"]
    bias = ws[f"block.{block}.mlp.fc1.bias"]
    return np.any(fc1 != 0, axis=1) | np.any(fc2 != 0, axis=0) | (bias != 0)


def identifiable_recovery(recovered, planted, graph, model_a) -> float:
    """Share of planted indices recovered, over the units the plant makes
    identifiable: a hidden slot whose planted source unit in A is dead could
    hold any dead unit, so it is left out."""
    total = hits = 0
    for var_id in graph.free_variables():
        got = recovered.perms[var_id]
        want = planted.perms[var_id]
        keep = np.ones(len(want), dtype=bool)
        if var_id.endswith(".mlp_hidden"):
            keep = _alive_hidden_units(model_a, int(var_id.split(".")[1]))[want]
        total += int(keep.sum())
        hits += int(np.sum((got == want) & keep))
    return hits / total if total else 1.0


def verify_deviation(stdout: str) -> float | None:
    m = _DEVIATION_RE.search(stdout)
    return float(m.group(1)) if m else None


class Workload:
    """One fixture set of a workload, under directory ``work``; subclasses
    set the sizes.  A run makes ``pool`` fixture sets from independent seeds
    and cycles its sessions through them, so that its medians cover several
    inputs rather than one draw."""

    name = ""
    pool = 1
    key_call = ""  # the subcommand whose time is reported as key_call_s
    # The calibration.TASKS entry that samples the core speed times are
    # scaled by: the same kind of work as the hot loop.
    speed_task = "interpreter"
    residual_mode = "compose"
    unpin_embedding = False
    verify_samples = 100

    def __init__(self, work: str, smoke: bool = False):
        self.work = work
        self.smoke = smoke

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def graph(self, arch: ArchSpec):
        return build_coupling_graph(
            arch, self.residual_mode, pin_embedding=not self.unpin_embedding
        )

    def graph_flags(self) -> list[str]:
        flags = ["--residual-mode", self.residual_mode]
        return flags + (["--unpin-embedding"] if self.unpin_embedding else [])

    def verify_step(self, perm: str) -> Step:
        return Step("verify", ["verify", "--model", self.path("model_a"), "--perm", perm,
                               "--tol", repr(VERIFY_TOL), "--samples", str(self.verify_samples),
                               *self.graph_flags()])

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def steps(self, out: str) -> list[Step]:
        """The session's CLI calls; outputs go to directory ``out``."""
        raise NotImplementedError

    def check(self, out: str, stdout: dict[str, str]) -> list[Check]:
        """``stdout`` maps each step kind to the output of its last call."""
        dev = verify_deviation(stdout.get("verify", ""))
        ok = dev is not None and dev <= VERIFY_TOL
        return [Check("verify_deviation", ok, f"max deviation {dev} (need <= {VERIFY_TOL:g})")]

    def recovery(self, out: str) -> float | None:
        """Identifiable share of the plant the session recovered, if it matched."""
        return None


class _MatchWorkload(Workload):
    """Plant-and-recover: setup writes A, B = plant(A) plus noise on A's
    nonzero weights, and the plant."""

    key_call = "match"

    def arch(self) -> ArchSpec:
        raise NotImplementedError

    def make_model_a(self, seed: int, rng: np.random.Generator):
        return init_random(self.arch(), seed)

    def setup(self, seed: int) -> None:
        os.makedirs(self.work, exist_ok=True)
        seed_a, seed_rest = _child_seeds(seed, 2)
        rng = np.random.default_rng(seed_rest)
        model_a = self.make_model_a(seed_a, rng)
        graph = self.graph(model_a.arch)
        plant = graph.random_assignment(rng)
        model_b = _noisy(apply_assignment(model_a, graph, plant), rng, nonzero_only=True)
        write_checkpoint(model_a, self.path("model_a"))
        write_checkpoint(model_b, self.path("model_b"))
        write_permutation_assignment(plant, self.path("plant.perm"))

    def match_step(self, out: str) -> Step:
        return Step("match", ["match", "--model-a", self.path("model_a"),
                              "--model-b", self.path("model_b"),
                              "--out", os.path.join(out, RECOVERED), *self.graph_flags()])

    def recovery(self, out: str) -> float:
        model_a = read_checkpoint(self.path("model_a"))
        return identifiable_recovery(
            read_permutation_assignment(os.path.join(out, RECOVERED)),
            read_permutation_assignment(self.path("plant.perm")),
            self.graph(model_a.arch),
            model_a,
        )


class PlantedAttn(_MatchWorkload):
    name = "planted-attn"
    pool = 2
    verify_samples = 400

    def arch(self) -> ArchSpec:
        if self.smoke:
            return ArchSpec(1, 2, 8, 16, 4, 2, has_layernorm=True)
        return ArchSpec(2, 4, 128, 256, 16, 4, has_layernorm=True)

    def steps(self, out: str) -> list[Step]:
        perm = os.path.join(out, RECOVERED)
        return [
            self.match_step(out),
            Step("apply", ["apply", "--model", self.path("model_a"), "--perm", perm,
                           "--out", os.path.join(out, "model_a_aligned"), *self.graph_flags()]),
            self.verify_step(perm),
        ]

    def check(self, out: str, stdout: dict[str, str]) -> list[Check]:
        rate = self.recovery(out)
        return super().check(out, stdout) + [
            Check("recovery_rate", rate >= RECOVERY_FLOOR,
                  f"recovery {rate:.6f} (need >= {RECOVERY_FLOOR})")
        ]


class PrunedMlp(_MatchWorkload):
    name = "pruned-mlp"
    pool = 8
    residual_mode = "tie"
    unpin_embedding = True
    verify_samples = 1000
    dead_share = 0.75

    def arch(self) -> ArchSpec:
        if self.smoke:
            return ArchSpec(1, 2, 8, 32, 4, 2)
        # Width set by run time: on a 2-core Xeon VM one match at width 768
        # took 23-29 s (3 or 4 sweeps, by seed), too long to repeat within a
        # run; at 512 it takes 5-7 s.  At 448 it takes 3.5-6 s, by host
        # speed, with 93-95% of it in lap.solve_max (92% at 384), so a run
        # covers four to seven fixture sets of the pool.
        return ArchSpec(1, 8, 64, 448, 16, 4)

    def make_model_a(self, seed: int, rng: np.random.Generator):
        """Zero a random 75% of the hidden units: fc1 rows and bias, fc2 columns."""
        model = init_random(self.arch(), seed)
        width = model.arch.mlp_hidden
        dead = rng.choice(width, size=int(self.dead_share * width), replace=False)
        for b in range(model.arch.n_blocks):
            model.tensors[f"block.{b}.mlp.fc1.weight"][dead, :] = 0.0
            model.tensors[f"block.{b}.mlp.fc1.bias"][dead] = 0.0
            model.tensors[f"block.{b}.mlp.fc2.weight"][:, dead] = 0.0
        return model

    def steps(self, out: str) -> list[Step]:
        return [self.match_step(out), self.verify_step(os.path.join(out, RECOVERED))]


class PortFanout(Workload):
    name = "port-fanout"
    key_call = "transport"
    speed_task = "memory"

    def __init__(self, work: str, smoke: bool = False):
        super().__init__(work, smoke)
        self.n_vectors = 2 if smoke else 4

    def arch(self) -> ArchSpec:
        if self.smoke:
            return ArchSpec(1, 2, 8, 16, 4, 2, has_layernorm=True)
        return ArchSpec(4, 8, 512, 2048, 16, 4, has_layernorm=True)

    def setup(self, seed: int) -> None:
        """Base A, new base B, the assignment between them, and K fine-tuned
        variants of A (A plus a small dense delta)."""
        os.makedirs(self.work, exist_ok=True)
        seed_a, seed_b, seed_rest = _child_seeds(seed, 3)
        rng = np.random.default_rng(seed_rest)
        model_a = init_random(self.arch(), seed_a)
        write_checkpoint(model_a, self.path("model_a"))
        write_checkpoint(init_random(self.arch(), seed_b), self.path("model_b"))
        write_permutation_assignment(
            self.graph(model_a.arch).random_assignment(rng), self.path("assignment.perm")
        )
        for k in range(self.n_vectors):
            finetuned = _noisy(model_a, rng)
            write_checkpoint(finetuned, self.path(f"finetuned_{k}"))
            del finetuned

    def steps(self, out: str) -> list[Step]:
        perm = self.path("assignment.perm")
        steps = [Step("apply", ["apply", "--model", self.path("model_a"), "--perm", perm,
                                "--out", os.path.join(out, "model_a_aligned"), *self.graph_flags()])]
        for k in range(self.n_vectors):
            tau = os.path.join(out, f"tau_{k}")
            steps += [
                Step("task-vector", ["task-vector", "--finetuned", self.path(f"finetuned_{k}"),
                                     "--base", self.path("model_a"), "--out", tau]),
                Step("transport", ["transport", "--base", self.path("model_b"),
                                   "--task-vector", tau, "--perm", perm,
                                   "--out", os.path.join(out, f"ported_{k}"), *self.graph_flags()]),
            ]
        return steps + [self.verify_step(perm)]

    def check(self, out: str, stdout: dict[str, str]) -> list[Check]:
        """Each transported model minus B must be the permuted task vector:
        the stored float32 output equals float32(B + pi(tau)) bit for bit."""
        checks = super().check(out, stdout)
        base = read_checkpoint(self.path("model_b"))
        assignment = read_permutation_assignment(self.path("assignment.perm"))
        graph = self.graph(base.arch)
        for k in range(self.n_vectors):
            try:
                tau = read_task_vector(os.path.join(out, f"tau_{k}"))
                moved = apply_assignment(tau, graph, assignment)
                _, _, ported = read_container(os.path.join(out, f"ported_{k}"))
            except Exception as e:  # a missing or malformed output fails this check
                checks.append(Check(f"transport_{k}", False, f"{type(e).__name__}: {e}"))
                continue
            bad = [
                name for name, delta in moved.tensors.items()
                if not np.array_equal(
                    (base[name] + delta).astype("<f4").view("<u4"),
                    ported[name].astype("<f4").view("<u4"),
                )
            ]
            checks.append(Check(f"transport_{k}", not bad,
                                f"tensors differing from B + pi(tau): {bad[:3]}"))
        return checks


WORKLOADS = {w.name: w for w in (PlantedAttn, PrunedMlp, PortFanout)}


def fixture_sets(name: str, work: str, smoke: bool = False) -> list[Workload]:
    cls = WORKLOADS[name]
    return [cls(os.path.join(work, f"fixture_{i}"), smoke) for i in range(cls.pool)]


def setup_all(fixtures: list[Workload], seed: int) -> None:
    for fixture, fixture_seed in zip(fixtures, _child_seeds(seed, len(fixtures))):
        fixture.setup(fixture_seed)
