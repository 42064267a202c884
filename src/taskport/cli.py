"""Command-line front end.

Exit codes are stable for scripting: 0 success, 1 I/O, format, usage or
out-of-memory problem, 2 architecture mismatch, 3 matcher hit its sweep cap
(assignment still written), 4 verification failed.  All randomness flows from
``--seed``, so every subcommand is reproducible.  ``apply``, ``task-vector``
and ``transport`` stream the library's checked tensor generators to the
container writer, one tensor at a time, after every input check has passed;
their ``--out`` may name an input, which is then replaced by a result equal
to a fresh output.  ``match`` and ``lmc`` refuse, before reading any
input, an output file that cannot be written or lies inside an input
container; no other output touches an input.  Flags are never abbreviated.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .checkpoint import (
    KIND_TASK_VECTOR,
    KIND_WEIGHT_SET,
    ArchSpec,
    ContainerReader,
    WeightSet,
    atomic_write,
    read_checkpoint,
    read_permutation_assignment,
    require_same_arch,
    write_checkpoint,
    write_container,
    write_permutation_assignment,
)
from .coupling import apply_assignment, build_coupling_graph, permuted_tensors
from .errors import ArchMismatchError, TaskportError
from .matching import format_trace, recovery_fraction, weight_match
from .model import (
    init_random,
    lmc_curve,
    make_blob_batch,
    read_eval_batch,
    train_toy,
    verify_equivalence,
    write_eval_batch,
)
from .transport import task_vector_tensors, transported_tensors

EXIT_OK = 0
EXIT_IO = 1
EXIT_ARCH = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VERIFY_FAIL = 4


class _Parser(argparse.ArgumentParser):
    """Reports a usage error with exit 1, keeping 2 for architecture mismatch,
    and takes no abbreviated flag, so a flag added later cannot make a prefix
    that works today ambiguous.  Every subparser is built as one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def _int_at_least(minimum: int):
    """An argparse type: an integer of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value

    return parse


def _finite_nonnegative(text: str) -> float:
    """An argparse type: a finite number >= 0 (a nan tolerance would fail
    every model and an infinite one certify any; a nan noise would add none;
    a nan or infinite alpha would make the ported model non-finite, and a
    nan, infinite or negative learning rate would not descend)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _alpha(text: str) -> float | list[float]:
    """An argparse type: one scaling factor, or one per block separated by
    commas, each held to the rule of ``_finite_nonnegative``."""
    factors = [_finite_nonnegative(factor) for factor in text.split(",")]
    return factors[0] if len(factors) == 1 else factors


def _graph(args, arch):
    return build_coupling_graph(arch, args.residual_mode, pin_embedding=not args.unpin_embedding)


def _refuse_outputs_on_inputs(inputs: dict[str, str], outputs: dict[str, str | None]) -> None:
    """Refuse, before any input is read, an output file that cannot be
    written (a directory, or a path in no directory), one directly inside an
    input container, which would leave that input unreadable, and two
    outputs that are one file.  Both maps go from flag to path."""
    containers = {os.path.realpath(path): f"{flag} {path}" for flag, path in inputs.items()}
    written: dict[str, str] = {}
    for flag, path in outputs.items():
        if path is None:
            continue
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path} is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValueError(f"{flag} {path}: directory {os.path.dirname(path)} does not exist")
        real = os.path.realpath(path)
        container = containers.get(os.path.dirname(real))
        if container:
            raise ValueError(f"{flag} {path} lies inside input {container}")
        if real in written:
            raise ValueError(f"{written[real]} and {flag} {path} are the same file")
        written[real] = f"{flag} {path}"


def cmd_match(args) -> int:
    _refuse_outputs_on_inputs({"--model-a": args.model_a, "--model-b": args.model_b},
                              {"--out": args.out, "--trace": args.trace})
    model_a = read_checkpoint(args.model_a)
    model_b = read_checkpoint(args.model_b)
    graph = _graph(args, model_a.arch)
    if args.dump_graph:
        print(graph.dump_table())
    result = weight_match(model_a, model_b, graph, max_sweeps=args.max_sweeps, seed=args.seed)
    write_permutation_assignment(result.assignment, args.out)
    if args.trace:
        atomic_write(args.trace, format_trace(result))
    if not result.converged:
        print(f"hit sweep cap ({args.max_sweeps}) before convergence", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"converged in {result.n_sweeps} sweeps; objective {result.trace[-1]:.12g}")
    return EXIT_OK


def cmd_apply(args) -> int:
    with ContainerReader(args.model, KIND_WEIGHT_SET) as model:
        assignment = read_permutation_assignment(args.perm)
        graph = _graph(args, model.arch)
        if args.dump_graph:
            print(graph.dump_table())
        write_container(args.out, model.arch, KIND_WEIGHT_SET, model.arch.tensor_shapes(),
                        permuted_tensors(model, graph, assignment, scratch={}))
    return EXIT_OK


def cmd_task_vector(args) -> int:
    with ContainerReader(args.finetuned, KIND_WEIGHT_SET) as finetuned, \
            ContainerReader(args.base, KIND_WEIGHT_SET) as base:
        write_container(args.out, base.arch, KIND_TASK_VECTOR, base.arch.tensor_shapes(),
                        task_vector_tensors(finetuned, base))
    return EXIT_OK


def cmd_transport(args) -> int:
    with ContainerReader(args.base, KIND_WEIGHT_SET) as base:
        n_blocks = base.arch.n_blocks
        if isinstance(args.alpha, list) and len(args.alpha) != n_blocks:
            raise ValueError(f"--alpha needs {n_blocks} factors, one per block, got {len(args.alpha)}")
        with ContainerReader(args.task_vector, KIND_TASK_VECTOR) as tv:
            require_same_arch(base.arch, tv.arch, "base model and task vector")  # before the .perm is read
            assignment = read_permutation_assignment(args.perm)
            write_container(args.out, base.arch, KIND_WEIGHT_SET, base.arch.tensor_shapes(),
                            transported_tensors(base, tv, _graph(args, base.arch), assignment, args.alpha))
    return EXIT_OK


def cmd_verify(args) -> int:
    model = read_checkpoint(args.model)
    assignment = read_permutation_assignment(args.perm)
    graph = _graph(args, model.arch)
    report = verify_equivalence(
        model, graph, assignment, n_samples=args.samples, tol=args.tol, seed=args.seed
    )
    print(f"max deviation {report.max_dev:.6g} (tol {report.tol:g})")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_lmc(args) -> int:
    _refuse_outputs_on_inputs({"--model-a": args.model_a, "--model-b": args.model_b, "--batch": args.batch},
                              {"--out": args.out})
    model_a = read_checkpoint(args.model_a)
    model_b = read_checkpoint(args.model_b)
    batch, batch_arch = read_eval_batch(args.batch)
    require_same_arch(model_a.arch, batch_arch, "models and eval batch")
    _write_curve(args.out, lmc_curve(model_a, model_b, batch, n_points=args.points))
    return EXIT_OK


def _write_curve(path: str, curve) -> None:
    rows = ["alpha,loss"] + [f"{a:.12g},{l:.12g}" for a, l in zip(curve.alphas, curve.losses)]
    atomic_write(path, "\n".join(rows) + "\n")


def cmd_demo(args) -> int:
    """End-to-end pipeline on synthetic models: train a toy model, hide it
    behind a random structured permutation plus noise, re-discover the
    permutation, certify equivalence, and compare interpolation curves."""
    if os.path.exists(args.out_dir) and not os.path.isdir(args.out_dir):
        raise ValueError(f"--out-dir {args.out_dir} is not a directory")
    arch = ArchSpec(
        n_blocks=args.blocks,
        n_heads=args.heads,
        embed_dim=args.embed_dim,
        mlp_hidden=args.mlp_hidden,
        input_dim=args.input_dim,
        output_dim=args.output_dim,
        has_layernorm=args.layernorm,
    )
    rng = np.random.default_rng(args.seed)
    report: list[str] = [
        f"seed: {args.seed}",
        f"noise: {args.noise:.12g}",
        f"arch: {arch.to_json_dict()}",
    ]

    batch = make_blob_batch(arch, n=64, seq_len=8, seed=args.seed + 1)
    with np.errstate(all="ignore"):  # train_toy reports a divergence itself
        model_a = train_toy(init_random(arch, args.seed), batch, steps=args.train_steps, lr=args.train_lr)
    os.makedirs(args.out_dir, exist_ok=True)
    write_checkpoint(model_a, os.path.join(args.out_dir, "model_a"))
    write_eval_batch(batch, arch, os.path.join(args.out_dir, "batch"))

    def plant_and_match(graph, tag):
        """Hide model A behind a random plant on ``graph`` plus noise, as a
        new model B, and match A onto it; writes ``model_b<tag>``,
        ``plant<tag>.perm`` and ``recovered<tag>.perm``."""
        plant = graph.random_assignment(rng)
        tensors = {}
        for name, arr in zip(arch.tensor_shapes(), permuted_tensors(model_a, graph, plant)):
            std = float(arr.std())
            noisy = args.noise > 0 and std > 0
            tensors[name] = arr + rng.normal(0.0, args.noise * std, arr.shape) if noisy else arr
        model_b = WeightSet(arch, tensors)
        write_checkpoint(model_b, os.path.join(args.out_dir, f"model_b{tag}"))
        write_permutation_assignment(plant, os.path.join(args.out_dir, f"plant{tag}.perm"))
        result = weight_match(model_a, model_b, graph, max_sweeps=args.max_sweeps, seed=args.seed)
        write_permutation_assignment(result.assignment, os.path.join(args.out_dir, f"recovered{tag}.perm"))
        return model_b, result, recovery_fraction(result.assignment, plant, graph)

    # Compose-mode plant, match, and functional-equivalence certificate.
    graph = build_coupling_graph(arch, "compose")
    _, result, recovery = plant_and_match(graph, "")
    atomic_write(os.path.join(args.out_dir, "trace.txt"), format_trace(result))
    equiv = verify_equivalence(model_a, graph, result.assignment, n_samples=32, tol=args.tol, seed=args.seed)
    report += [
        "",
        "[compose]",
        f"converged: {result.converged} after {result.n_sweeps} sweeps",
        "objective trace: " + " ".join(f"{t:.12g}" for t in result.trace),
        f"recovery_rate: {recovery:.12g}",
        f"recovery_ok: {'yes' if recovery >= 0.99 else 'no (matcher could not undo this much noise)'}",
        f"equivalence_max_dev: {equiv.max_dev:.12g} (tol {equiv.tol:g}) passed: {equiv.passed}",
    ]

    # Tie-mode plant for interpolation: permuted models keep identity skips,
    # so plain weight interpolation is meaningful.
    graph_tie = build_coupling_graph(arch, "tie", pin_embedding=False)
    model_b_tie, result_tie, recovery_tie = plant_and_match(graph_tie, "_tie")
    matched_a = apply_assignment(model_a, graph_tie, result_tie.assignment)
    curve_matched = lmc_curve(matched_a, model_b_tie, batch, n_points=args.points)
    curve_naive = lmc_curve(model_a, model_b_tie, batch, n_points=args.points)
    _write_curve(os.path.join(args.out_dir, "lmc_matched.csv"), curve_matched)
    _write_curve(os.path.join(args.out_dir, "lmc_naive.csv"), curve_naive)
    mid = args.points // 2
    report += [
        "",
        "[tie interpolation]",
        f"recovery_rate: {recovery_tie:.12g}",
        f"endpoint losses: {curve_matched.losses[0]:.12g} {curve_matched.losses[-1]:.12g}",
        f"midpoint loss matched: {curve_matched.losses[mid]:.12g}",
        f"midpoint loss naive: {curve_naive.losses[mid]:.12g}",
    ]

    atomic_write(os.path.join(args.out_dir, "report.txt"), "\n".join(report) + "\n")
    print("\n".join(report))
    return EXIT_OK


def _add_graph_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--residual-mode", choices=("compose", "tie"), default="compose")
    parser.add_argument("--unpin-embedding", action="store_true",
                        help="let the matcher permute the embedding output as well")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="taskport")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("match", help="match model A's units onto model B's")
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-sweeps", type=_int_at_least(1), default=50)
    p.add_argument("--trace", default=None)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    _add_graph_flags(p)
    p.add_argument("--dump-graph", action="store_true",
                   help="print the permutation application table")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("apply", help="apply a permutation assignment to a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--perm", required=True)
    p.add_argument("--out", required=True)
    _add_graph_flags(p)
    p.add_argument("--dump-graph", action="store_true",
                   help="print the permutation application table")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("task-vector", help="fine-tuned minus base, stored as a task vector")
    p.add_argument("--finetuned", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_task_vector)

    p = sub.add_parser("transport", help="add a permuted, scaled task vector to a base model")
    p.add_argument("--base", required=True)
    p.add_argument("--task-vector", required=True)
    p.add_argument("--perm", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=_alpha, default=1.0,
                   help="one scaling factor, or one per block separated by commas")
    _add_graph_flags(p)
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("verify", help="check a permuted model computes the same function")
    p.add_argument("--model", required=True)
    p.add_argument("--perm", required=True)
    p.add_argument("--samples", type=_int_at_least(1), default=100)
    p.add_argument("--tol", type=_finite_nonnegative, default=1e-8)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    _add_graph_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lmc", help="loss along the straight line between two checkpoints")
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--batch", required=True)
    p.add_argument("--points", type=_int_at_least(2), default=11)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lmc)

    p = sub.add_parser("demo", help="synthetic end-to-end plant/match/verify/interpolate run")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--noise", type=_finite_nonnegative, default=0.01)
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--embed-dim", type=int, default=32)
    p.add_argument("--mlp-hidden", type=int, default=64)
    p.add_argument("--input-dim", type=int, default=16)
    p.add_argument("--output-dim", type=int, default=4)
    p.add_argument("--layernorm", action="store_true")
    p.add_argument("--train-steps", type=_int_at_least(0), default=150)
    p.add_argument("--train-lr", type=_finite_nonnegative, default=0.02)
    p.add_argument("--max-sweeps", type=_int_at_least(1), default=50)
    p.add_argument("--points", type=_int_at_least(2), default=11)
    p.add_argument("--tol", type=_finite_nonnegative, default=1e-8)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ArchMismatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ARCH
    except (TaskportError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
