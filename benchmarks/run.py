"""taskport benchmark: CLI sessions on seeded fixtures, end to end or traced.

    python3 benchmarks/run.py --workload planted-attn --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --smoke

Run from the root of a source checkout; the program is imported from
``src/``.  One run makes the workload's fixtures from ``--seed`` (at least
three times and for at least a second, reporting the median set-up time),
and writes them through to disk.  Then a child process runs one untimed
warm-up session on a tiny fixture set and drives CLI sessions through
``taskport.cli.main`` - one caller that waits for each reply - until
``--seconds`` have passed, with BLAS pinned to one thread.  Between sessions,
untimed, it digests each session's outputs and deletes those of a repeat
session, so that gigabytes of repeat outputs never reach the page cache's
writeback.  The child does nothing else, so its peak RSS is the sessions'
peak; no timed pass runs ``tracemalloc``.  Outputs are checked after the
child exits.

Set-up and the timed sessions run under ``calibration.SpeedSampler``: a
timer signal samples the core's speed with a small task of the same kind as
the workload's hot loop, the time spent sampling is taken out of every
timing, and the end-to-end times are scaled to the task's nominal speed
(see ``calibration.py`` for why and how well).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced session and prints the per-layer metrics from the span
recorder in ``spans.py``.  The last line of standard output is the result
JSON; the full record, with the environment, goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.  ``--smoke`` runs every
workload at a tiny size and checks the result shape.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from environment import BLAS_THREAD_VARS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCES = os.path.join(BENCH_DIR, "reference_perms.json")
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 1.0
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "session_s": "s",
    "key_call_s": "s",
    "verify_s": "s",
    "peak_rss_mib": "MiB",
}
RUN_METRICS = {
    "trace.overhead_ratio": "ratio",
    "error_rate": "ratio",
    "recovery_rate": "ratio",
}


def _pin_blas_and_import_path() -> None:
    """Must run before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isdir(os.path.join(SRC, "taskport")):
        raise SystemExit(f"error: no taskport sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)


# --------------------------------------------------------------------------
# child: the timed (or traced) sessions


def _call(argv: list[str], sampler) -> dict:
    """One CLI call, timed without the speed sampler's time.  A non-zero exit
    or any exception is a failed call whose error text is kept; the session
    carries on."""
    from taskport import cli

    out, err = io.StringIO(), io.StringIO()
    busy = sampler.busy_s
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        error = None if code == 0 else f"exit {code}: {err.getvalue().strip()}"
    except (Exception, SystemExit) as e:  # RecursionError included
        error = f"{type(e).__name__}: {e}"
    s = time.perf_counter() - start - (sampler.busy_s - busy)
    return {"s": s, "error": error, "stdout": out.getvalue()}


def _session(fixture, out: str, index: int, sampler) -> dict:
    """One session; its speed factor comes from the samples taken during it
    (1 where the sampler is not running)."""
    os.makedirs(out, exist_ok=True)
    calls = []
    first_sample = len(sampler.samples)
    for step in fixture.steps(out):
        calls.append({"kind": step.kind, **_call(step.argv, sampler)})
    return {"fixture": index, "out": out, "s": sum(c["s"] for c in calls), "calls": calls,
            "factor": sampler.factor(first_sample)}


def child_main(args) -> int:
    from calibration import SpeedSampler
    from spans import SpanRecorder
    from workloads import WORKLOADS, fixture_sets, output_digests

    # Warm-up, untimed: one session on a tiny fixture set of the workload, so
    # that imports and first-call costs stay out of the measured sessions.
    warm = WORKLOADS[args.workload](os.path.join(args.work, "warmup"), smoke=True)
    warm.setup(0)
    sampler = SpeedSampler(warm.speed_task)
    _session(warm, os.path.join(args.work, "warmup_out"), -1, sampler)
    shutil.rmtree(warm.work)
    shutil.rmtree(os.path.join(args.work, "warmup_out"))

    fixtures = fixture_sets(args.workload, args.work, args.smoke)
    sessions, kept = [], set()
    result: dict = {"sessions": sessions}

    def run_session(index: int, tag: str) -> None:
        """Untimed after the session: digest its outputs, and delete those of
        a repeat session, so their pages never reach the disk and the page
        cache stays small; the first session on a fixture set keeps its
        outputs for the full checks."""
        out = os.path.join(args.work, f"session_{len(sessions)}{tag}")
        session = _session(fixtures[index], out, index, sampler)
        session["digests"] = output_digests(out)
        if index in kept:
            shutil.rmtree(out)
        kept.add(index)
        sessions.append(session)

    if args.trace:
        run_session(0, "_untraced")
        recorder = SpanRecorder()
        recorder.install()
        try:
            run_session(0, "_traced")
        finally:
            recorder.uninstall()
        result["per_layer"] = recorder.per_layer()
        result["self_s_total"] = sum(v["self_s"] for v in recorder.summary().values())
        result["absent"] = recorder.absent
        result["hook_errors"] = recorder.counters["trace.hook_errors"]
    else:
        start = time.perf_counter()
        with sampler:
            while not sessions or time.perf_counter() - start < args.seconds:
                run_session(len(sessions) % len(fixtures), "")
        result["samples"] = sampler.samples
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------
# parent: set-up, checks and the result line


def _run_child(args, work: str, timeout: float) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", "--workload", args.workload,
           "--work", work, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"sessions": [], "error": f"session process timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"sessions": [], "error": f"session process exit {proc.returncode}: "
                                         f"{proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _sync_files(root: str) -> None:
    """Write the fixtures through to disk before the sessions start, so that
    their writeback does not run while calls are timed."""
    for base, _, files in os.walk(root):
        for name in files:
            fd = os.open(os.path.join(base, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def _check_sessions(fixtures, sessions: list[dict], references: list[str]) -> tuple[list, dict]:
    """The first session on each fixture set gets the workload's full output
    checks (and, where ``references`` holds the recorded digest of that
    fixture's recovered assignment, a digest check); every later session on
    the same fixture set must leave byte-identical outputs.  Returns the
    checks and, per fixture, the digests and recovery rate."""
    from workloads import RECOVERED, Check

    checks, firsts = [], {}
    for j, session in enumerate(sessions):
        index, out = session["fixture"], session["out"]
        digests = session["digests"]
        if index in firsts:
            first = firsts[index]
            checks.append(Check(f"session_{j}_outputs", digests == first["digests"],
                                f"byte-identical to session {first['session']}"))
            continue
        fixture = fixtures[index]
        stdout = {c["kind"]: c["stdout"] for c in session["calls"]}
        recovery = None
        try:
            checks += fixture.check(out, stdout)
            recovery = fixture.recovery(out)
        except Exception as e:  # missing or unreadable outputs fail the check
            checks.append(Check(f"session_{j}_outputs", False, f"{type(e).__name__}: {e}"))
        if index < len(references):
            got = digests.get(RECOVERED)
            checks.append(Check(f"reference_digest_{index}", got == references[index],
                                f"{RECOVERED} sha256 {got} (reference {references[index]})"))
        firsts[index] = {"session": j, "digests": digests, "recovery": recovery}
    return checks, firsts


def run_workload(args) -> dict:
    """One benchmark run; returns the full record (result line plus detail)."""
    import environment
    from calibration import SpeedSampler
    from spans import PER_LAYER_METRICS
    from workloads import fixture_sets, setup_all

    started = time.perf_counter()
    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    fixtures = fixture_sets(args.workload, work, args.smoke)
    references = []
    if not args.smoke:
        with open(REFERENCES, encoding="utf-8") as f:
            references = json.load(f).get(args.workload, {}).get(str(args.seed), [])
    try:
        setup_times, setup_sampler = [], SpeedSampler(fixtures[0].speed_task)
        with setup_sampler:
            while len(setup_times) < (1 if args.trace else SETUP_MIN_REPEATS) or (
                not args.trace and sum(setup_times) < SETUP_MIN_S
            ):
                busy = setup_sampler.busy_s
                t0 = time.perf_counter()
                setup_all(fixtures, args.seed)
                setup_times.append(time.perf_counter() - t0 - (setup_sampler.busy_s - busy))
        _sync_files(work)
        child = _run_child(args, work, RUN_LIMIT_S - (time.perf_counter() - started))
        sessions = child["sessions"]
        checks, firsts = _check_sessions(fixtures, sessions, references)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = [c for s in sessions for c in s["calls"]]
    setup_factor = setup_sampler.factor()
    failed_calls = [c for c in calls if c["error"]]
    failed_checks = [c for c in checks if not c.ok]
    errors = [f"{c['kind']}: {c['error']}" for c in failed_calls]
    errors += [f"check {c.name}: {c.detail}" for c in failed_checks]
    if "error" in child:
        errors.append(child["error"])
    attempted = max(1, len(calls) + len(checks))
    failed = len(failed_calls) + len(failed_checks) + ("error" in child)
    recoveries = [f["recovery"] for f in firsts.values() if f["recovery"] is not None]

    def median_of(kind: str) -> float:
        """Median scaled time of the calls of one kind."""
        times = [c["s"] * s["factor"] for s in sessions for c in s["calls"] if c["kind"] == kind]
        return statistics.median(times) if times else 0.0

    if args.trace:
        untraced = sessions[0]["s"] if sessions else 0.0
        traced = sessions[1]["s"] if len(sessions) > 1 else 0.0
        values = dict(child.get("per_layer", {}))
        values["trace.overhead_ratio"] = traced / untraced if untraced else 0.0
        values["error_rate"] = failed / attempted
        values["recovery_rate"] = min(recoveries, default=0.0)
        units = {**PER_LAYER_METRICS, **RUN_METRICS}
    else:
        values = {
            "setup_s": statistics.median(setup_times) * setup_factor,
            "session_s": statistics.median(s["s"] * s["factor"] for s in sessions)
            if sessions else 0.0,
            "key_call_s": median_of(fixtures[0].key_call),
            "verify_s": median_of("verify"),
            "peak_rss_mib": child.get("peak_rss_kib", 0) / 1024.0,
        }
        units = END_TO_END
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
    return {
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "environment": environment.record(args.workload, args.seed),
        "seconds": args.seconds,
        "setup_speed_factor": setup_factor,
        "speed_samples": len(child.get("samples", [])),
        "setup_times": setup_times,
        "sessions": [{"fixture": s["fixture"], "s": s["s"], "factor": s["factor"],
                      "calls": [{"kind": c["kind"], "s": c["s"], "error": c["error"],
                                 "stdout": c["stdout"].strip()[:200]} for c in s["calls"]]}
                     for s in sessions],
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
        "errors": errors,
        "fixtures": {i: {"recovered_sha256": f["digests"].get("recovered.perm"),
                         "recovery_rate": f["recovery"]} for i, f in sorted(firsts.items())},
        "absent": child.get("absent", []),
        "hook_errors": child.get("hook_errors", 0),
        "self_s_total": child.get("self_s_total"),
    }


def _write_record(record: dict, args) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)


def smoke_main() -> int:
    """Every workload at a tiny size, traced and untraced: every metric named
    in BENCHMARK.json is present, nothing fails, and the per-layer self times
    sum to no more than the traced session's wall time."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=workload, seed=0, seconds=0.0, trace=trace,
                                      smoke=True)
            record = run_workload(args)
            result = record["result"]
            where = f"{workload} trace={trace}"
            missing = {m["name"] for m in spec[section]} - set(result["metrics"])
            if missing:
                problems.append(f"{where}: missing metrics {sorted(missing)}")
            if result["failed"]:
                problems.append(f"{where}: failures {record['errors']}")
            if trace:
                wall = record["sessions"][1]["s"] if len(record["sessions"]) > 1 else 0.0
                if not record["self_s_total"] or record["self_s_total"] > wall:
                    problems.append(f"{where}: self times {record['self_s_total']} > wall {wall}")
            print(f"smoke {where}: {'ok' if not problems else 'FAIL'}")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("planted-attn", "pruned-mlp", "port-fanout"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; with no workload, "
                        "run the benchmark's self-check over all workloads")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _pin_blas_and_import_path()
    if args.child:
        return child_main(args)
    if args.workload is None:
        if args.smoke:
            return smoke_main()
        parser.error("--workload is required")
    record = run_workload(args)
    _write_record(record, args)
    env = record["environment"]
    print(f"environment: {json.dumps(env)}")
    for error in record["errors"]:
        print(f"error: {error}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
