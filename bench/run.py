"""Benchmark of the multiroots library and CLI: time to solution.

Run from the root of a multiroots checkout:

    python3 bench/run.py --workload small --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Either way each metric is printed by
name with its unit, and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Every op's output is
checked against the generator's known roots.  ``attempted`` and ``failed``
count the distinct inputs of the run's pool, every one of which the run
checks: ``failed`` counts those whose output was wrong, that is an op that
raised, printed a traceback or exited unexpectedly, or that claimed success
with wrong roots.  ``correct`` is false on any of the first kind, or when
more than WRONG_CONVERGED_LIMIT of the inputs got a success with wrong
roots.  Honest misses, whose status says the roots were not found, are not
wrong outputs; they lower ``ok_ratio``.  See bench/README.md.

Standard library only; every workload runs in fresh interpreters
(``worker.py``) with ``PYTHONPATH=src``, so import time, set-up time and
memory belong to the library, not to this harness.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from reference import NOMINAL_COMPUTE_NS, NOMINAL_IMPORT_NS, compute_ns, import_ns

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("small", "wide_total", "wide_quadratic", "cli")

#: Tail percentile per workload.  It is fixed so that a faster program, which
#: completes more ops, is not compared at a higher percentile than a slower
#: one.  Each keeps at least ten ops above it at the library's speed when
#: this was written; on ``small`` it is p95 because its top 1% is set by the
#: few problems that run to max_iterations, whose count varies from seed to
#: seed, and on ``cli`` it is p80 because a run completes only about 70 ops.
TAIL_PERCENTILE = {"small": 95, "wide_total": 90, "wide_quadratic": 90, "cli": 80}
#: A success with wrong roots is a wrong output.  The library gives one on
#: about one problem in 40,000 (ROADMAP's stopping-rule defect), so a run
#: stays ``correct`` up to this share of inputs; a broken kernel or step
#: goes far beyond it.
WRONG_CONVERGED_LIMIT = 0.005
#: Set-up is timed this many times per run (fresh interpreters); the median
#: is reported.
SETUP_REPEATS = 7
#: Interpreter start and library import are timed this many times in a
#: traced run.
IMPORT_REPEATS = 5


class BenchError(RuntimeError):
    pass


def median_run_ms(argv, env, repeats) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=60)
        times.append((time.perf_counter() - start) * 1e3)
        if proc.returncode != 0:
            raise BenchError(f"{argv} failed: {proc.stderr.decode()[-500:]}")
    return statistics.median(times)


def start_worker(args, env, mode):
    """Start a worker; return it, the seconds from spawn to READY and the
    seconds of that set-up it spent computing."""
    argv = [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    start = time.perf_counter()
    # a session of its own, so that an overrunning worker is killed with the
    # processes it started
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    fields = line.split()
    if len(fields) != 2 or fields[0] != "READY":
        finish(proc, 10)
        raise BenchError(f"worker did not become ready in mode {mode}")
    return proc, setup, int(fields[1]) / 1e9


def finish(proc, timeout) -> str:
    """Wait for a worker and return its output; kill it if it overruns."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker overran its time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run_worker(args, env, mode) -> dict:
    proc, *_ = start_worker(args, env, mode)
    out = finish(proc, args.seconds + 120)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def percentile(samples, pct) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def end_to_end(args, env) -> tuple[dict, dict, list]:
    setups = []
    for k in range(SETUP_REPEATS):
        if k < SETUP_REPEATS - 1:
            proc, setup, computing = start_worker(args, env, "setup")
            finish(proc, 60)
        else:
            proc, setup, computing = start_worker(args, env, "timed")
        # the computing part is scaled by the compute probe, the rest
        # (interpreter start, imports, child processes) by the import probe
        compute_probe = statistics.median(compute_ns() for _ in range(5))
        scaled = ((setup - computing) * NOMINAL_IMPORT_NS / import_ns()
                  + computing * NOMINAL_COMPUTE_NS / compute_probe)
        setups.append((scaled, setup))
    out = finish(proc, args.seconds + 120).strip().splitlines()
    if not out:
        raise BenchError("worker printed no result")
    result = json.loads(out[-1])

    raw_ms = [ns / 1e6 for ns in result["latencies_ns"]]
    if len(raw_ms) < 2:
        raise BenchError("fewer than two ops completed; raise --seconds")
    nominal = NOMINAL_IMPORT_NS if args.workload == "cli" else NOMINAL_COMPUTE_NS
    scaled_ms = [ms * nominal / probe for ms, probe in zip(raw_ms, result["probe_ns"])]
    pct = TAIL_PERCENTILE[args.workload]
    tail = percentile(scaled_ms, pct)
    outcomes = result["outcomes"]
    ok_ratio = outcomes["ok"] / sum(outcomes.values())
    metrics = {
        "setup_s": (statistics.median(scaled for scaled, _ in setups), "s"),
        "latency_ms_p50": (statistics.median(scaled_ms), "ms"),
        "latency_ms_tail": (tail, "ms"),
        "ops_per_s": (len(scaled_ms) / (sum(scaled_ms) / 1e3), "1/s"),
        "ok_ratio": (ok_ratio, "ratio"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
    }
    notes = [f"times scaled to nominal machine speed; raw: setup_s "
             f"{statistics.median(raw for _, raw in setups):.6g}, latency_ms_p50 "
             f"{statistics.median(raw_ms):.6g}, latency_ms_tail {percentile(raw_ms, pct):.6g}, "
             f"speed probe {statistics.median(result['probe_ns']) / 1e6:.4g} ms "
             f"(nominal {nominal / 1e6:g})",
             f"latency_ms_tail is p{pct}: {sum(1 for x in scaled_ms if x > tail)} of "
             f"{len(scaled_ms)} ops above it",
             f"fail_ratio {1.0 - ok_ratio!r} ({sum(outcomes.values()) - outcomes['ok']} of "
             f"{sum(outcomes.values())} inputs)",
             f"outcomes per input {outcomes}, per op {result['op_outcomes']}"] + result["notes"]
    return metrics, outcomes, notes


def per_layer(args, env) -> tuple[dict, dict, list]:
    interpreter_ms = median_run_ms([sys.executable, "-c", "pass"], env, IMPORT_REPEATS)
    import_ms = median_run_ms([sys.executable, "-c", "import multiroots.cli"], env,
                              IMPORT_REPEATS) - interpreter_ms
    result = run_worker(args, env, "traced")
    s = result["summary"]
    ops = result["ops"]
    outcomes = result["outcomes"]

    def ratio(num, den):
        return num / den if den else 0.0

    def get(key):
        return s.get(key, 0)

    evals = get("polynomial.eval.calls")
    sweeps = get("sweeps")
    metrics = {
        "polynomial.eval.calls_per_op": (ratio(evals, ops), "count"),
        "polynomial.eval.us_per_call": (ratio(get("polynomial.eval.ns"), evals) / 1e3, "us"),
        "polynomial.eval.share": (ratio(get("polynomial.eval.ns"), result["traced_ns"]), "ratio"),
        "polynomial.eval.useful_ratio": (ratio(get("eval_distinct"), evals), "ratio"),
        "polynomial.integer_power.calls_per_op": (ratio(get("integer_power_calls"), ops), "count"),
        "compensated.horner_steps_per_op": (ratio(get("horner_steps"), ops), "count"),
        "compensated.ns_per_horner_step": (ratio(get("polynomial.eval.ns"), get("horner_steps")), "ns"),
        "iteration.sweeps_per_op": (ratio(sweeps, ops), "count"),
        "iteration.evals_per_sweep": (ratio(get("step_evals"), sweeps), "count"),
        "iteration.workspace.calls_per_op": (ratio(get("iteration.workspace.calls"), ops), "count"),
        "iteration.workspace.self_ms_per_call": (
            ratio(get("iteration.workspace.self_ns"), get("iteration.workspace.calls")) / 1e6, "ms"),
        "iteration.step.self_ms_per_sweep": (ratio(get("iteration.step.self_ns"), sweeps) / 1e6, "ms"),
        "iteration.solve.self_ms_per_op": (ratio(get("iteration.solve.self_ns"), ops) / 1e6, "ms"),
    }
    for status in ("Converged", "MaxIterations", "Collision", "SingularDenominator", "Overflow"):
        metrics["iteration.status." + status] = (get("status." + status), "count")
    metrics["iteration.wrong_converged"] = (outcomes["wrong_converged"], "count")
    for name in ("rootsystem.poly_from_roots", "theory.theorem_check", "theory.estimate_order",
                 "cli.parse_problem", "cli.emit_report"):
        metrics[name + ".ms_per_call"] = (ratio(get(name + ".ns"), get(name + ".calls")) / 1e6, "ms")
    metrics["cli.interpreter_ms"] = (interpreter_ms, "ms")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.output_bytes_per_op"] = (ratio(result.get("output_bytes", 0), ops), "bytes")
    metrics["trace.overhead_ratio"] = (ratio(result["traced_ns"], result["plain_ns"]), "ratio")
    inputs = sum(outcomes.values())
    metrics["fail_ratio"] = (ratio(inputs - outcomes["ok"], inputs), "ratio")
    notes = [f"{ops} ops, each run plain and traced",
             f"outcomes per input {outcomes}"] + result["notes"]
    return metrics, outcomes, notes


def main() -> int:
    parser = argparse.ArgumentParser(description="multiroots benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "multiroots", "__init__.py")):
        print("bench: src/multiroots not found; run from the root of a multiroots "
              "checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    try:
        # Build: import once so bytecode is compiled before anything is timed,
        # and make sure the library imported is the one in this checkout.
        probe = subprocess.run(
            [sys.executable, "-c", "import multiroots.cli as c; print(c.__file__)"],
            env=env, capture_output=True, text=True, timeout=120)
        if probe.returncode != 0 or not probe.stdout.strip().startswith(src):
            raise BenchError(f"cannot import multiroots from {src}: {probe.stderr[-500:]}")
        if args.trace:
            metrics, outcomes, notes = per_layer(args, env)
        else:
            metrics, outcomes, notes = end_to_end(args, env)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(outcomes.values())
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    print(json.dumps({
        "correct": (outcomes["wrong"] == 0
                    and outcomes["wrong_converged"] <= WRONG_CONVERGED_LIMIT * attempted),
        "attempted": attempted,
        "failed": outcomes["wrong"] + outcomes["wrong_converged"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
