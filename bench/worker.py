"""One workload in one fresh interpreter: set up, say READY, then run ops.

    python3 bench/worker.py --workload small --seed 1 --seconds 10 --mode timed

``run.py`` starts this with ``PYTHONPATH=src`` and times it from process
start to the READY line (the set-up time).  The READY line also carries the
ns of set-up spent computing in this process (generating inputs, building
polynomials, warm-up solves), so that ``run.py`` can scale that part and the
rest (interpreter start, imports, child processes) each by its own probe.
Modes:

setup   set up, print READY, exit.
timed   closed loop, one client: run ops back to back for ``--seconds`` and
        print one JSON line with the per-op latencies and outcomes.  The
        runner's speed probe (``reference.py``) runs every ``probe_period``
        ns, and each op carries the median of the last ``probe_window``
        probe times, to scale it by.
traced  as timed, but each op runs twice, once plain and once with the
        tracer installed, and the line carries the tracer's counters.

An op is one ``solve()`` call on the in-process workloads and one
``python -m multiroots ...`` process on ``cli``.  Each op is checked against
the generator's known roots and its expected exit code, with outcome
``ok``, ``miss`` (an honest failure: the roots are off but the status or exit
code says so), ``wrong_converged`` (a success whose roots are off) or
``wrong`` (an exception, a traceback, or an unexpected exit code or output
on a valid input).

Ops cycle through a fixed pool of inputs.  Outcomes are reported per input
(``Inputs``), and every run checks every input of its pool, so a run's
counts depend on its seed and not on how many ops fit in its time.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time

import workloads as wl
from reference import compute_ns, import_ns
from tracer import Tracer, merge

IN_PROCESS = ("small", "wide_total", "wide_quadratic")
#: Problems generated per run; the loop cycles through them in order.
POOL_SIZE = {"small": 2000, "wide_total": 84, "wide_quadratic": 60, "cli": 35}
#: Problems solved once before READY.
WARMUP = {"small": 20, "wide_total": 1, "wide_quadratic": 1}

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 120


# ---------------------------------------------------------------------------
# in-process workloads

def make_problems(workload: str, rng: random.Random) -> list:
    count = POOL_SIZE[workload]
    if workload == "small":
        return wl.small_problems(rng, count)
    if workload == "wide_total":
        return wl.wide_total_problems(rng, count)
    return wl.wide_quadratic_problems(rng, count)


class InProcess:
    """Solves in this process.  With ``traced``, the tracer is installed
    during set-up (so ``poly_from_roots`` is counted there) and around each
    traced op."""

    output_bytes = 0
    peak_rss_kb = 0
    probe = staticmethod(compute_ns)
    probe_period = 100_000_000
    probe_window = 5

    def __init__(self, workload: str, seed: int, traced: bool):
        from multiroots import iteration, polynomial, rootsystem

        start = time.perf_counter_ns()
        self.iteration = iteration
        self.tracer = Tracer().install() if traced else None
        self.problems = make_problems(workload, random.Random(seed))
        self.pool_size = len(self.problems)
        self.prepared = []
        for p in self.problems:
            if p.coefficients is None:
                poly = rootsystem.poly_from_roots(
                    rootsystem.RootSystem(p.roots, p.multiplicities))
            else:
                poly = polynomial.MonicPolynomial(p.coefficients)
            config = iteration.SolveConfig(
                update_mode=iteration.UpdateMode(p.mode), **p.config)
            self.prepared.append((poly, config))
        for k in range(min(WARMUP[workload], len(self.problems))):
            self.run(k)
        if self.tracer is not None:
            self.tracer.uninstall()
        self.compute_ns = time.perf_counter_ns() - start

    def summary(self) -> dict:
        return self.tracer.summary() if self.tracer is not None else {}

    def run(self, k: int, traced: bool = False) -> tuple[str, int, str]:
        """Solve problem k (mod pool size); return (outcome, ns, status)."""
        p = self.problems[k % len(self.problems)]
        poly, config = self.prepared[k % len(self.problems)]
        if traced:
            self.tracer.op = k
            self.tracer.install()
        start = time.perf_counter_ns()
        try:
            report = self.iteration.solve(poly, p.multiplicities, p.initial, config,
                                          use_simple_step=p.simple_step)
        except Exception as exc:  # the library promises statuses, not raises
            return "wrong", time.perf_counter_ns() - start, f"{type(exc).__name__}: {exc}"
        finally:
            if traced:
                self.tracer.uninstall()
                self.tracer.op = -1
        ns = time.perf_counter_ns() - start
        status = report.status.value
        if p.accurate(report.final):
            return "ok", ns, status
        return ("wrong_converged" if status == "Converged" else "miss"), ns, status


# ---------------------------------------------------------------------------
# cli workload

CLI_KINDS = (
    ("demo", "table", None),
    ("solve", "json", "roots"),
    ("solve", "csv", "coefficients"),
    ("order", "json", "roots"),
    ("solve", "json", "coefficients"),
    ("solve", "csv", "roots"),
    ("check-theorem", "json", "roots"),
)
THEOREM_Q = 0.5


def _pair(z: complex) -> list:
    return [z.real, z.imag]


class CliOp:
    """One CLI invocation with everything needed to check its output."""

    def __init__(self, kind, problem=None, c=None):
        self.command, self.fmt, form = kind
        self.problem, self.c = problem, c
        self.args = [self.command, "--format", self.fmt]
        self.stdin = ""
        if self.command == "check-theorem":
            self.args += ["--c", repr(c), "--q", repr(THEOREM_Q)]
            self.stdin = json.dumps({
                "roots": [_pair(r) for r in problem.roots],
                "multiplicities": list(problem.multiplicities)})
        elif problem is not None:
            doc = {"multiplicities": list(problem.multiplicities),
                   "initial": [_pair(z) for z in problem.initial],
                   "config": dict(problem.config, update_mode=problem.mode)}
            if form == "roots":
                doc["roots"] = [_pair(r) for r in problem.roots]
            else:
                points = [(int(r.real), int(r.imag)) for r in problem.roots]
                doc["coefficients"] = [
                    _pair(a) for a in wl.gaussian_coefficients(points, problem.multiplicities)]
            self.stdin = json.dumps(doc)

    def check(self, code: int, out: str, err: str) -> str:
        if "Traceback" in err or "Traceback" in out:
            return "wrong"
        try:
            return getattr(self, "_check_" + self.command.replace("-", "_"))(code, out)
        except (ValueError, KeyError, IndexError, TypeError):
            return "wrong"  # output that does not parse as the format promises

    def _honest_failure(self, code: int) -> str:
        # exit 2 (MaxIterations) and 3 (numerical failure) are honest misses
        return "miss" if code in (2, 3) else "wrong"

    def _check_demo(self, code, out):
        lines = out.splitlines()
        k1 = [float(tok) for tok in lines[2].split()[1:]]
        row_ok = len(k1) == 3 and all(
            abs(got - want) <= 5e-12 * abs(want) for got, want in zip(k1, wl.DEMO_K1_ROW))
        final = [complex(tok.strip()) for tok in
                 out.split("final:", 1)[1].strip().split(",")]
        demo = wl.Problem("demo", wl.DEMO_ROOTS, wl.DEMO_MULTIPLICITIES,
                          wl.DEMO_INITIAL, wl.DEMO_CONFIG)
        if code == 0 and not demo.accurate(final):
            return "wrong_converged"
        good = (code == 0 and row_ok and "status: Converged" in out
                and "iterations_used: 3\n" in out)
        return "ok" if good else "wrong"

    def _check_solve(self, code, out):
        if self.fmt == "json":
            data = json.loads(out)
            status = data["status"]
            final = [complex(re, im) for re, im in data["final"]]
            if (status == "Converged") != (code == 0):
                return "wrong"
        else:
            last = out.strip().splitlines()[-1].split(",")
            final = [complex(float(last[1 + 4 * i]), float(last[2 + 4 * i]))
                     for i in range(self.problem.m)]
        if code == 0:
            return "ok" if self.problem.accurate(final) else "wrong_converged"
        return self._honest_failure(code)

    def _check_order(self, code, out):
        data = json.loads(out)
        if code != 0:
            return self._honest_failure(code)
        orders = data["orders"]
        shape_ok = (data["status"] in ("Converged", "MaxIterations")
                    and len(orders) == self.problem.m
                    and all(o is None or math.isfinite(o) for o in orders))
        return "ok" if shape_ok else "wrong"   # order prints no roots to check

    def _check_check_theorem(self, code, out):
        data = json.loads(out)
        p = self.problem
        d = min(abs(a - b) for i, a in enumerate(p.roots) for b in p.roots[:i])
        expected = theorem_guaranteed(d, p.degree, min(p.multiplicities), self.c, THEOREM_Q)
        good = (data["n"] == p.degree and abs(data["d"] - d) <= 1e-15 * d
                and data["guaranteed"] == (code == 0) and code in (0, 4)
                and (expected is None or expected == data["guaranteed"]))
        return "ok" if good else "wrong"


def theorem_guaranteed(d, n, alpha_min, c, q):
    """The paper's sufficient condition, evaluated independently of the
    library; None when the margin is too close to 0 to call."""
    gap = d - 2.0 * c
    if gap <= 0.0 or q >= 1.0:
        return False
    ratio = c / gap
    big_m = (1.0 + ratio) ** n - 1.0
    big_n = (1.0 + n * ratio * ratio) ** (n - 1) - 1.0
    lhs = (2.0 * c * c * n / (gap * gap)) * (ratio + (1.0 + ratio) * (big_n + big_m * big_n + big_m))
    margin = alpha_min - lhs
    if abs(margin) <= 1e-9 * max(1.0, alpha_min):
        return None
    return margin > 0.0


def make_cli_ops(rng: random.Random) -> list[CliOp]:
    ops = []
    small = iter(wl.small_problems(rng, 10 * POOL_SIZE["cli"])[1:])
    for k in range(POOL_SIZE["cli"]):
        kind = CLI_KINDS[k % len(CLI_KINDS)]
        if kind[0] == "demo":
            ops.append(CliOp(kind))
            continue
        problem = next(small)
        if kind[0] == "check-theorem":
            while problem.m < 2:  # the guarantee is defined for m >= 2 only
                problem = next(small)
            ops.append(CliOp(kind, problem, c=rng.uniform(0.005, 0.1)))
        else:
            ops.append(CliOp(kind, problem))
    return ops


def spawn(argv, stdin: str):
    """Run a child to completion; return (ns, exit code, stdout, stderr,
    the child's own peak RSS in KiB).  The child is reaped with ``wait4``
    so that its resource use is its own, not the maximum over every child
    this process has waited for.  A child still running after
    CHILD_TIMEOUT_S is killed, and its exit code then says so."""
    start = time.perf_counter_ns()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    err = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    try:
        proc.stdin.write(stdin.encode())
        proc.stdin.close()
        out = proc.stdout.read()
    finally:
        drain.join()
        killer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    ns = time.perf_counter_ns() - start
    return ns, proc.returncode, out.decode(), err[0].decode(), usage.ru_maxrss


class Cli:
    """Runs each op as a child process; traced ops run ``cli_traced.py``,
    whose counters are added up here.

    The speed probe is a reference process of the same kind as an op, an
    interpreter importing numpy, run before every op; each op is scaled by
    the two probes nearest before it."""

    probe = staticmethod(import_ns)
    probe_period = 0
    probe_window = 2

    def __init__(self, seed: int):
        start = time.perf_counter_ns()
        self.ops = make_cli_ops(random.Random(seed))
        self.compute_ns = time.perf_counter_ns() - start
        self.pool_size = len(self.ops)
        self.output_bytes = 0
        self.peak_rss_kb = 0
        self.counters: dict = {}
        # warm the page cache and the bytecode cache
        spawn([sys.executable, "-m", "multiroots", "demo"], "")

    def summary(self) -> dict:
        return self.counters

    def run(self, k: int, traced: bool = False) -> tuple[str, int, str]:
        """Run op k (mod pool size); return (outcome, ns, command)."""
        op = self.ops[k % len(self.ops)]
        if traced:
            argv = [sys.executable, os.path.join(HERE, "cli_traced.py"), *op.args]
            ns, code, out, err, _ = spawn(argv, op.stdin)
            if code != 0 or not out:
                return "wrong", ns, op.command
            envelope = json.loads(out.strip().splitlines()[-1])
            merge(self.counters, envelope["summary"])
            return op.check(envelope["exit"], envelope["stdout"], err), ns, op.command
        ns, code, out, err, rss_kb = spawn([sys.executable, "-m", "multiroots", *op.args],
                                           op.stdin)
        self.output_bytes += len(out.encode())
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        return op.check(code, out, err), ns, op.command


# ---------------------------------------------------------------------------

#: ``miss`` is an honest failure that the output itself reports; the last
#: two are wrong outputs.
OUTCOMES = ("ok", "miss", "wrong_converged", "wrong")


class Inputs:
    """The outcome of each input of a runner's pool.

    Ops cycle through the pool, so most inputs are run many times.  The
    library is deterministic, so every op on an input must give the same
    outcome; an input whose outcomes differ is ``wrong``.  ``complete`` runs,
    untimed, every input the loop did not reach, so that every run checks
    its whole pool.
    """

    def __init__(self, runner):
        self.runner = runner
        self.outcome = [None] * runner.pool_size
        self.notes: list[str] = []

    def record(self, k: int, outcome: str, note: str) -> None:
        i = k % len(self.outcome)
        seen = self.outcome[i]
        if seen is None:
            self.outcome[i] = outcome
        elif seen != outcome:
            self.outcome[i] = "wrong"
            note = f"outcomes differ between runs: {seen}, then {outcome}"
        else:
            return
        if self.outcome[i] != "ok" and len(self.notes) < 5:
            self.notes.append(f"input {i}: {self.outcome[i]} ({note})")

    def complete(self) -> dict:
        for i, seen in enumerate(self.outcome):
            if seen is None:
                outcome, _, note = self.runner.run(i)
                self.record(i, outcome, note)
        return {name: self.outcome.count(name) for name in OUTCOMES}


def timed_loop(runner, seconds: float) -> dict:
    latencies, probes, op_outcomes = [], [], dict.fromkeys(OUTCOMES, 0)
    inputs = Inputs(runner)
    recent = collections.deque(maxlen=runner.probe_window)
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    next_probe = 0
    k = 0
    while (now := time.perf_counter_ns()) < deadline:
        if now >= next_probe:
            recent.append(runner.probe())
            next_probe = now + runner.probe_period
        outcome, ns, note = runner.run(k)
        latencies.append(ns)
        probes.append(statistics.median(recent))
        op_outcomes[outcome] += 1
        inputs.record(k, outcome, note)
        k += 1
    return {"latencies_ns": latencies, "probe_ns": probes, "op_outcomes": op_outcomes,
            "outcomes": inputs.complete(), "notes": inputs.notes}


def traced_loop(runner, seconds: float) -> dict:
    """Each op runs plain and traced, in alternating order; the outcome
    recorded is the plain run's."""
    inputs = Inputs(runner)
    plain_ns = traced_ns = 0
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    k = 0
    while time.perf_counter_ns() < deadline:
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            outcome, ns, note = runner.run(k, traced)
            if traced:
                traced_ns += ns
            else:
                plain_ns += ns
                inputs.record(k, outcome, note)
        k += 1
    # counters and output bytes cover the ops above only
    summary, output_bytes = runner.summary(), runner.output_bytes
    return {"ops": k, "plain_ns": plain_ns, "traced_ns": traced_ns,
            "outcomes": inputs.complete(), "summary": summary,
            "output_bytes": output_bytes, "notes": inputs.notes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=IN_PROCESS + ("cli",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), default="timed")
    args = parser.parse_args()

    is_cli = args.workload == "cli"
    if is_cli:
        runner = Cli(args.seed)
    else:
        runner = InProcess(args.workload, args.seed, traced=args.mode == "traced")
    print(f"READY {runner.compute_ns}", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "timed":
        result = timed_loop(runner, args.seconds)
    else:
        result = traced_loop(runner, args.seconds)
    result["maxrss_kb"] = (runner.peak_rss_kb if is_cli
                           else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
