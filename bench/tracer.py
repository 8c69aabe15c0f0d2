"""Spans around the library's public functions, installed from outside.

The tracer replaces each traced function at the module attribute where its
callers look it up (``iteration`` imports ``eval_with_derivative`` by name,
``cli`` imports ``solve`` by name, and so on), records one span per call and
keeps every span in memory until ``summary`` folds them into additive
counters.  Nothing under ``src/`` changes.

A span is ``[name, start_ns, end_ns, parent, op, note]``; ``parent`` is the
index of the enclosing traced call (-1 at top level) and ``op`` the index of
the benchmark op it belongs to (-1 during set-up).  A layer's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import time

#: (span name, defining module, function, modules that look it up by name)
TRACED = (
    ("polynomial.eval", "multiroots.polynomial", "eval_with_derivative",
     ("multiroots.polynomial", "multiroots.iteration")),
    ("rootsystem.poly_from_roots", "multiroots.rootsystem", "poly_from_roots",
     ("multiroots.rootsystem", "multiroots.cli")),
    ("iteration.workspace", "multiroots.iteration", "build_step_workspace",
     ("multiroots.iteration",)),
    ("iteration.step", "multiroots.iteration", "gek_step", ("multiroots.iteration",)),
    ("iteration.step", "multiroots.iteration", "ek_step", ("multiroots.iteration",)),
    ("iteration.solve", "multiroots.iteration", "solve",
     ("multiroots.iteration", "multiroots.cli")),
    ("theory.theorem_check", "multiroots.theory", "theorem_check",
     ("multiroots.theory", "multiroots.cli")),
    ("theory.estimate_order", "multiroots.theory", "estimate_order",
     ("multiroots.theory", "multiroots.cli")),
    ("cli.parse_problem", "multiroots.cli", "parse_problem", ("multiroots.cli",)),
    ("cli.emit_report", "multiroots.cli", "emit_report", ("multiroots.cli",)),
)

#: Called O(m^2) times per sweep: counted, not spanned, so the trace stays small.
COUNTED = (("polynomial.integer_power", "multiroots.polynomial", "integer_power",
            ("multiroots.polynomial", "multiroots.iteration")),)

STATUSES = ("Converged", "MaxIterations", "Collision", "SingularDenominator", "Overflow")

_NAME, _START, _END, _PARENT, _OP, _NOTE = range(6)


class Tracer:
    """Records spans while installed; ``uninstall`` puts the originals back."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = {}
        self._saved: list[tuple] = []

    def install(self) -> "Tracer":
        for name, home, attr, users in TRACED:
            fn = getattr(importlib.import_module(home), attr)
            self._patch(users, attr, self._spanned(name, fn))
        for name, home, attr, users in COUNTED:
            fn = getattr(importlib.import_module(home), attr)
            self._patch(users, attr, self._counted(name, fn))
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _patch(self, users, attr, wrapper):
        for user in users:
            module = importlib.import_module(user)
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        is_eval = name == "polynomial.eval"
        is_solve = name == "iteration.solve"

        def wrapper(*args, **kwargs):
            index = len(spans)
            note = (id(args[0]), complex(args[1]), args[0].degree) if is_eval else None
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, note]
            spans.append(span)
            stack.append(index)
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
            if is_solve:
                span[_NOTE] = result.status.value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            if self.op >= 0:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        """Fold the spans into additive counters (sums over ops and calls),
        so summaries from several processes can be added together.  Spans
        made during set-up (op -1) count only for ``poly_from_roots``, whose
        calls are set-up work on the in-process workloads."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[_PARENT] >= 0:
                child_ns[span[_PARENT]] += span[_END] - span[_START]

        def under_step(index):
            while index >= 0:
                if spans[index][_NAME] == "iteration.step":
                    return True
                index = spans[index][_PARENT]
            return False

        out = {"eval_distinct": 0, "horner_steps": 0, "step_evals": 0, "sweeps": 0,
               "integer_power_calls": self.counts.get("polynomial.integer_power", 0)}
        for status in STATUSES:
            out["status." + status] = 0
        points: dict[int, set] = {}
        for index, span in enumerate(spans):
            name = span[_NAME]
            if span[_OP] < 0 and name != "rootsystem.poly_from_roots":
                continue
            total = span[_END] - span[_START]
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".ns"] = out.get(name + ".ns", 0) + total
            out[name + ".self_ns"] = out.get(name + ".self_ns", 0) + total - child_ns[index]
            if name == "polynomial.eval":
                poly_id, z, degree = span[_NOTE]
                out["horner_steps"] += degree
                points.setdefault(span[_OP], set()).add((poly_id, z))
                if under_step(span[_PARENT]):
                    out["step_evals"] += 1
            elif name == "iteration.step":
                parent = span[_PARENT]
                if parent >= 0 and spans[parent][_NAME] == "iteration.solve":
                    out["sweeps"] += 1
            elif name == "iteration.solve" and span[_NOTE] is not None:
                out["status." + span[_NOTE]] += 1
        out["eval_distinct"] = sum(len(p) for p in points.values())
        return out


def merge(total: dict, part: dict) -> dict:
    """Add the counters of ``part`` into ``total``."""
    for key, value in part.items():
        total[key] = total.get(key, 0) + value
    return total
