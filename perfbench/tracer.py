"""In-memory span tracer that wraps fedmoo's layer entry points from outside.

Each wrapped call records one span: layer name, start, end, parent span and
thread id.  Spans stay in memory until the run ends.  Wrappers are installed
by rebinding module attributes and class methods for the duration of one
traced episode and are removed afterwards, so untraced episodes run the
library's own functions.  Nothing in ``src/fedmoo`` is modified.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager

# Span record layout: [name, start, end, parent span or None, thread id, note].
NAME, START, END, PARENT, THREAD, NOTE = range(6)


class Tracer:
    """Collects spans from wrapped calls; safe to use from several threads."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, name, fn, note=None):
        """Return ``fn`` wrapped to record a span; ``note(result)`` is kept on it."""
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident(), None]
            spans.append(span)  # parents are appended before their children
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(result)
            return result

        return traced

    @contextmanager
    def installed(self, points):
        """Rebind every (owner, attribute, span name[, note]) point while active."""
        saved = []
        try:
            for owner, attr, name, *note in points:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, *note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_csv(self, path) -> None:
        """Dump spans as ``id,name,start,end,parent,thread`` rows."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,thread\n")
            for i, span in enumerate(self.spans):
                parent = "" if span[PARENT] is None else ids[id(span[PARENT])]
                fh.write(f"{i},{span[NAME]},{span[START]!r},{span[END]!r},{parent},"
                         f"{span[THREAD]}\n")


def trace_points(fedmoo):
    """The layer boundaries the benchmark traces, as (owner, attr, span name[, note])."""
    cli, config, federation = fedmoo.cli, fedmoo.config, fedmoo.federation
    metrics, problems, reporting = fedmoo.metrics, fedmoo.problems, fedmoo.reporting

    def solution(sol):
        return sol.iterations, sol.converged

    points = [
        (federation, "run_round", "federation.run_round"),
        (federation, "client_update_full", "federation.client_update"),
        (federation, "client_update_stochastic", "federation.client_update"),
        (federation, "client_stream", "core.client_stream"),
        (federation, "server_aggregate", "federation.server_aggregate"),
        (federation, "solve_min_norm", "minnorm.server_solve", solution),
        (metrics, "dbar_norm_sq", "metrics.dbar"),
        (metrics, "delta_q", "metrics.delta_q"),
        (metrics, "lambda_drift", "metrics.lambda_drift"),
        (metrics, "solve_min_norm", "minnorm.drift_solve", solution),
        (problems.Problem, "losses", "problems.losses"),
        (problems.Problem, "gradient_matrix", "problems.gradient_matrix"),
        (problems, "build_problem", "problems.build"),
        (cli, "build_problem", "problems.build"),
        (config, "parse_config", "config.parse"),
        (cli, "load_sweep", "config.parse"),
        (cli, "_execute_run", "cli.member"),
    ]
    for owner in (reporting, cli):
        for attr in ("write_rounds_csv", "build_summary", "write_summary_json"):
            points.append((owner, attr, "reporting.write"))
    for cls in vars(problems).values():
        if isinstance(cls, type) and issubclass(cls, problems.Problem):
            for attr in ("grad", "stoch_grad"):
                if attr in cls.__dict__:
                    points.append((cls, attr, "problems.grad"))
    return points


def layer_totals(spans) -> dict:
    """Per layer name: calls, inclusive, longest and self seconds, and calls in rounds.

    A span counts once per layer: a span nested in a span of the same layer
    (``stoch_grad`` falling back to ``grad``) is folded into its parent.  Self
    time is the span minus the time its direct children cover.  ``in_round``
    counts calls made while a ``federation.run_round`` span was open on the
    same thread.
    """
    child_time: dict[int, float] = {}
    in_round: dict[int, bool] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            child_time[id(parent)] = child_time.get(id(parent), 0.0) + span[END] - span[START]
        in_round[id(span)] = parent is not None and (
            parent[NAME] == "federation.run_round" or in_round[id(parent)])
    totals: dict[str, dict] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None and parent[NAME] == span[NAME]:
            continue
        t = totals.setdefault(span[NAME], {"calls": 0, "round_calls": 0, "s": 0.0, "max_s": 0.0,
                                           "round_s": 0.0, "self_s": 0.0, "notes": []})
        dur = span[END] - span[START]
        t["calls"] += 1
        t["s"] += dur
        t["max_s"] = max(t["max_s"], dur)
        t["self_s"] += dur - child_time.get(id(span), 0.0)
        if in_round[id(span)]:
            t["round_calls"] += 1
            t["round_s"] += dur
        if span[NOTE] is not None:
            t["notes"].append(span[NOTE])
    return totals
