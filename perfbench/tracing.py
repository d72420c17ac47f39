"""Layer spans recorded from outside the package.

The tracer replaces the names ``qcycle.cli`` imported from each layer with
wrappers that record a span per call, and wraps the ``apply`` of every
channel those functions return. ``cli.main`` itself runs unchanged, so the
spans follow the command's own call order. Spans live in memory (one list,
appended from any thread; a thread-local stack gives each span its parent)
and are written out when the run ends.

A span is ``(id, name, start, end, parent, op, thread, value)``; ``value``
is a count read off the call's result (iterations, matrix dimension, Kraus
count) where that makes sense, else None.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time

ROOT = "cli.main"

# (module, attribute, span name). cycle_operators is also wrapped where the
# channel constructors look it up, so it is seen on every command.
PATCHES = (
    ("qcycle.cli", "parse_config", "cli.parse_config"),
    ("qcycle.cli", "dumps", "cli.dumps"),
    ("qcycle.cli", "build_hamiltonian", "chain.build_hamiltonian"),
    ("qcycle.cli", "cycle_operators", "engine.cycle_operators"),
    ("qcycle.limitcycle", "cycle_operators", "engine.cycle_operators"),
    ("qcycle.cli", "run_cycle", "engine.run_cycle"),
    ("qcycle.cli", "cycle_channel_cb", "limitcycle.cycle_channel"),
    ("qcycle.cli", "cycle_channel_ac", "limitcycle.cycle_channel"),
    ("qcycle.cli", "fixed_point_iterate", "limitcycle.fixed_point_iterate"),
    ("qcycle.cli", "channel_matrix", "limitcycle.channel_matrix"),
    ("qcycle.cli", "fixed_point_spectral", "limitcycle.fixed_point_spectral"),
    ("qcycle.cli", "limit_cycle_states", "limitcycle.limit_cycle_states"),
    ("qcycle.cli", "limit_cycle_report", "thermo.limit_cycle_report"),
    ("qcycle.cli", "choi_matrix", "reversal.choi_matrix"),
    ("qcycle.cli", "kraus_from_choi", "reversal.kraus_from_choi"),
    ("qcycle.cli", "reverse_channel", "reversal.reverse_channel"),
    ("qcycle.cli", "kraus_channel_matrix", "reversal.kraus_channel_matrix"),
    ("qcycle.cli", "sequence_probability", "reversal.sequence_probability"),
    ("qcycle.cli", "trace_distance", "linalg.trace_distance"),
)

# Count read off a call's result, by span name.
VALUES = {
    "limitcycle.fixed_point_iterate": lambda r: getattr(r, "iterations", None),
    "limitcycle.channel_matrix": lambda r: getattr(r, "dim", None),
    "reversal.kraus_from_choi": lambda r: len(getattr(r, "operators", ())),
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []
        self._root = None  # (span id, op id) of the command in progress
        self._ops = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        value_of = VALUES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][0] == name:  # recursion (dumps) stays one span
                return fn(*args, **kwargs)
            root = self._root
            sid = next(self._ids)
            # Spans in pool threads start on an empty stack: their parent is the command.
            parent = stack[-1][1] if stack else (root[0] if root else None)
            stack.append((name, sid))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            value = value_of(result) if value_of else None
            self.spans.append((sid, name, start, end, parent, root[1] if root else None,
                               threading.get_ident(), value))
            if name == "limitcycle.cycle_channel" and hasattr(result, "apply"):
                result.apply = self.wrap("limitcycle.apply", result.apply)
            return result

        return traced

    def command(self, main, argv):
        """Run one CLI command as a root span; returns main's exit status."""
        sid, op = next(self._ids), next(self._ops)
        self._root = (sid, op)
        stack = self._stack()
        stack.append((ROOT, sid))
        start = time.perf_counter()
        try:
            return main(argv)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._root = None
            self.spans.append((sid, ROOT, start, end, None, op, threading.get_ident(), None))

    def __enter__(self):
        for module_name, attr, span in PATCHES:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):  # a name a later refactor dropped is skipped
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    children = {}
    for sid, _, start, end, parent, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    table = {}
    for sid, name, start, end, *_ in spans:
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - _covered(children.get(sid, ()), start, end)
    return table


def layer_metrics(spans, sweep_speedup: float, overhead_frac: float) -> dict:
    """The per-layer metrics of one traced pass.

    ``*_s`` is inclusive seconds per command unless marked median per call;
    ``*_calls`` is calls per command.
    """
    table = self_times(spans)
    commands = max(table.get(ROOT, {}).get("calls", 0), 1)
    durations, values = {}, {}
    for _, name, start, end, _, _, _, value in spans:
        durations.setdefault(name, []).append(end - start)
        if value is not None:
            values.setdefault(name, []).append(value)

    def per_command(name):
        return table.get(name, {}).get("total_s", 0.0) / commands

    def calls(name):
        return table.get(name, {}).get("calls", 0) / commands

    def median_call(name):
        return statistics.median(durations[name]) if name in durations else 0.0

    def mean_value(name):
        return statistics.fmean(values[name]) if name in values else 0.0

    root_s = sum(durations.get(ROOT, ()))
    threads = {}
    for _, name, _, _, _, op, thread, _ in spans:
        threads.setdefault(op, set()).add(thread)
    main_threads = {thread for _, name, _, _, _, _, thread, _ in spans if name == ROOT}
    return {
        "cli.parse_config_s": per_command("cli.parse_config"),
        "cli.dumps_s": per_command("cli.dumps"),
        "cli.sweep_workers": max((len(t - main_threads) for t in threads.values()), default=0),
        "cli.sweep_speedup": sweep_speedup,
        "cli.self_s": table.get(ROOT, {}).get("self_s", 0.0) / commands,
        "chain.build_hamiltonian_s": per_command("chain.build_hamiltonian"),
        "engine.cycle_operators_s": per_command("engine.cycle_operators"),
        "engine.run_cycle_s": median_call("engine.run_cycle"),
        "engine.run_cycle_calls": calls("engine.run_cycle"),
        "linalg.trace_distance_s": per_command("linalg.trace_distance"),
        "linalg.trace_distance_calls": calls("linalg.trace_distance"),
        "limitcycle.cycle_channel_s": per_command("limitcycle.cycle_channel"),
        "limitcycle.apply_s": median_call("limitcycle.apply"),
        "limitcycle.apply_calls": calls("limitcycle.apply"),
        "limitcycle.fixed_point_iterate_s": per_command("limitcycle.fixed_point_iterate"),
        "limitcycle.iterations": mean_value("limitcycle.fixed_point_iterate"),
        "limitcycle.channel_matrix_s": per_command("limitcycle.channel_matrix"),
        "limitcycle.channel_matrix_dim": max(values.get("limitcycle.channel_matrix", [0])),
        "limitcycle.fixed_point_spectral_s": per_command("limitcycle.fixed_point_spectral"),
        "limitcycle.limit_cycle_states_s": per_command("limitcycle.limit_cycle_states"),
        "thermo.limit_cycle_report_s": per_command("thermo.limit_cycle_report"),
        "reversal.choi_matrix_s": per_command("reversal.choi_matrix"),
        "reversal.kraus_from_choi_s": per_command("reversal.kraus_from_choi"),
        "reversal.kraus_count": mean_value("reversal.kraus_from_choi"),
        "reversal.reverse_channel_s": per_command("reversal.reverse_channel"),
        "reversal.kraus_channel_matrix_s": per_command("reversal.kraus_channel_matrix"),
        "reversal.sequence_probability_calls": calls("reversal.sequence_probability"),
        "trace.overhead_frac": overhead_frac,
        "trace.coverage": (1.0 - table[ROOT]["self_s"] / root_s) if root_s > 0 else 0.0,
    }
