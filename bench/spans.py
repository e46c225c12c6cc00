"""Span recorder for the traced benchmark run.

Wrappers are installed from here, never inside qgames: each timed public
function is replaced, in every qgames module that holds it, by a wrapper
that records a span (name, start, end, parent, op id, error). Value objects
are timed through their ``__post_init__``. Spans stay in memory while the
workload runs and are written out once it ends; the per-layer metrics are
derived from them.

A layer is a qgames module. One caller drives the workload in a closed
loop, so no work ever waits in a queue: waiting time is absent, not zero,
and no metric reports it.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time

#: Timed public calls per layer. ``Class.method`` entries wrap a method of a
#: class of that module; a bare class name wraps its ``__post_init__``.
LAYERS = {
    "quantum": (
        "DensityMatrix", "MeasurementBasis", "UnitaryOperator", "KrausChannel",
        "apply_channel", "outcome_probabilities",
    ),
    "quantumize": (
        "build_ewl", "computational_basis", "expected_payoffs_q", "outcome_distribution",
        "expected_payoffs_mixed", "product_channel", "play_sequential",
    ),
    "strategies": ("param_unitary", "batch_unitaries"),
    "equilibrium": (
        "verify_nash", "best_response", "verify_nash_mixed_finite",
        "best_response_mixed_finite", "forcing_response",
    ),
    "catalog": ("load", "CatalogEntry.verify"),
    "classical": ("pure_nash", "dominant_strategies", "mixed_nash_two_player", "pareto_optimal_plays"),
    "gamefile": (
        "parse_game_file", "GameFile.quantum_game", "GameFile.sequential_game",
        "export_entry_text",
    ),
    "cli": ("run",),
}

# span fields
NAME, START, END, PARENT, OP, ERROR = range(6)


class Recorder:
    """In-memory spans of the timed operations of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._last_error: BaseException | None = None
        self.decisions = {"certified": 0, "refuted": 0, "undecided": 0}

    def run_op(self, op_id: int, call):
        """Run ``call`` as the root span of operation ``op_id``."""
        self._op = op_id
        try:
            return self._span("op", call, (), {})
        finally:
            self._op = None

    def _span(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self._op, False]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            # count an error once, in the span it was raised in
            if exc is not self._last_error:
                span[ERROR] = True
                self._last_error = exc
            raise
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, verdicts: bool = False):
        """``fn`` recording a span while an op runs; with ``verdicts`` it
        also counts the certified / refuted / undecided reports it returns."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            result = self._span(name, fn, args, kwargs)
            if verdicts:
                kind = "certified" if result.certified else "refuted" if result.refuted else "undecided"
                self.decisions[kind] += 1
            return result

        return wrapper

    def write(self, path) -> None:
        """Gzipped, one tab-separated line per span; times in µs from the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_us\tend_us\tparent\top\terror\n")
            for s in self.spans:
                start, end = 1e6 * (s[START] - origin), 1e6 * (s[END] - origin)
                fh.write(f"{s[NAME]}\t{start:.1f}\t{end:.1f}\t{s[PARENT]}\t{s[OP]}\t{int(s[ERROR])}\n")


def install(recorder: Recorder) -> None:
    """Put a recording wrapper wherever callers look each timed name up."""
    import qgames

    modules = [m for name, m in sorted(sys.modules.items()) if name == "qgames" or name.startswith("qgames.")]
    for layer, names in LAYERS.items():
        home = getattr(qgames, layer)
        for entry in names:
            owner_name, _, method = entry.partition(".")
            if method or isinstance(getattr(home, owner_name), type):
                owner = getattr(home, owner_name)
                attr = method or "__post_init__"
                original = getattr(owner, attr)
                setattr(owner, attr, recorder.wrap(f"{layer}.{entry}", original))
                continue
            original = getattr(home, entry)
            wrapper = recorder.wrap(f"{layer}.{entry}", original, verdicts=entry.startswith("verify_nash"))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    for layer, names in LAYERS.items():
        out += [(f"{layer}.calls", "calls/op"), (f"{layer}.self_ms", "ms/op"),
                (f"{layer}.self_share", "%"), (f"{layer}.errors", "count")]
        for entry in names:
            key = f"{layer}.{entry}"
            out += [(f"{key}.calls", "calls/op"), (f"{key}.self_ms", "ms/op")]
    out += [("equilibrium.decided_ratio", "1"), ("trace.ops_per_s", "1/s")]
    return out


def layer_metrics(recorder: Recorder, ops: int, ops_per_s: float) -> dict:
    """Per-layer metrics of one traced run, normalised per attempted op.

    A span's self time is its duration minus the time its child spans
    cover; a layer's ``calls`` count entries into the layer from another
    layer (or from the benchmark), its ``errors`` the errors raised in it.
    """
    spans = recorder.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    errors: dict[str, int] = {}
    total = 0.0
    for i, s in enumerate(spans):
        name = s[NAME]
        if name == "op":
            total += s[END] - s[START]
            continue
        layer = name.partition(".")[0]
        own = s[END] - s[START] - child_time[i]
        parent_layer = spans[s[PARENT]][NAME].partition(".")[0] if s[PARENT] >= 0 else None
        for key in (name, layer):
            self_s[key] = self_s.get(key, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if parent_layer != layer:
            calls[layer] = calls.get(layer, 0) + 1
        if s[ERROR]:
            errors[layer] = errors.get(layer, 0) + 1
    out = {}
    for name, unit in metric_names():
        key, _, kind = name.rpartition(".")
        if kind == "calls":
            value = calls.get(key, 0) / ops
        elif kind == "self_ms":
            value = 1e3 * self_s.get(key, 0.0) / ops
        elif kind == "self_share":
            value = 100.0 * self_s.get(key, 0.0) / total if total else 0.0
        elif kind == "errors":
            value = errors.get(key, 0)
        elif name == "equilibrium.decided_ratio":
            d = recorder.decisions
            verdicts = sum(d.values())
            value = (d["certified"] + d["refuted"]) / verdicts if verdicts else 1.0
        else:
            value = ops_per_s
        out[name] = {"value": value, "unit": unit}
    return out
