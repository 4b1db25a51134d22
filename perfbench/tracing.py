"""Span recording for the benchmark's traced runs.

The benchmark measures dynamech's layers from outside: ``install`` rebinds
each hook point below to a wrapper that records a span (name, start, end,
parent) around the call, in the defining module and in every dynamech
module that imported the name, and ``uninstall`` puts the originals back.
Nothing here imports dynamech at module level, so a process can time its
own import of the library.

A hook point that the library no longer has is recorded as missing and
reads as 0 calls; it never stops the run.  The two stream hooks are
called hundreds of thousands of times per operation, so they are counted
(calls and busy time, charged to the enclosing span as child time)
instead of being stored as spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import sys
import time
from dataclasses import dataclass

_clock = time.perf_counter


@dataclass(frozen=True)
class Hook:
    name: str  # span name, also the metric prefix
    module: str  # module that defines the hook point
    attr: str  # "function" or "Class.method"
    leaf: bool = False  # counted, not stored as spans
    arg: str | None = None  # argument whose size or value the span keeps
    keep_result: bool = False  # span keeps the returned mode string


AUDITS = (
    "audit_ic",
    "audit_ir",
    "audit_envelope",
    "audit_revenue_bound",
    "audit_monotone_allocation",
    "audit_allocation_time_coupling",
)

HOOKS = (
    Hook("gittins.index_of_states", "dynamech.gittins", "index_of_states", arg="states"),
    Hook("gittins.optimal_stop_value", "dynamech.gittins", "optimal_stop_value"),
    Hook("gittins.joint_optimal_value", "dynamech.gittins", "joint_optimal_value"),
    Hook("mechanism.index_flat", "dynamech.mechanism", "MechanismRuntime.index_flat"),
    Hook("mechanism.w_minus", "dynamech.mechanism", "MechanismRuntime.w_minus", keep_result=True),
    Hook("mechanism.w_minus_rollout", "dynamech.mechanism", "MechanismRuntime._w_minus_rollout"),
    Hook("mechanism.engine", "dynamech.mechanism", "_run_rounds"),
    Hook("mechanism.fee_quadrature", "dynamech.mechanism", "fee_quadrature", arg="paths"),
    Hook("rng.draw_pair", "dynamech.rng", "ExperienceStreams.draw_pair", leaf=True),
    Hook("rng.substream", "dynamech.rng", "substream", leaf=True),
    *(Hook(f"verification.{fn}", "dynamech.verification", fn) for fn in AUDITS),
    Hook("config.parse_config", "dynamech.config", "parse_config"),
    Hook("config.build_environment", "dynamech.config", "build_environment"),
)

# span record fields
NAME, START, END, PARENT, CHILD_S, INFO = range(6)


class Tracer:
    """In-memory spans of the current operation plus leaf counters."""

    def __init__(self, hooks=HOOKS):
        self.hooks = tuple(hooks)
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaf_calls = {h.name: 0 for h in self.hooks if h.leaf}
        self.leaf_busy = 0.0
        self._leaf_depth = 0

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for hook in self.hooks:
            owner, attr, original = _resolve(hook)
            if original is None:
                self.missing.append(hook.name)
                continue
            wrapper = self._leaf_wrapper(hook, original) if hook.leaf else self._span_wrapper(hook, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in _library_modules():
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, hook: Hook, fn):
        name = hook.name
        arg_of = _arg_reader(fn, hook.arg) if hook.arg else None
        keep_result = hook.keep_result

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self.stack
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0, arg_of(args, kwargs) if arg_of else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = rec[END] = _clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_S] += end - rec[START]
            if keep_result and isinstance(out, tuple) and len(out) == 2:
                rec[INFO] = out[1]
            return out

        return wrapper

    def _leaf_wrapper(self, hook: Hook, fn):
        name = hook.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.leaf_calls[name] += 1
            if self._leaf_depth:
                return fn(*args, **kwargs)
            self._leaf_depth = 1
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = _clock() - start
                self._leaf_depth = 0
                self.leaf_busy += took
                if self.stack:
                    self.spans[self.stack[-1]][CHILD_S] += took

        return wrapper

    # -- output -------------------------------------------------------------

    def snapshot(self) -> dict:
        """The current operation's spans in a compact, JSON-ready form."""
        names = sorted({s[NAME] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[ids[s[NAME]], s[START], s[END], s[PARENT]] for s in self.spans],
            "leaf_calls": dict(self.leaf_calls),
            "leaf_busy_s": self.leaf_busy,
            "missing": list(self.missing),
        }


def write_spans(path, snapshots: list[dict]) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"operations": snapshots}, fh)


def _resolve(hook: Hook):
    """(owner, attribute, original) or (None, None, None) if it is gone."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None, None, None
    *path, attr = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    original = owner.__dict__.get(attr)
    if not callable(original):
        return None, None, None
    return owner, attr, original


def _library_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "dynamech" or name.startswith("dynamech."))
    ]


def _arg_reader(fn, arg: str):
    """Reader of one argument: its length if it has one, else its value;
    None when the signature no longer has it or the call does not bind."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return None
    if arg not in sig.parameters:
        return None

    def read(args, kwargs):
        try:
            val = sig.bind(*args, **kwargs).arguments.get(arg, sig.parameters[arg].default)
        except TypeError:
            return None
        try:
            return len(val)
        except TypeError:
            return val if isinstance(val, (int, float)) else None

    return read


# ---------------------------------------------------------------------------
# Per-operation layer metrics
# ---------------------------------------------------------------------------


def _nearest(spans, idx: int, name: str) -> int:
    """Index of the nearest ancestor of span idx with the given name, or -1."""
    p = spans[idx][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return p
        p = spans[p][PARENT]
    return -1


COUNT_SUFFIXES = (".calls", ".rollout_calls", ".episodes", ".paths", ".states")


def is_count(metric: str) -> bool:
    return metric.endswith(COUNT_SUFFIXES)


def layer_busy(tracer: Tracer, names) -> dict[str, float]:
    """Busy seconds of the named spans, as ``<name>.busy_s``."""
    return {
        f"{name}.busy_s": sum((s[END] - s[START] for s in tracer.spans if s[NAME] == name), 0.0)
        for name in names
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Counts and busy times of one traced operation."""
    spans = tracer.spans
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(
            (spans[i][END] - spans[i][START] for i in by_name.get(name, ()) if _nearest(spans, i, name) < 0),
            0.0,
        )

    m: dict[str, float] = {}
    m["gittins.index_of_states.calls"] = calls("gittins.index_of_states")
    m["gittins.index_of_states.busy_s"] = busy("gittins.index_of_states")
    m["gittins.index_of_states.states"] = sum(spans[i][INFO] or 0 for i in by_name.get("gittins.index_of_states", ()))
    for name in ("gittins.optimal_stop_value", "gittins.joint_optimal_value"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)

    flat_calls = calls("mechanism.index_flat")
    misses = {_nearest(spans, i, "mechanism.index_flat") for i in by_name.get("gittins.index_of_states", ())}
    misses.discard(-1)
    m["mechanism.index_flat.calls"] = flat_calls
    m["mechanism.index_flat.miss_ratio"] = len(misses) / flat_calls if flat_calls else 0.0

    w_spans = by_name.get("mechanism.w_minus", ())
    m["mechanism.w_minus.calls"] = len(w_spans)
    m["mechanism.w_minus.busy_s"] = busy("mechanism.w_minus")
    m["mechanism.w_minus.rollout_calls"] = sum(1 for i in w_spans if spans[i][INFO] == "rollout")
    m["mechanism.w_minus_rollout.calls"] = calls("mechanism.w_minus_rollout")

    engine = by_name.get("mechanism.engine", ())
    m["mechanism.engine.episodes"] = len(engine)
    m["mechanism.engine.self_s"] = sum((spans[i][END] - spans[i][START] - spans[i][CHILD_S] for i in engine), 0.0)

    m["rng.draw_pair.calls"] = tracer.leaf_calls.get("rng.draw_pair", 0)
    m["rng.substream.calls"] = tracer.leaf_calls.get("rng.substream", 0)
    m["rng.busy_s"] = tracer.leaf_busy

    fee = by_name.get("mechanism.fee_quadrature", ())
    paths = sum(spans[i][INFO] or 0 for i in fee)
    replays = sum(1 for i in engine if _nearest(spans, i, "mechanism.fee_quadrature") >= 0)
    m["mechanism.fee_quadrature.calls"] = len(fee)
    m["mechanism.fee_quadrature.paths"] = paths
    m["mechanism.fee_quadrature.s_per_path"] = busy("mechanism.fee_quadrature") / paths if paths else 0.0
    m["mechanism.fee_quadrature.replays_per_path"] = replays / paths if paths else 0.0

    for fn in AUDITS:
        m[f"verification.{fn}.busy_s"] = busy(f"verification.{fn}")
    return m


def w_minus_durations_ms(tracer: Tracer) -> list[float]:
    return [
        1e3 * (s[END] - s[START]) for s in tracer.spans if s[NAME] == "mechanism.w_minus"
    ]


def w_minus_percentiles(durations_ms: list[float]) -> dict[str, float]:
    """Median, and the highest of p99.9/p99/p90/p50 with at least ten
    samples beyond it; the maximum (percentile 100) when there are too few
    samples for any of them."""
    xs = sorted(durations_ms)
    n = len(xs)
    q, tail = (100.0, xs[-1]) if xs else (0.0, 0.0)
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            q, tail = pct, xs[min(n - 1, int(pct / 100.0 * n))]
            break
    return {
        "mechanism.w_minus.p50_ms": statistics.median(xs) if xs else 0.0,
        "mechanism.w_minus.tail_ms": tail,
        "mechanism.w_minus.tail_pct": q,
        "mechanism.w_minus.samples": n,
    }
