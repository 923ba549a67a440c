"""Span recorder for traced benchmark passes.

A span is one call into a public holocirc function: its name, start,
end, parent span and the run it belongs to.  Spans stay in memory and
are written out once, when the pass ends.  Functions called too often
for a span each (``HolElem2.then``, ``power``) only count calls.

Wrappers are installed from outside the library: every holocirc module
global bound to a traced function is rebound to the wrapper, so a name
imported with ``from .x import f`` is traced where it is looked up.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time
from functools import wraps

# (module, attribute) of each function that gets a span per call.
SPANNED = [
    ("cli", "main"),
    ("circulant", "scan_record"),
    ("circulant", "automorphism_group"),
    ("circulant", "nnn_verdict"),
    ("circulant", "is_normal_cayley"),
    ("circulant", "w_subgroups"),
    ("holomorph", "holomorph_group"),
    ("regular_classify", "enumerate_regular_subgroups"),
    ("regular_classify", "representatives"),
    ("regular_classify", "cyclic_regular_affine_subgroups"),
    ("permgroup", "closure"),
    ("permgroup", "is_normal_in"),
    ("permgroup", "iso_type"),
    ("permgroup", "from_elements"),
]

# (module, class or None, attribute) of each hot function that only counts calls.
COUNTED = [
    ("holomorph", "HolElem2", "then"),
    ("holomorph", None, "power"),
]


class Recorder:
    """Collects the spans and call counts of one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._next_id = 0

    def spanned(self, name: str, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))

        return wrapper

    def counted(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        @wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [
                {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                for sid, name, start, end, parent in self.spans
            ],
            "counts": {name: cell[0] for name, cell in self.counts.items()},
        }


def _rebind(original, wrapper) -> None:
    """Point every holocirc module global that holds ``original`` at ``wrapper``."""
    for modname, module in list(sys.modules.items()):
        if modname != "holocirc" and not modname.startswith("holocirc."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(recorder: Recorder) -> None:
    """Wrap the traced functions of the imported holocirc package."""
    import holocirc.claims as claims

    for modname, attr in SPANNED:
        module = sys.modules[f"holocirc.{modname}"]
        original = getattr(module, attr)
        _rebind(original, recorder.spanned(f"{modname}.{attr}", original))
    for modname, clsname, attr in COUNTED:
        module = sys.modules[f"holocirc.{modname}"]
        name = ".".join(p for p in (modname, clsname, attr) if p)
        if clsname is None:
            original = getattr(module, attr)
            _rebind(original, recorder.counted(name, original))
        else:
            cls = getattr(module, clsname)
            setattr(cls, attr, recorder.counted(name, getattr(cls, attr)))
    for claim_id, claim in list(claims.REGISTRY.items()):
        runner = recorder.spanned(f"claims.{claim_id}", claim.runner)
        claims.REGISTRY[claim_id] = dataclasses.replace(claim, runner=runner)


def calibrate(calls: int = 10_000, repeats: int = 5) -> tuple[float, float]:
    """Seconds that a span and a call count add to one call: a wrapped
    no-op of two arguments, like ``HolElem2.then``, timed against the bare
    one, the median of a few repeats."""

    def noop(a, b):
        return None

    scratch = Recorder("calibration")
    spanned, counted = scratch.spanned("noop", noop), scratch.counted("noop", noop)

    def per_call(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn(None, None)
        return (time.perf_counter() - start) / calls

    span_costs, count_costs = [], []
    for _ in range(repeats):
        bare = per_call(noop)
        span_costs.append(per_call(spanned) - bare)
        count_costs.append(per_call(counted) - bare)
        scratch.spans.clear()
    return statistics.median(span_costs), statistics.median(count_costs)


def finish(recorder: Recorder) -> dict:
    """The trace of a pass, with what tracing cost it: the time to collect
    the spans and the calibrated cost of a span and of a call count."""
    start = time.perf_counter()
    trace = recorder.to_json()
    trace["collect_s"] = time.perf_counter() - start
    trace["span_cost_s"], trace["count_cost_s"] = calibrate()
    return trace


# aggregation (runs in the benchmark process)


def overhead_s(trace: dict) -> float:
    """What tracing added to the pass: each span and each counted call at
    its calibrated cost, plus collecting the spans."""
    return (
        len(trace["spans"]) * trace["span_cost_s"]
        + sum(trace["counts"].values()) * trace["count_cost_s"]
        + trace["collect_s"]
    )

PERCENTILES = (99.9, 99, 95, 90, 50)


def _tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; the median when there are too few samples for any tail."""
    ordered = sorted(samples)
    for pct in PERCENTILES:
        if len(ordered) * (100 - pct) / 100 >= 10:
            return pct, ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]
    return 50.0, statistics.median(ordered)


def layer_metrics(trace: dict, claim_ids: list[str]) -> dict[str, float]:
    """Per-layer figures of one traced pass: busy time (outermost calls of
    a name), self time (minus child spans), call counts and the
    per-record latency distribution."""
    spans = {s["id"]: s for s in trace["spans"]}
    busy: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    child_time: dict[int, float] = {}
    for s in spans.values():
        if s["parent"] >= 0:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    for sid, s in spans.items():
        name, dur = s["name"], s["end"] - s["start"]
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(dur)
        self_time[name] = self_time.get(name, 0.0) + dur - child_time.get(sid, 0.0)
        parent = s["parent"]
        while parent >= 0 and spans[parent]["name"] != name:
            parent = spans[parent]["parent"]
        if parent < 0:
            busy[name] = busy.get(name, 0.0) + dur

    records = calls.get("circulant.scan_record", 0)
    aut_calls = calls.get("circulant.automorphism_group", 0)
    per_record = durations.get("circulant.scan_record", [])
    tail_pct, tail = _tail(per_record) if per_record else (0.0, 0.0)
    out = {
        "circulant.automorphism_group.busy_s": busy.get("circulant.automorphism_group", 0.0),
        "circulant.automorphism_group.calls": aut_calls,
        "circulant.automorphism_group.calls_per_record": aut_calls / records if records else 0.0,
        "circulant.nnn_verdict.self_s": self_time.get("circulant.nnn_verdict", 0.0),
        "circulant.is_normal_cayley.busy_s": busy.get("circulant.is_normal_cayley", 0.0),
        "circulant.w_subgroups.busy_s": busy.get("circulant.w_subgroups", 0.0),
        "circulant.scan_record.p50_ms": statistics.median(per_record) * 1e3 if per_record else 0.0,
        "circulant.scan_record.ptail_ms": tail * 1e3,
        "circulant.scan_record.ptail_pct": tail_pct,
        "circulant.scan_record.samples": records,
        "holomorph.HolElem2.then.calls": trace["counts"].get("holomorph.HolElem2.then", 0),
        "holomorph.power.calls": trace["counts"].get("holomorph.power", 0),
        "holomorph.holomorph_group.busy_s": busy.get("holomorph.holomorph_group", 0.0),
    }
    for name in (
        "regular_classify.enumerate_regular_subgroups",
        "regular_classify.representatives",
        "regular_classify.cyclic_regular_affine_subgroups",
        "permgroup.closure",
        "permgroup.is_normal_in",
        "permgroup.iso_type",
        "permgroup.from_elements",
    ):
        out[f"{name}.busy_s"] = busy.get(name, 0.0)
    out["regular_classify.cyclic_regular_affine_subgroups.calls"] = calls.get(
        "regular_classify.cyclic_regular_affine_subgroups", 0
    )
    out["permgroup.closure.calls"] = calls.get("permgroup.closure", 0)
    for claim_id in claim_ids:
        out[f"claims.{claim_id}.busy_s"] = busy.get(f"claims.{claim_id}", 0.0)
    out["cli.self_s"] = self_time.get("cli.main", 0.0)
    out["trace.overhead_s"] = overhead_s(trace)
    return out
