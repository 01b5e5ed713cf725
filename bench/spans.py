"""In-memory span recording around the library's public calls, and the
per-layer metrics derived from the spans.

Wrapping replaces a public function in every ``groupcs`` module namespace
that holds it, so the wrapper runs wherever a caller looks the function up
(``harness.find_min_m`` inside ``scatter_gamma_vs_m``, ``gamma.norm_2to1_lower``
inside ``penalty_gamma``, and so on).  A function that no longer exists is
skipped and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import sys
import time

import numpy as np

# (span name, home module, function)
TARGETS = (
    ("harness.find_min_m", "groupcs.harness", "find_min_m"),
    ("recovery.solve", "groupcs.recovery", "basis_pursuit"),
    ("recovery.certificate", "groupcs.recovery", "dual_certificate"),
    ("grouping.draw", "groupcs.grouping", "draw_uniform"),
    ("grouping.draw", "groupcs.grouping", "draw_bernoulli"),
    ("gamma.penalty", "groupcs.gamma", "penalty_gamma"),
    ("gamma.exact", "groupcs.gamma", "norm_2to1_exact_real"),
    ("gamma.lower", "groupcs.gamma", "norm_2to1_lower"),
    ("gamma.sdp", "groupcs.gamma", "norm_2to1_upper_sdp"),
    ("bounds.cross_gram", "groupcs.recovery", "cross_gram"),
)


def _bound_arg(fn, args, kwargs, name):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


def _summary(name, fn, args, kwargs, result) -> dict:
    """Work attributes of one call, read from its arguments and result."""
    if name == "recovery.solve":
        return {
            "iters": int(getattr(result, "iterations", 0)),
            "converged": bool(getattr(result, "converged", True)),
        }
    if name == "harness.find_min_m":
        cfg = _bound_arg(fn, args, kwargs, "cfg")
        per_m = getattr(result, "per_m", ())
        return {
            "m_points": len(per_m),
            "trials": sum(s.executed for s in per_m),
            "trials_per_m": getattr(cfg, "trials_per_m", 0),
            "grid": len(getattr(cfg, "m_grid", ())),
        }
    if name == "gamma.penalty":
        gs = _bound_arg(fn, args, kwargs, "gs")
        return {
            "route": getattr(result, "method", ""),
            "groups": getattr(gs, "n_groups", 0),
            "degraded": bool(getattr(result, "degraded", False)),
        }
    if name == "gamma.sdp" and isinstance(result, tuple):
        info = result[1]
        return {
            "gap_rel": float(info.gap) / max(1.0, float(info.dual)),
            "degraded": bool(info.degraded),
        }
    return {}


class Tracer:
    """Records spans (name, start, end, parent, op id) in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = ""

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
        self.spans[idx]["attrs"].update(attrs)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "op": self.op, "parent": parent, "start": time.perf_counter(),
             "end": None, "attrs": {}}
        )
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int):
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.spans[idx]["attrs"] = _summary(name, fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target in every loaded groupcs module; restore on exit."""
        patched = []
        for name, home, attr in TARGETS:
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "groupcs" or mod_name.startswith("groupcs.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, original))
        try:
            yield
        finally:
            for mod, key, original in patched:
                setattr(mod, key, original)


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [_dur(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= _dur(s)
    return out


def op_metrics(spans: list[dict], op: str) -> dict[str, float]:
    """Per-layer work counts and times of one operation."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s["op"] == op:
            by_name.setdefault(s["name"], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name):
        return float(sum(_dur(spans[i]) for i in idx(name)))

    def attrs(name):
        return [spans[i]["attrs"] for i in idx(name)]

    m: dict[str, float] = {}
    m["grouping.draw_calls"] = len(idx("grouping.draw"))
    m["grouping.draw_s"] = total("grouping.draw")

    pen = idx("gamma.penalty")
    m["gamma.calls"] = len(pen)
    m["gamma.s"] = total("gamma.penalty")
    m["gamma.self_s"] = float(sum(selfs[i] for i in pen))
    exact = [i for i in pen if spans[i]["attrs"].get("route") == "exact_sign_enum"]
    m["gamma.exact.groups"] = sum(spans[i]["attrs"]["groups"] for i in exact)
    m["gamma.exact.s"] = float(sum(_dur(spans[i]) for i in exact))
    m["gamma.lower.groups"] = len(idx("gamma.lower"))
    m["gamma.lower.s"] = total("gamma.lower")
    sdp = attrs("gamma.sdp")
    m["gamma.sdp.groups"] = len(sdp)
    m["gamma.sdp.s"] = total("gamma.sdp")
    m["gamma.sdp.degraded"] = sum(a.get("degraded", False) for a in sdp)
    m["gamma.sdp.gap_max"] = max((a.get("gap_rel", 0.0) for a in sdp), default=0.0)

    solves = attrs("recovery.solve")
    iters = np.array([a["iters"] for a in solves], dtype=float)
    m["recovery.solves"] = len(solves)
    m["recovery.iters"] = int(iters.sum())
    m["recovery.nonconverged"] = sum(not a["converged"] for a in solves)
    for q, key in ((50, "p50"), (90, "p90"), (100, "max")):
        m[f"recovery.iters_{key}"] = float(np.percentile(iters, q)) if iters.size else 0.0
    m["recovery.solve_s"] = total("recovery.solve")
    m["recovery.us_per_iter"] = 1e6 * m["recovery.solve_s"] / iters.sum() if iters.sum() else 0.0
    m["recovery.certificate_calls"] = len(idx("recovery.certificate"))
    m["recovery.certificate_s"] = total("recovery.certificate")

    fmm = attrs("harness.find_min_m")
    m["harness.find_min_m_calls"] = len(fmm)
    m["harness.m_points"] = sum(a["m_points"] for a in fmm)
    grid_points = sum(a["grid"] for a in fmm)
    m["harness.grid_share"] = m["harness.m_points"] / grid_points if grid_points else 0.0
    m["harness.trials"] = sum(a["trials"] for a in fmm)
    m["harness.trial_budget"] = sum(a["m_points"] * a["trials_per_m"] for a in fmm)
    budget = m["harness.trial_budget"]
    m["harness.early_stop_share"] = 1.0 - m["harness.trials"] / budget if budget else 0.0
    fmm_s = total("harness.find_min_m")
    m["harness.trials_per_s"] = m["harness.trials"] / fmm_s if fmm_s else 0.0
    m["harness.self_s"] = float(sum(selfs[i] for i in idx("harness.find_min_m")))

    for key in ("gram", "crossrow"):
        m[f"bounds.{key}_trials"] = sum(a.get("trials", 0) for a in attrs(f"bounds.{key}"))
        m[f"bounds.{key}_s"] = total(f"bounds.{key}")
    return m


def setup_metrics(spans: list[dict], op: str) -> dict[str, float]:
    """Per-layer times of one set-up."""
    def total(name):
        return float(sum(_dur(s) for s in spans if s["op"] == op and s["name"] == name))

    return {
        "operators.ensemble_s": total("operators.ensemble"),
        "grouping.structures_s": total("grouping.structures"),
    }


@contextlib.contextmanager
def no_span(name: str, **attrs):
    yield


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in per_op) for k in per_op[0]}
