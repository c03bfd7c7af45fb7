"""Spans around the package's layer boundaries, recorded from outside.

The tracer wraps the public functions that each layer's callers use, by
replacing them on their modules for the length of one traced operation, so no
line of the package changes.  A span is ``(name, start, end, parent)``; the
spans stay in memory and are written out when the run ends.  A layer's self
time is the total of its spans minus the part their child spans cover.

A target that a refactor of the package removed is listed as absent, not
treated as an error.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path


def _rows(args, out) -> int:
    """State rows of an operator call ``(self, x, y, …)``."""
    return int(args[1].shape[0])


def _size(args, out) -> int:
    """Variates returned by an ``_rng`` call."""
    return int(out.size) if out is not None else 0


def _paths(args, out) -> int:
    """Paths of a ``step_normals(seed, path, …)`` call: one per path-step."""
    return int(len(args[1]))


# The entry points the workloads' calls pass through, by layer:
# (module, attribute, span name, units of work in one call).
TARGETS = (
    ("kimura._rng", "step_normals", "rng.step", _paths),
    ("kimura._rng", "counter_normals", "rng.normal", _size),
    ("kimura._rng", "counter_uniforms", "rng.hash", _size),
    ("kimura.operator", "KimuraOperator.drift_batch", "operator.drift", _rows),
    ("kimura.operator", "KimuraOperator.noise_increment", "operator.noise", _rows),
    ("kimura.sde", "simulate_ensemble", "sde.simulate_ensemble", None),
    ("kimura.sde", "counterexample_ensemble", "sde.counterexample_ensemble", None),
    ("kimura.estimators", "decompose", "estimators.decompose", None),
    ("kimura.estimators", "hitting_histogram", "estimators.hitting_histogram", None),
    ("kimura.estimators", "doubling_ratio", "estimators.doubling_ratio", None),
    ("kimura.estimators", "corner_hit_probability", "estimators.corner_hit_probability", None),
    ("kimura.pde", "splu", "pde.factor", None),
    ("kimura.pde", "solve_backward", "pde.solve_backward", None),
    ("kimura.pde", "dirichlet_kernel", "pde.dirichlet_kernel", None),
    ("kimura.pde", "caloric_density", "pde.caloric_density", None),
    ("kimura.pde", "solve_elliptic_2d", "pde.solve_elliptic_2d", None),
    ("kimura.verify", "growth_ratio", "verify.growth_ratio", None),
    ("kimura.cli", "run_config", "cli.run_config", None),
)

# Every per-layer metric the traced run reports; a layer the workload never
# calls reads 0.
METRICS = {
    "rng.calls": "count",
    "rng.uniforms": "count",
    "rng.normals": "count",
    "rng.hash_ns": "ns",
    "rng.normal_ns": "ns",
    "operator.rows": "count",
    "operator.drift_ns": "ns",
    "operator.noise_ns": "ns",
    "sde.path_steps": "count",
    "sde.self_s": "s",
    "sde.self_ns": "ns",
    "estimators.self_s": "s",
    "pde.factors": "count",
    "pde.factor_s": "s",
    "pde.solves": "count",
    "pde.solve_us": "us",
    "pde.self_s": "s",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def _resolve(module: str, attr: str):
    """(owner, name, original) of a target, or None when it no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name, vars(owner)[name]


class _TimedLU:
    """A factorisation whose ``solve`` calls are spans of their own."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self.solve = tracer.wrap("pde.solve", lu.solve, None)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Span recorder for the package's layer boundaries."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.bytes_written = 0

    def wrap(self, name: str, fn, units):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # reserve the slot so children follow the parent
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, units(args, out) if units else 0)

        return traced

    def _wrap_target(self, name: str, fn, units):
        if name == "pde.factor":
            inner = self.wrap(name, fn, None)
            return lambda *a, **k: _TimedLU(inner(*a, **k), self)
        if name == "cli.run_config":
            inner = self.wrap(name, fn, None)

            def run_config(task, cfg, *a, **k):
                rc = inner(task, cfg, *a, **k)
                out = Path(k.get("out") or cfg.get("out", "."))
                self.bytes_written += sum(
                    p.stat().st_size for p in out.rglob("*") if p.is_file()
                )
                return rc

            return run_config
        return self.wrap(name, fn, units)

    def install(self) -> None:
        """Replace every target on its module, and on every ``kimura`` module
        that bound the same object by ``from … import``."""
        self.absent = []
        loaded = [
            m for n, m in list(sys.modules.items()) if n == "kimura" or n.startswith("kimura.")
        ]
        for module, attr, name, units in TARGETS:
            found = _resolve(module, attr)
            if found is None:
                self.absent.append(f"{module}.{attr}")
                continue
            owner, key, original = found
            wrapped = self._wrap_target(name, original, units)
            self._patches.append((owner, key, original))
            setattr(owner, key, wrapped)
            if "." in attr:
                continue
            for mod in loaded:
                if mod is not owner and vars(mod).get(key) is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def write(self, path: Path) -> None:
        payload = {
            "absent": self.absent,
            "spans": [[n, s, e, p] for n, s, e, p, _ in self.spans],
        }
        path.write_text(json.dumps(payload))


def layer_metrics(spans, n_ops: int, bytes_written: int) -> dict[str, float]:
    """Per-operation per-layer metrics from the spans of ``n_ops`` traced
    operations."""
    child_time = [0.0] * len(spans)
    for _, s, e, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += e - s
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    units: dict[str, int] = {}
    calls: dict[str, int] = {}
    rng_top = 0
    for i, (name, s, e, parent, u) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (e - s)
        own[name] = own.get(name, 0.0) + (e - s - child_time[i])
        units[name] = units.get(name, 0) + u
        calls[name] = calls.get(name, 0) + 1
        if name.startswith("rng.") and (parent < 0 or not spans[parent][0].startswith("rng.")):
            rng_top += 1

    def layer_self(layer: str, skip=()) -> float:
        return sum(v for k, v in own.items() if k.split(".")[0] == layer and k not in skip)

    def per(num: float, den: float, scale: float) -> float:
        return num / den * scale if den else 0.0

    def ns_per(name: str) -> float:
        return per(total.get(name, 0.0), units.get(name, 0), 1e9)

    path_steps = units.get("rng.step", 0)
    sde_self = layer_self("sde")
    m = {
        "rng.calls": rng_top,
        "rng.uniforms": units.get("rng.hash", 0),
        "rng.normals": units.get("rng.normal", 0),
        "rng.hash_ns": ns_per("rng.hash"),
        "rng.normal_ns": per(own.get("rng.normal", 0.0), units.get("rng.normal", 0), 1e9),
        "operator.rows": units.get("operator.drift", 0),
        "operator.drift_ns": ns_per("operator.drift"),
        "operator.noise_ns": ns_per("operator.noise"),
        "sde.path_steps": path_steps,
        "sde.self_s": sde_self,
        "sde.self_ns": per(sde_self, path_steps, 1e9),
        "estimators.self_s": layer_self("estimators"),
        "pde.factors": calls.get("pde.factor", 0),
        "pde.factor_s": total.get("pde.factor", 0.0),
        "pde.solves": calls.get("pde.solve", 0),
        "pde.solve_us": per(total.get("pde.solve", 0.0), calls.get("pde.solve", 0), 1e6),
        "pde.self_s": layer_self("pde", skip=("pde.factor", "pde.solve")),
        "verify.self_s": layer_self("verify"),
        "cli.self_s": layer_self("cli"),
        "cli.bytes_written": bytes_written,
        "trace.spans": len(spans),
    }
    # counts and times per operation; the ratios are per unit already
    n = max(n_ops, 1)
    return {k: v / n if METRICS[k] in ("count", "s") else v for k, v in m.items()}
