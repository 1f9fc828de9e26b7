"""In-memory spans around the package's public functions, from outside it.

The traced run replaces functions at the module attributes where the CLI
looks them up and restores them afterwards; no file of the package
changes.  Each span records its name, layer, start, end, parent span and
operation id.  Spans are kept in memory and written out when the run ends.

Layers are named after the modules (``stencil``, ``modeq``,
``wave.solver``, ``sim.stepper``, ...); the stepping kernels in
``sim._fallback`` and ``sim._kernels`` belong to ``sim.stepper``.  The
operation span that wraps ``drpkit.cli.main`` is the ``cli`` layer, so
``cli`` self time is argument and config handling plus serialization.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from pathlib import Path


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "failed", "counts")

    def __init__(self, name, layer, start, parent, op):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.failed = False
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; records only while an operation span is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    @property
    def active(self) -> bool:
        return bool(self._stack)

    def begin(self, name: str, layer: str, op: int | None = None) -> Span:
        if op is not None:
            self._op = op
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, layer, 0.0, parent, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def write(self, path: Path):
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.op, s.name, s.layer, s.start, s.end, s.parent, s.failed,
                                     s.counts]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def layer_of(fn) -> str:
    module = getattr(fn, "__module__", "") or ""
    layer = module.removeprefix("drpkit.")
    return "sim.stepper" if layer in ("sim._fallback", "sim._kernels") else layer


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_step_many(args, kwargs, result):
    nodes = len(_arg(args, kwargs, 0, "u"))
    m = len(_arg(args, kwargs, 1, "gamma"))
    node_steps = nodes * _arg(args, kwargs, 3, "n_steps")
    # per node: m differences, m products, m sums, then one product and one sum
    return {"node_steps": node_steps, "flops": node_steps * (3 * m + 2)}


def _count_persistence(args, kwargs, result):
    return {"snapshots": len(_arg(args, kwargs, 0, "history"))}


def _count_speed(args, kwargs, result):
    history = _arg(args, kwargs, 0, "history")
    return {"nodes": len(history) * len(history[0].values)}


def _count_solve(args, kwargs, result):
    return {"branches": len(result), "unresolved": sum(b.unresolved for b in result)}


COUNTERS = {
    "step_many": _count_step_many,
    "measure_persistence": _count_persistence,
    "measure_speed": _count_speed,
    "solve_system": _count_solve,
}


def _wrap(tracer: Tracer, fn, name: str, layer: str):
    count = COUNTERS.get(fn.__name__)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = tracer.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            tracer.end(span)
        if count is not None:
            span.counts = count(args, kwargs, result)
        return result

    return traced


def targets() -> list[tuple[object, str]]:
    """(module, attribute) pairs through which the CLI reaches each layer."""
    import drpkit.cli
    import drpkit.sim
    import drpkit.sim.measure
    import drpkit.sim.stepper
    import drpkit.wave

    def is_function(obj):
        return callable(obj) and not isinstance(obj, type)

    out = [
        (drpkit.cli, name)
        for name, obj in vars(drpkit.cli).items()
        if is_function(obj) and getattr(obj, "__module__", "").startswith("drpkit.")
        and obj.__module__ != "drpkit.cli"
    ]
    for module in (drpkit.wave, drpkit.sim):
        out += [(module, name) for name in module.__all__ if is_function(getattr(module, name))]
    out += [
        (drpkit.sim.stepper, "step_many"),
        (drpkit.sim.stepper, "spectral_oracle"),
        (drpkit.sim.measure, "mirrored_kink_profile"),
    ]
    return out


class Instrumented:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module, attr in targets():
            fn = getattr(module, attr)
            layer = layer_of(fn)
            self._saved.append((module, attr, fn))
            setattr(module, attr, _wrap(self.tracer, fn, f"{layer}.{fn.__name__}", layer))
        return self.tracer

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False
