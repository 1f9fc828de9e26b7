"""End-to-end statistics and per-layer aggregation of a traced run."""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import Span, self_times

LAYERS = (
    "cli", "stencil", "modeq", "wave.ansatz", "wave.reduction", "wave.expansion",
    "wave.solver", "sim.grid", "sim.stepper", "sim.measure",
)


def tail(latencies: list[float]) -> tuple[float, float, int] | None:
    """Highest percentile that still has at least ten samples beyond it.

    With n sorted samples, the k-th smallest (1-based) has n - k samples
    above it, so the highest such percentile is at k = n - 10.  Returns
    (value, percentile, n), or None with fewer than eleven samples.
    """
    n = len(latencies)
    if n < 11:
        return None
    k = n - 10
    return sorted(latencies)[k - 1], 100.0 * k / n, n


def end_to_end(latencies: list[float], cpu_times: list[float], attempted: int,
               window_s: float, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics from successful operations' wall and CPU times.

    Latency and throughput count successful operations only, so turning a
    fast failure into real work does not read as a slowdown.  The tail is
    taken over CPU time: with operations of ten milliseconds, the 5 to 20 ms
    for which the host deschedules the VM, dozens of times in some minutes
    and hardly at all in others, would alone decide a wall-clock tail.
    """
    out = {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / window_s,
        "peak_rss_mb": peak_rss_mb,
        "success_rate": len(latencies) / attempted,
    }
    if latencies:
        out["op_s_p50"] = statistics.median(latencies)
    t = tail(cpu_times)
    if t is not None:
        out["op_cpu_s_tail"] = t[0]
    return out


def per_layer(spans: list[Span], n_ops: int, files: int, nbytes: int,
              untraced_s: float, traced_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced run; times and counts are per operation."""
    selfs = self_times(spans)
    layer_self: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)     # inclusive time by span name
    calls: dict[str, int] = defaultdict(int)          # span count by span name
    counts: dict[str, float] = defaultdict(float)     # counters by name
    solver_ops = set()
    for span, own in zip(spans, selfs):
        layer_self[span.layer] += own
        total[span.name] += span.duration
        calls[span.name] += 1
        calls[span.layer] += 1
        if span.failed:
            calls[span.layer + ".failed"] += 1
        for key, value in (span.counts or {}).items():
            counts[key] += value
        if span.name == "wave.solver.solve_system":
            solver_ops.add(span.op)
    op_time = sum(s.duration for s in spans if s.parent < 0)

    def per_op(x):
        return x / n_ops

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_op(layer_self[layer])
        out[f"{layer}.share"] = ratio(layer_self[layer], op_time)
    persistence = counts["snapshots"]
    builds = calls["sim.grid.mirrored_kink_profile"]
    out.update({
        "cli.bytes_written": per_op(nbytes),
        "cli.files_written": per_op(files),
        "cli.mb_per_s": ratio(nbytes, layer_self["cli"], 1e-6),
        "sim.measure.persistence_s": per_op(total["sim.measure.measure_persistence"]),
        "sim.measure.snapshots": per_op(persistence),
        "sim.measure.template_builds_per_snapshot": ratio(builds, persistence),
        "sim.measure.speed_s": per_op(total["sim.measure.measure_speed"]),
        "sim.measure.speed_ns_per_node": ratio(total["sim.measure.measure_speed"],
                                               counts["nodes"], 1e9),
        "sim.stepper.step_many_s": per_op(total["sim.stepper.step_many"]),
        "sim.stepper.node_steps": per_op(counts["node_steps"]),
        "sim.stepper.ns_per_node_step": ratio(total["sim.stepper.step_many"],
                                              counts["node_steps"], 1e9),
        "sim.stepper.flops_computed": per_op(counts["flops"]),
        "sim.stepper.run_self_s": per_op(
            sum(own for span, own in zip(spans, selfs) if span.name == "sim.stepper.run")),
        "sim.stepper.oracle_calls": per_op(calls["sim.stepper.spectral_oracle"]),
        "sim.stepper.oracle_s": per_op(total["sim.stepper.spectral_oracle"]),
        "sim.grid.template_builds": per_op(builds),
        "wave.solver.calls_per_op": ratio(calls["wave.solver.solve_system"], len(solver_ops)),
        "wave.solver.branches": ratio(counts["branches"], calls["wave.solver.solve_system"]),
        "wave.solver.unresolved": per_op(counts["unresolved"]),
        "wave.expansion.calls": per_op(calls["wave.expansion"]),
        "modeq.calls": per_op(calls["modeq"]),
        "stencil.calls": per_op(calls["stencil"]),
        "stencil.failures": per_op(calls["stencil.failed"]),
        "trace.overhead_frac": 1.0 - ratio(untraced_s, traced_s),
    })
    return out
