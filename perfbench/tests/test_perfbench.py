"""Tests of the benchmark's own code: op generation, statistics, spans, checks.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import itertools
from collections import Counter

import pytest

import checks
import metrics
import spans
import workloads
from drpkit.cli import main as cli_main


def _take(workload, seed, n):
    return list(itertools.islice(workloads.operations(workload, seed), n))


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_seed_yields_same_ops(workload):
    assert _take(workload, 7, 200) == _take(workload, 7, 200)
    assert _take(workload, 7, 200) != _take(workload, 8, 200)


def test_analysis_sweep_covers_every_solvable_half_width_each_round():
    size = len(workloads.ANALYSIS_MIX) * len(workloads.HALF_WIDTHS)
    ops = _take("analysis_sweep", 3, 3 * size)
    weights = Counter(workloads.ANALYSIS_MIX)
    for start in range(0, len(ops), size):
        pairs = Counter((op.command, int(op.option("--m"))) for op in ops[start:start + size])
        assert set(pairs) == set(itertools.product(weights, range(1, 10)))
        assert all(count == weights[command] for (command, _), count in pairs.items())


def test_probe_covers_every_documented_half_width(tmp_path):
    import run

    assert workloads.DOCUMENTED_HALF_WIDTHS == tuple(range(1, 17))
    runner = run.Runner(tmp_path)
    unsolved, records = run.probe_half_widths(runner, (1, 2))
    assert unsolved == [] and [r["code"] for r in records] == [0, 0]
    assert all(r["problem"] is None for r in records)


def test_front_tracking_mix():
    ops = _take("front_tracking", 1, 160)
    oracle = sum("--oracle" in op.args for op in ops)
    assert oracle * 4 == len(ops)
    for op in ops:
        assert 10 <= int(op.option("--snap-every")) <= 75


def test_tail_needs_eleven_samples():
    assert metrics.tail([1.0] * 10) is None
    value, percentile, n = metrics.tail([float(x) for x in range(11)])
    assert (value, n) == (0.0, 11)
    assert percentile == pytest.approx(100.0 / 11)


@pytest.mark.parametrize("n", [11, 57, 100, 1000])
def test_tail_keeps_ten_samples_beyond(n):
    samples = [float(x) for x in reversed(range(1, n + 1))]
    value, percentile, count = metrics.tail(samples)
    assert count == n
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)
    if n == 100:
        assert (value, percentile) == (90.0, 90.0)


def test_end_to_end_takes_the_median_over_wall_time_and_the_tail_over_cpu_time():
    wall = [1.0] * 20
    cpu = [float(x) for x in reversed(range(20))]
    out = metrics.end_to_end(wall, cpu, attempted=25, window_s=40.0, setup_s=0.2,
                             peak_rss_mb=40.0)
    assert out["op_s_p50"] == 1.0
    assert out["op_cpu_s_tail"] == 9.0
    assert out["ops_per_s"] == 0.5
    assert out["success_rate"] == 0.8


def _span(name, start, end, parent=-1, op=0, layer=None):
    s = spans.Span(name, layer or name, start, parent, op)
    s.end = end
    return s


def test_self_time_is_duration_minus_children():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 4.0, 8.0, parent=0),
        _span("b1", 5.0, 6.0, parent=2),
        _span("other", 20.0, 21.0, op=1),
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])
    # self times of a tree add up to its root's duration
    assert sum(spans.self_times(tree)[:4]) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 5.0, parent=0),
        _span("b", 3.0, 7.0, parent=0),
        _span("c", 9.0, 12.0, parent=0),
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_per_layer_shares_and_counts():
    tree = [
        _span("cli.main", 0.0, 4.0, layer="cli"),
        _span("wave.solver.solve_system", 1.0, 2.0, parent=0, layer="wave.solver"),
        _span("wave.solver.solve_system", 2.0, 3.0, parent=0, layer="wave.solver"),
        _span("cli.main", 4.0, 6.0, op=1, layer="cli"),
    ]
    tree[1].counts = {"branches": 2, "unresolved": 0}
    tree[2].counts = {"branches": 4, "unresolved": 1}
    out = metrics.per_layer(tree, n_ops=2, files=3, nbytes=4_000_000,
                            untraced_s=5.4, traced_s=6.0)
    assert out["cli.self_s"] == pytest.approx(2.0)
    assert out["cli.share"] == pytest.approx(4.0 / 6.0)
    assert out["wave.solver.share"] == pytest.approx(2.0 / 6.0)
    assert out["wave.solver.calls_per_op"] == pytest.approx(2.0)
    assert out["wave.solver.branches"] == pytest.approx(3.0)
    assert out["wave.solver.unresolved"] == pytest.approx(0.5)
    assert out["cli.mb_per_s"] == pytest.approx(1.0)
    assert out["trace.overhead_frac"] == pytest.approx(0.1)


def test_instrumentation_records_layers_and_restores():
    import drpkit.sim.stepper

    original = drpkit.sim.stepper.step_many
    tracer = spans.Tracer()
    op = workloads.Op("soliton", ("--m", "2", "--verify"))
    with spans.Instrumented(tracer):
        assert drpkit.sim.stepper.step_many is not original
        span = tracer.begin("cli.main", "cli", op=0)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main([op.command, *op.args]) == 0
        tracer.end(span)
    assert drpkit.sim.stepper.step_many is original
    layers = {s.layer for s in tracer.spans}
    assert {"cli", "stencil", "modeq", "wave.ansatz", "wave.solver"} <= layers
    assert sum(s.name == "wave.solver.solve_system" for s in tracer.spans) == 4


def _simulate(tmp_path, *extra):
    op = workloads.Op("simulate", ("--init", "gaussian", "--N", "64", "--m", "2",
                                   "--steps", "40", "--snap-every", "20", *extra))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(op.argv(tmp_path)) == 0
    return op


def test_stepping_check_passes_and_catches_a_wrong_snapshot(tmp_path):
    op = _simulate(tmp_path)
    assert checks.check(op, tmp_path) is None
    last = tmp_path / "snapshot_000040.csv"
    lines = last.read_text().splitlines()
    i, x, u = lines[10].split(",")
    lines[10] = f"{i},{x},{float(u) + 1e-9!r}"
    last.write_text("\n".join(lines) + "\n")
    assert "spectral oracle" in checks.check(op, tmp_path)


def test_json_check_rejects_non_finite_numbers(tmp_path):
    op = _simulate(tmp_path, "--oracle")
    assert checks.check(op, tmp_path) is None
    path = tmp_path / "measurements.json"
    path.write_text(path.read_text().replace('"measured_v": ', '"measured_v": NaN, "x": ', 1))
    assert "non-finite" in checks.check(op, tmp_path)


def test_digest_depends_on_bytes(tmp_path):
    (tmp_path / "a.csv").write_text("1\n")
    first = checks.artifact_digest(tmp_path)
    assert checks.artifact_digest(tmp_path) == first
    (tmp_path / "a.csv").write_text("2\n")
    assert checks.artifact_digest(tmp_path) != first


def test_digests_compare_across_runs_of_one_seed(tmp_path):
    import run

    path = tmp_path / "digests.json"
    first = [{"op": "coeffs --m 1", "digest": "a"}, {"op": "coeffs --m 2", "digest": "b"}]
    assert run.compare_digests(path, first).startswith("first run")
    assert run.compare_digests(path, first[:1]).startswith("agree")
    changed = [first[0], {"op": "coeffs --m 2", "digest": "c"}]
    assert run.compare_digests(path, changed).startswith("MISMATCH at op 1")
