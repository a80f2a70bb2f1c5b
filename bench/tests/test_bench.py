"""Self-tests of the benchmark harness (no workload is run).

    python -m pytest bench/tests -q
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import compare  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import LOG2, LOG_LAM, WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def span(sid, name, start, end, parent, attrs=None, job=1):
    return [sid, name, start, end, parent, job, attrs]


def synthetic_job():
    """root 0-10 s; a CLI span with an orbit and an LS call below it, and a
    sweep whose two worker points overlap in time."""
    return [
        span(1, spans.ROOT, 0.0, 10.0, None),
        span(2, "cli.main", 0.5, 9.5, 1),
        span(3, "systems.DynamicalSystem.orbit", 1.0, 2.0, 2,
             {"steps": 100, "key": "a"}),
        span(4, "entropy.ls_entropy", 2.0, 4.0, 2, {"depth": 30, "converged": 1}),
        span(5, "matrixcore.WedgeAccumulatorBatch.step", 2.5, 3.0, 4,
             {"points": 10, "minors": 60}),
        span(6, "sweep.run_sweep", 4.0, 9.0, 2, {"workers": 2}),
        span(7, spans.POINT, 4.5, 8.5, 6),
        span(8, spans.POINT, 5.0, 7.0, 6),
        span(9, "systems.DynamicalSystem.orbit", 5.0, 6.0, 8,
             {"steps": 100, "key": "a"}),
    ]


# -- span arithmetic ---------------------------------------------------------


def test_covered_merges_overlaps():
    assert spans.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert spans.covered([]) == 0.0


def test_self_times_on_synthetic_tree():
    selfs = spans.self_times(synthetic_job())
    assert selfs[1] == pytest.approx(1.0)           # 10 - cli's 9
    assert selfs[2] == pytest.approx(9.0 - 1 - 2 - 5)
    assert selfs[4] == pytest.approx(1.5)           # 2 - wedge step 0.5
    assert selfs[6] == pytest.approx(5.0 - 4.0)     # points overlap: 4.5-8.5
    assert selfs[8] == pytest.approx(1.0)


def test_job_metrics_on_synthetic_tree():
    m = spans.job_metrics(synthetic_job())
    assert m["systems.orbit_s"] == pytest.approx(2.0)
    assert m["systems.orbit_steps"] == 200
    assert m["systems.orbit_dup_frac"] == pytest.approx(0.5)
    assert m["entropy.ls_self_s"] == pytest.approx(1.5)
    assert m["entropy.ls_converged_frac"] == 1.0
    assert m["matrixcore.minors_computed"] == 60
    assert m["sweep.point_s_sum"] == pytest.approx(6.0)
    assert m["sweep.point_s_max"] == pytest.approx(4.0)
    assert m["sweep.parallel_eff"] == pytest.approx(6.0 / (2 * 5.0))
    assert m["cli.unattributed_s"] == pytest.approx(1.0 + 1.0)


# -- host-speed scaling ----------------------------------------------------------


def test_times_scale_by_the_kernel_around_them():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.at_reference([2.0], [ref, ref]) == pytest.approx([2.0])
    # a host at half speed: the kernel and the job both take twice as long
    assert hostspeed.at_reference([4.0], [2 * ref, 2 * ref]) == pytest.approx([2.0])
    # each time uses the mean of the kernel times just before and after it
    scaled = hostspeed.at_reference([3.0, 3.0], [ref, 2 * ref, 3 * ref])
    assert scaled == pytest.approx([2.0, 1.2])
    with pytest.raises(ValueError):
        hostspeed.at_reference([1.0, 1.0], [ref, ref])
    assert hostspeed.scale(3.0, 1.5 * ref) == pytest.approx(2.0)
    assert hostspeed.kernel_s() > 0 and hostspeed.kernel_s(2) > 0


# -- every metric is emitted with its unit -------------------------------------


def _fake_result(trace_on: bool) -> dict:
    layers = dict(spans.job_metrics(synthetic_job()), **{
        "trace.overhead_frac": 0.01, "failed_frac": 0.0, "oracle_err": 1e-9})
    return {"workload": "cat-lyapunov", "seed": 1, "attempted": 3, "failed": 0,
            "failed_frac": 0.0, "oracle_err": 1e-9,
            "samples": {"wall_s": [1.0], "traced_wall_s": [1.1] if trace_on else [],
                        "measured_job_s": [1.0, 1.1], "job_traced": [False, trace_on]},
            "end_to_end": {"wall_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 100.0},
            "per_layer": layers}


@pytest.mark.parametrize("trace_on,section", [(False, "end_to_end"),
                                              (True, "per_layer")])
def test_every_metric_emitted_with_unit(trace_on, section, capsys):
    line = run.emit(_fake_result(trace_on), SPEC, trace_on)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(line["metrics"][m["name"]]["value"])
    printed = capsys.readouterr().out
    for name in ("wall_s", "setup_s", "peak_rss_mb", "failed_frac", "oracle_err"):
        assert name in printed


# -- the oracle rejects perturbed outputs --------------------------------------


def _cat_outputs(tmp_path, shift):
    w = WORKLOADS["cat-lyapunov"]
    inputs = w.inputs(1, tmp_path)
    out = Path(inputs["out"])
    out.mkdir(parents=True)
    spectrum = {"exponents": [LOG_LAM + shift, -LOG_LAM]}
    (out / "spectrum.json").write_text(json.dumps(spectrum))
    return w, inputs


def _sweep_outputs(tmp_path, name, value):
    w = WORKLOADS[name]
    inputs = w.inputs(1, tmp_path)
    out = Path(inputs["out"])
    out.mkdir(parents=True)
    rows = [{"t": 0.1 * i, "error": None,
             "estimates": {"pesin": {"value": value},
                           "jacobian_F": {"value": value}}}
            for i in range(4)]
    (out / "sweep.json").write_text(json.dumps({"rows": rows}))
    return w, inputs


def _skew_result(gap):
    spectrum = SimpleNamespace(exponents=np.array([2.0, 0.1, -0.1, -2.0]))
    report = SimpleNamespace(gaps={"a|b": 0.001, "a|c": gap, "b|c": 0.002})
    return spectrum, report


def test_oracle_accepts_analytic_values(tmp_path):
    w, inputs = _cat_outputs(tmp_path / "cat", 0.0)
    assert w.check(inputs, 0).failed == 0
    w, inputs = _sweep_outputs(tmp_path / "mp", "mp-sweep", LOG2)
    assert w.check(inputs, 0).failed == 0
    w, inputs = _sweep_outputs(tmp_path / "da", "da-ulam-sweep", LOG_LAM)
    assert w.check(inputs, 0).failed == 0
    assert WORKLOADS["skew-entropy"].check({}, _skew_result(0.01)).failed == 0


def test_perturbed_outputs_fail_the_oracle(tmp_path):
    w, inputs = _cat_outputs(tmp_path / "cat", 1e-4)
    out = w.check(inputs, 0)
    assert out.failed == 1 and out.oracle_err == pytest.approx(1e-4)
    w, inputs = _sweep_outputs(tmp_path / "mp", "mp-sweep", LOG2 + 0.05)
    assert w.check(inputs, 0).failed == 2
    w, inputs = _sweep_outputs(tmp_path / "da", "da-ulam-sweep", LOG_LAM - 0.05)
    assert w.check(inputs, 0).failed == 8
    assert WORKLOADS["skew-entropy"].check({}, _skew_result(0.03)).failed == 1
    assert w.check(inputs, 3).failed == 1          # CLI exit code != 0


# -- inputs come from the seed -------------------------------------------------


def _inputs_text(workload, seed, workdir):
    inputs = workload.inputs(seed, workdir)
    text = json.dumps(inputs, sort_keys=True).replace(str(workdir), "")
    if "config" in inputs:
        text += Path(inputs["config"]).read_text()
    return text


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_inputs(name, tmp_path):
    w = WORKLOADS[name]
    one = _inputs_text(w, 1, tmp_path / "a")
    assert _inputs_text(w, 1, tmp_path / "b") == one
    assert _inputs_text(w, 2, tmp_path / "c") != one


def test_workloads_match_benchmark_json():
    assert set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


# -- compare verdicts ------------------------------------------------------------


def test_compare_verdicts():
    flat = [(1.0 + 0.001 * i, 1.0 + 0.001 * i) for i in range(10)]
    assert compare.verdict(flat, "lower", 0.1) == "unchanged"
    faster = [(1.0 + 0.001 * i, 0.8 + 0.001 * i) for i in range(10)]
    assert compare.verdict(faster, "lower", 0.1) == "improved"
    slower = [(1.0 + 0.001 * i, 1.3 + 0.001 * i) for i in range(10)]
    assert compare.verdict(slower, "lower", 0.1) == "regressed"
    noisy = [(1.0 + 0.1 * (i % 5), 1.05 + 0.1 * ((i + 2) % 5)) for i in range(10)]
    assert compare.verdict(noisy, "lower", 0.1) == "unresolved"
    few = faster[:5]
    assert compare.verdict(few, "lower", 0.1) == "unchanged"
    counts = [(100, 80)] * 10
    assert compare.verdict(counts, "lower") == "improved"
    assert compare.verdict([(100, 120)] * 3, "lower") == "regressed"
