"""Tests of the benchmark's own checks.

    PYTHONPATH=src python3 -m pytest -q bench/test_oracle.py

They run small CLI calls through the same child process the benchmark
uses, so they take a few seconds.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402

SEED = 7
SMALL = (
    run.Workload("small-selfsim-verify", "verify", (1, 2), 3, "selfsim"),
    run.Workload("small-scatter", "scatter", (1, 2, 3), 4),
    run.Workload("small-bundle-verify", "verify", (1, 2, 3), 4, "bundle"),
)


def _sample(workload: run.Workload, mode: str = "run") -> run.Sample:
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=run.ROOT) as work:
        return run.Bench(Path(work)).child(mode, workload.cli_args(SEED))


def test_closed_forms_agree():
    # Kesten's interval and the recurrence reproduce Haagerup's norms
    for n in range(1, 8):
        assert abs(oracle.radial_norm(((n, 1),)) - oracle.sphere_norm(n)) < 1e-12
    assert abs(oracle.difference_norm(4, 6) - 0.1852) < 5e-5
    assert oracle.sphere_size(3) == 36


def test_reference_work_is_fixed():
    # wall_rel and cpu_rel compare commits only while this work stays the same
    import reference

    assert reference.reference() == 157_452


def test_doctored_reports_count_as_failed():
    for workload in SMALL:
        good = _sample(workload)
        run.judge(workload, SEED, [good])
        assert good.problems == [], (workload.name, good.problems)
        doctored = oracle.doctored(good.report)
        assert len(doctored) == (1 if workload.command == "scatter" else 2)
        for label, report in doctored:
            bad = run.Sample("run", report)
            run.judge(workload, SEED, [bad])
            assert bad.problems, (workload.name, label)
            second = run.Sample("run", report)
            run.judge(workload, SEED, [good, second])
            assert second.problems, (workload.name, label)


def test_traced_report_matches_and_every_metric_is_declared():
    workload = SMALL[2]
    plain, traced = _sample(workload), _sample(workload, "trace")
    run.judge(workload, SEED, [plain, traced])
    assert plain.problems == [] and traced.problems == []
    trace = traced.timings["trace"]
    assert trace["absent"] == []
    assert trace["stats"]["bundle.bstein_eval"][0] > 0
    assert trace["stats"]["repnorm.h_ball_operator"][0] > 0
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    metrics = run.layer_metrics(trace, traced.timings["wall_s"], plain.timings["wall_s"])
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    assert end_to_end == {"wall_rel", "cpu_rel", "setup_s", "peak_rss_mb"}


def test_missing_names_are_absent_not_errors():
    import layertrace

    tracer = layertrace.Tracer()
    layertrace.install(tracer, {"groups": ("no_such_function",), "no_such_module": ("f",)})
    assert tracer.absent == ["groups.no_such_function", "no_such_module.f"]


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name} ok")
