"""Benchmark of the steinalg command line on three fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it tests the tree it sits in, with
``src`` on PYTHONPATH and nothing installed.  Every sample is one CLI
call in a fresh interpreter (``bench/child.py``), one at a time, because a
user pays the imports and every cache fill on each call.  Samples repeat
until ``--seconds`` would be exceeded (at least one).  Each report is
checked by ``oracle`` and compared byte for byte with the first one.
``wall_rel`` and ``cpu_rel`` divide each sample's CLI time by the time
of fixed work (``reference``) that the same child does before and after
the call, so the host's phases of speed cancel; the raw seconds are
printed beside them.
``--trace 1`` adds one sample with the layers wrapped by ``layertrace``
and prints the per-layer metrics instead of the end-to-end ones.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Metric names and units are read from ``BENCHMARK.json``.
See ``bench/README.md`` for why these workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import oracle
from layertrace import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"

SETUP_SAMPLES = 8
# a run must end within 180 s; leave room for the last report checks
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    indices: tuple[int, ...]
    radius: int
    example: str | None = None  # verify only

    def cli_args(self, seed: int) -> list[str]:
        args = [self.command]
        if self.example:
            args += ["--example", self.example]
        indices = ",".join(map(str, self.indices))
        return args + ["--indices", indices, "--radius", str(self.radius), "--seed", str(seed)]

    def check(self, report: bytes, seed: int) -> list[str]:
        if self.command == "verify":
            return oracle.check_verify(report, self.example, self.indices, self.radius, seed)
        return oracle.check_scatter(report, self.indices, self.radius)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("selfsim-verify", "verify", (1, 2), 6, "selfsim"),
        Workload("scatter", "scatter", (1, 2, 3, 4), 6),
        Workload("bundle-verify", "verify", (1, 2, 3), 6, "bundle"),
    )
}


@dataclass
class Sample:
    """One child process: its timings, report bytes and what was wrong."""

    mode: str
    report: bytes = b""
    timings: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


class Bench:
    """Spawns the child processes of one benchmark invocation; the
    deadline holds for all of its workloads together."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.spawned = 0
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        # an installed package imports from cached bytecode; so do the samples
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        # the report must go to stdout, not to a directory named by the caller
        self.env.pop("STEINALG_OUT_DIR", None)

    def child(self, mode: str, cli_args: list[str]) -> Sample:
        self.spawned += 1
        result_path = self.work / f"sample{self.spawned}.json"
        result_path.unlink(missing_ok=True)
        sample = Sample(mode)
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(result_path), mode, *cli_args],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                timeout=max(1.0, self.deadline - started),
            )
        except subprocess.TimeoutExpired:
            sample.problems.append("timed out before the run deadline")
            return sample
        sample.report = proc.stdout
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            sample.problems.append(f"child exited {proc.returncode} without timings: {tail}")
            return sample
        if not Path(result["package"]).resolve().is_relative_to(ROOT / "src"):
            sample.problems.append(f"imported steinalg from {result['package']}, not {ROOT / 'src'}")
        sample.timings = result
        if mode == "setup":
            # the other modes do the reference work before their import
            sample.timings["setup_s"] = result["imported_at"] - started
        if mode != "setup" and result["exit_code"] != 0:
            sample.problems.append(f"CLI exited {result['exit_code']}")
        return sample


def oracle_selftest(workload: Workload, report: bytes, seed: int) -> list[str]:
    """Doctored copies of an accepted report that the oracle must reject."""
    return [
        f"oracle accepted a report with {label}"
        for label, doctored in oracle.doctored(report)
        if not workload.check(doctored, seed)
    ]


def judge(workload: Workload, seed: int, samples: list[Sample]) -> None:
    """Add to each sample's problems what the oracle finds wrong with its
    report, and whether its bytes differ from the first sample's."""
    reference = samples[0].report
    for s in samples:
        s.problems += workload.check(s.report, seed)
        if s.report != reference:
            s.problems.append("report bytes differ from the first sample's")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from one traced sample's aggregates."""
    stats, counts = trace["stats"], trace["counts"]
    out = {}
    for layer, names in LAYERS.items():
        for name in names:
            calls, self_s, total_s = stats.get(f"{layer}.{name}", (0, 0.0, 0.0))
            if layer == "cli":
                out[f"cli.{name.lstrip('_')}.total_s"] = total_s
            else:
                out[f"{layer}.{name}.calls"] = calls
                out[f"{layer}.{name}.self_s"] = self_s
    strata = counts["steinberg.st_support_strata.strata"]
    cols = counts["repnorm.h_ball_operator.cols"]
    germ_keys = out["selfsim.germ_key.calls"]
    out["steinberg.st_support_strata.strata"] = strata
    out["steinberg.germ_keys_per_stratum"] = germ_keys / strata if strata else 0.0
    out["repnorm.h_ball_operator.cols"] = cols
    out["repnorm.h_ball_operator.nnz"] = counts["repnorm.h_ball_operator.nnz"]
    interior = counts["repnorm.h_ball_operator.interior"]
    out["repnorm.h_ball_operator.interior_frac"] = interior / cols if cols else 0.0
    out["repnorm.opnorm_lower.iters"] = counts["repnorm.opnorm_lower.iters"]
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.unattributed_s"] = traced_wall - sum(s[1] for s in stats.values())
    out["trace.absent"] = len(trace["absent"])
    return out


def measure(bench: Bench, workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload; returns its samples, metrics and problems."""
    args = workload.cli_args(seed)
    bench.child("setup", [])  # untimed: fills the bytecode and page caches
    setups = [bench.child("setup", []) for _ in range(SETUP_SAMPLES)]
    samples: list[Sample] = []
    start = time.monotonic()
    while True:
        samples.append(bench.child("run", args))
        elapsed = time.monotonic() - start
        per_sample = elapsed / len(samples)
        reserve = 2 * per_sample if trace else 0.0
        if (
            elapsed + per_sample > seconds
            or time.monotonic() + per_sample + reserve > bench.deadline
            or not samples[-1].timings
        ):
            break
    if trace:
        samples.append(bench.child("trace", args))

    judge(workload, seed, samples)
    selftest = []
    if not samples[0].problems:
        selftest = oracle_selftest(workload, samples[0].report, seed)

    timed = [s.timings for s in samples if s.mode == "run" and s.timings]
    wall = _median(t["wall_s"] for t in timed)
    values = {
        "wall_rel": [t["wall_s"] / t["reference_wall_s"] for t in timed],
        "cpu_rel": [t["cpu_s"] / t["reference_cpu_s"] for t in timed],
        "setup_s": [s.timings["setup_s"] for s in setups if s.timings],
        "peak_rss_mb": [t["peak_rss_mb"] for t in timed],
        "wall_s": [t["wall_s"] for t in timed],
        "cpu_s": [t["cpu_s"] for t in timed],
        "reference_s": [t["reference_wall_s"] for t in timed],
    }
    metrics = {name: _median(v) for name, v in values.items()}
    traced = samples[-1] if trace else None
    if traced is not None and traced.timings:
        metrics.update(layer_metrics(traced.timings["trace"], traced.timings["wall_s"], wall))
    failed = sum(1 for s in samples if s.problems)
    return {
        "samples": samples,
        "values": values,
        "metrics": metrics,
        "failed": failed,
        "selftest": selftest,
    }


def run_metadata(seed: int) -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "click"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    rev = "not a git checkout"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        rev = proc.stdout.strip() or rev
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    if not (ROOT / "src" / "steinalg" / "__init__.py").is_file():
        print(f"error: no steinalg source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if opts.trace else "end_to_end"]}

    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    meta = run_metadata(opts.seed)
    results = {}
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        bench = Bench(work)
        for name in names:
            results[name] = measure(bench, WORKLOADS[name], opts.seed, opts.seconds, bool(opts.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta["loadavg_end"] = os.getloadavg()
    print("meta " + json.dumps(meta, sort_keys=True))

    attempted = failed = 0
    correct = True
    metrics = {}
    for name, r in results.items():
        samples = r["samples"]
        attempted += len(samples)
        failed += r["failed"]
        correct = correct and r["failed"] == 0 and not r["selftest"]
        for i, s in enumerate(samples):
            for problem in s.problems:
                print(f"{name} sample {i} ({s.mode}): {problem}", file=sys.stderr)
        for problem in r["selftest"]:
            print(f"{name}: {problem}", file=sys.stderr)
        if not opts.trace:
            for metric, vals in r["values"].items():
                print(
                    f"{name} {metric} {r['metrics'][metric]:.6g} {units.get(metric, 's')} "
                    f"median of {len(vals)}: {' '.join(f'{v:.6g}' for v in vals)}"
                )
        print(f"{name} failed_frac {r['failed'] / len(samples):.6g} ({r['failed']} of {len(samples)} samples)")
        for metric, unit in units.items():
            value = r["metrics"].get(metric, 0.0)
            if opts.trace:
                print(f"{name} {metric} {value:.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
