"""Host-time benchmark for lucasim.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload nat_city --seed 1 --seconds 40 --trace 0

The workload generator (``workloads.py``) turns ``--seed`` into a scenario
dict; lucasim sees only that dict, through its public entry points
``scenario.parse_config``, ``scenario.run_scenario`` and
``RunResult.artifacts``.  A run is a closed loop of back-to-back iterations
of that one scenario in this single process, for ``--seconds`` seconds.
Every iteration is checked: the sha256 of its four artifacts must match the
other iterations (and ``digests.json`` at the default seed), and the
workload's invariants must hold on its report.

``--trace 0`` reports the end-to-end metrics, untraced.  Between iterations
it times a fresh interpreter's set-up and the calibration kernel
(``calibrate.py``); every reported time is the run's mean, scaled by the
kernel to a reference host speed.  ``--trace 1`` alternates untraced and
traced iterations and reports the per-layer metrics from the traced ones
(see ``tracer.py``).  Human-readable lines come first; the last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import ModuleType
from typing import Any

import calibrate
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ARTIFACTS = ("report.json", "events.ndjson", "transcript.ndjson", "observations.ndjson")
PROBE_TIMEOUT_S = 60
# Traced span totals must account for the traced wall time up to the cost
# of the two root wrappers themselves.
ACCOUNTING_TOLERANCE = 0.01
TIMES = ("setup_s", "run_s", "export_s", "wall_s")
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def import_lucasim() -> dict[str, ModuleType]:
    """Import lucasim from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "lucasim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lucasim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lucasim
    from lucasim import actors, adversary, crypto, metrics, model, netsim, objectives, scenario

    if Path(lucasim.__file__).resolve().parent != SRC / "lucasim":
        sys.exit(f"perfbench: imported lucasim from {lucasim.__file__}, not {SRC}")
    return {
        "scenario": scenario,
        "actors": actors,
        "crypto": crypto,
        "adversary": adversary,
        "objectives": objectives,
        "metrics": metrics,
        "netsim": netsim,
        "model": model,
    }


def setup_probe(workload: workloads.Workload, seed: int) -> None:
    """What a fresh interpreter does before its first timed iteration."""
    scenario = import_lucasim()["scenario"]
    scenario.parse_config(workload.build(seed))
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its probe is ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=HERE.parent) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def digests(artifacts: dict[str, str]) -> dict[str, str]:
    return {name: hashlib.sha256(artifacts[name].encode()).hexdigest() for name in ARTIFACTS}


class Iterations:
    """Runs and checks iterations of one scenario; keeps the samples of good ones."""

    def __init__(self, lucasim: dict[str, ModuleType], workload: workloads.Workload, seed: int) -> None:
        self.scenario = lucasim["scenario"]
        self.workload = workload
        self.raw = workload.build(seed)
        self.config = self.scenario.parse_config(self.raw)
        recorded = json.loads((HERE / "digests.json").read_text())
        self.expected = recorded[workload.name] if seed == workloads.DEFAULT_SEED else None
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {"run_s": [], "export_s": [], "wall_s": [], "checkins_per_s": []}
        self.digest: dict[str, str] | None = None
        self.counts: dict[str, int] | None = None

    def run(self, parse: bool = False) -> dict[str, Any] | None:
        """One timed iteration; returns its report, or None if it failed."""
        self.attempted += 1
        gc.collect()
        try:
            config = self.scenario.parse_config(self.raw) if parse else self.config
            t0 = time.perf_counter()
            result = self.scenario.run_scenario(config)
            t1 = time.perf_counter()
            artifacts = result.artifacts()
            t2 = time.perf_counter()
            report = result.report
            problems = self.workload.check(self.raw, report)
            problems += self._check_digest(digests(artifacts))
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if problems:
            print(f"iteration {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1
            return None
        checkins = report["counts"]["checkins"]
        self.counts = report["counts"]
        self.samples["run_s"].append(t1 - t0)
        self.samples["export_s"].append(t2 - t1)
        self.samples["wall_s"].append(t2 - t0)
        self.samples["checkins_per_s"].append(checkins / (t2 - t0))
        return report

    def _check_digest(self, got: dict[str, str]) -> list[str]:
        if self.digest is None:
            self.digest = got
        problems = [f"{name} differs from the first iteration" for name in ARTIFACTS if got[name] != self.digest[name]]
        if self.expected is not None:
            problems += [
                f"{name} sha256 {got[name][:12]} != recorded {self.expected[name][:12]}"
                for name in ARTIFACTS
                if got[name] != self.expected[name]
            ]
        return problems


def untraced(its: Iterations, seconds: float) -> dict[str, tuple[float, str]]:
    """Iterations, each followed by a set-up probe and the calibration kernel."""
    deadline = time.perf_counter() + seconds
    kernel = [calibrate.timed()]
    setup: list[float] = []
    step = 0.0  # host time of the last iteration with its probe and kernel
    while not setup or time.perf_counter() + step <= deadline:
        started = time.perf_counter()
        its.run()
        setup.append(measure_setup(its.workload.name, its.config.seed))
        kernel.append(calibrate.timed())
        step = time.perf_counter() - started
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = {"setup_s": setup, **its.samples}
    metrics: dict[str, tuple[float, str]] = {}
    if its.samples["wall_s"]:
        # The kernel ran between all iterations and probes, so a slow phase
        # of the host slowed it as much as them, and the ratio cancels it.
        scale = calibrate.REFERENCE_S / statistics.fmean(kernel)
        metrics = {name: (scale * statistics.fmean(samples[name]), "s") for name in TIMES}
        metrics["checkins_per_s"] = (its.counts["checkins"] / metrics["wall_s"][0], "1/s")
        metrics["peak_rss_mb"] = (rss_mb, "MB")
    summarise(its, samples | {"kernel_s": kernel}, metrics)
    return metrics


def trace_once(
    its: Iterations, tracer: tracing.Tracer, lucasim: dict[str, ModuleType]
) -> tuple[dict[str, tuple[float, str]], dict[str, float]] | None:
    """One checked traced iteration: its per-layer metrics and its exact counts."""
    tracer.reset()
    tracing.install(tracer, lucasim)
    try:
        report = its.run(parse=True)
    finally:
        tracer.unpatch()
    if report is None:
        return None
    wall = its.samples["wall_s"][-1]
    problems = []
    # Bookkeeping: holds by construction unless the tracer itself is wrong.
    accounted = tracing.self_time_total(tracer.stats)
    if abs(accounted - wall) > ACCOUNTING_TOLERANCE * wall:
        problems.append(f"self times sum to {accounted:.4f} s, traced wall is {wall:.4f} s")
    # Coverage: a span that should run but never did means lucasim reached
    # that function through a name the tracer did not wrap.
    bypassed = sorted(tracer.names - tracer.stats.keys() - its.workload.idle)
    if bypassed:
        problems.append(f"wrapped layers never called: {bypassed}")
    if problems:
        print(f"traced iteration {its.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
        its.failed += 1
        return None
    layer = tracing.per_layer(tracer.stats)
    layer["trace.wall_s"] = (wall, "s")
    return layer, _counts(layer) | report["counts"]


def traced(its: Iterations, lucasim: dict[str, ModuleType], seconds: float) -> dict[str, tuple[float, str]]:
    """Pairs of one untraced and one traced iteration; reports the fastest traced one by layer."""
    tracer = tracing.Tracer()
    layers: list[tuple[dict[str, tuple[float, str]], dict[str, float]]] = []
    overhead: list[float] = []  # traced minus untraced wall time of each pair
    deadline = time.perf_counter() + seconds
    step = 0.0  # host time of the last pair
    while not step or time.perf_counter() + step <= deadline:
        started = time.perf_counter()
        plain = its.run()
        untraced_wall = its.samples["wall_s"][-1] if plain is not None else None
        done = trace_once(its, tracer, lucasim)
        step = time.perf_counter() - started
        if done is None:
            continue
        if layers and done[1] != layers[0][1]:
            diff = sorted(k for k, v in done[1].items() if layers[0][1].get(k) != v)
            print(f"counts differ between traced iterations: {diff}", file=sys.stderr)
            its.failed += 1
            continue
        layers.append(done)
        if untraced_wall is not None:
            overhead.append(done[0]["trace.wall_s"][0] - untraced_wall)
    print(f"{its.workload.name}: seed {its.config.seed}, {len(layers)} good traced iterations, "
          f"{its.attempted} iterations in all, {its.failed} failed")
    if len(layers) < 2 or not overhead:
        print("fewer than two good traced iterations: nothing to compare counts with", file=sys.stderr)
        return {}
    # The fastest traced iteration had the least interference from the host;
    # taking all its layers together keeps their self times summing to its wall.
    metrics = dict(min(layers, key=lambda lc: lc[0]["trace.wall_s"][0])[0])
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    return metrics


def _counts(layer: dict[str, tuple[float, str]]) -> dict[str, float]:
    return {name: value for name, (value, unit) in layer.items() if unit == "count"}


def tail(values: list[float]) -> str:
    """The highest percentile that still has at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(values) * (100 - p) / 100 >= 10:
            return f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f}"
    return "(no percentile has 10 samples beyond it)"


def summarise(its: Iterations, samples: dict[str, list[float]], metrics: dict[str, tuple[float, str]]) -> None:
    counts = its.counts or {}
    print(f"{its.workload.name}: seed {its.config.seed}, {counts.get('checkins', '?')} check-ins, "
          f"{counts.get('traces', '?')} traces per iteration")
    print("  measured:")
    for name, values in samples.items():
        if values:
            unit = "1/s" if name == "checkins_per_s" else "s"
            print(f"    {name:<15} median {statistics.median(values):.4f} {unit}, n={len(values)}, {tail(values)}")
    print(f"  reported (run means at the reference host speed, {calibrate.REFERENCE_S} s per kernel):")
    for name, (value, unit) in metrics.items():
        print(f"    {name:<15} {value:.4f} {unit}")
    print(f"  {'failed_frac':<17} {its.failed / its.attempted:.4f} ({its.failed} of {its.attempted} iterations)")
    for name, digest in (its.digest or {}).items():
        print(f"  sha256 {digest} {name}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, args.seed)
        return 0

    lucasim = import_lucasim()
    its = Iterations(lucasim, workload, args.seed)
    if args.trace:
        metrics = traced(its, lucasim, args.seconds)
    else:
        metrics = untraced(its, args.seconds)
    correct = its.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": its.attempted,
        "failed": its.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
