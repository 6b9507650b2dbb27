"""The benchmark's per-layer tracer (perfbench/tracer.py) still reaches
every layer it wraps, and leaves lucasim as it found it.

Each bundled scenario stands in for the benchmark workload of the same
shape, so the spans it leaves uncalled must be among those the workload
declares idle (perfbench/workloads.py), the check ``--trace 1`` makes.
"""

import importlib.util
import sys
from pathlib import Path
from types import FunctionType

import pytest

from lucasim import actors, adversary, crypto, metrics, model, netsim, objectives, scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (scenario, actors, crypto, adversary, objectives, metrics, netsim, model)
CLASSES = (
    scenario.RunResult,
    actors.BackendServer,
    netsim.Transport,
    model.GroundTruthLog,
    adversary.Attack,
    *adversary.ATTACK_TYPES.values(),
)


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up while the class is built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _functions(owners):
    return {
        (owner, name): value
        for owner in owners
        for name, value in vars(owner).items()
        if isinstance(value, FunctionType)
    }


@pytest.mark.parametrize(
    "bundled, workload",
    [
        ("full_attack_matrix", "attack_matrix"),
        ("honest_baseline", "nat_city"),
        ("trace_leakage", "trace_heavy"),
    ],
)
def test_traced_run_calls_every_wrapped_layer(monkeypatch, bundled, workload):
    tracing = _load(monkeypatch, "tracer")
    idle = _load(monkeypatch, "workloads").WORKLOADS[workload].idle
    before = _functions([*MODULES, *CLASSES])
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, {m.__name__.rsplit(".", 1)[1]: m for m in MODULES})
        wrapped = {key for key, fn in before.items() if vars(key[0])[key[1]] is not fn}
        scenario.run_scenario(scenario.load_bundled_config(bundled)).artifacts()
    finally:
        tracer.unpatch()
    assert wrapped
    assert sorted(tracer.names - tracer.stats.keys() - idle) == []
    assert all(vars(owner)[name] is fn for (owner, name), fn in before.items())
