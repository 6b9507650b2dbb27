"""Per-layer tracing by wrapping lucasim's public functions from outside.

Every wrapped call opens a span; spans nest through a stack, so each name
gets its call count, inclusive seconds (outermost activation only, so
recursion is not counted twice), self seconds (duration minus the time its
child spans cover) and the number of calls that raised.  The wrapping
reaches every call because lucasim looks these names up at call time:

- crypto calls go through ``crypto.<fn>`` (also inside ``crypto`` itself);
- ``run_scenario`` calls flows by the names bound in ``scenario``;
- ``objectives`` calls ``check_O*`` through module globals;
- methods are looked up on their class.

Spans are aggregated per name in memory instead of being kept one by one,
so a traced run stays close to the untraced one in time and memory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable

DECRYPT = "crypto.decrypt"
CONSOLIDATE = "adversary.consolidate"


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    fail: int = 0
    false: int = 0
    # Decrypt attempts made inside consolidate, and how many succeeded.
    decrypt_calls: int = 0
    decrypt_ok: int = 0


class Tracer:
    """Installs wrappers on a set of (owner, attribute) targets and restores them."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []  # child seconds per open span
        self._depth: dict[str, int] = {}
        self._patched: list[tuple[Any, str, Any]] = []
        self.names: set[str] = set()  # every span name a wrapper was installed for

    def reset(self) -> None:
        self.stats = {}
        self._depth = {}

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        depth = self._depth

        def traced(*args: Any, **kwargs: Any) -> Any:
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = Stat()
            st.calls += 1
            frame = [0.0]
            stack.append(frame)
            level = depth.get(name, 0)
            depth[name] = level + 1
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                depth[name] = level
                st.self_s += dur - frame[0]
                if level == 0:
                    st.s += dur
                if stack:
                    stack[-1][0] += dur
                if not ok:
                    st.fail += 1
                if name == DECRYPT and depth.get(CONSOLIDATE):
                    outer = self.stats[CONSOLIDATE]
                    outer.decrypt_calls += 1
                    outer.decrypt_ok += ok
            if result is False:
                st.false += 1
            return result

        return traced

    def patch(self, owners: list[Any], attr: str, name: str) -> None:
        """Replace ``attr`` on every owner with one wrapper of the first owner's value.

        All owners must hold the same object, e.g. ``actors.flow_trace`` and
        the ``flow_trace`` name that ``scenario`` imported from it.
        """
        original = vars(owners[0])[attr]
        for owner in owners[1:]:
            if vars(owner).get(attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not the same object as {name}")
        wrapped = self._wrap(name, original)
        self.names.add(name)
        for owner in owners:
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


FLOWS = (
    "flow_checkin_scanner",
    "flow_checkin_self",
    "flow_checkout",
    "flow_report_positive",
    "flow_rotate_daily_master_key",
    "flow_register_user",
    "flow_register_venue",
    "flow_register_health_dept",
    "flow_trace",
)
CRYPTO = ("encrypt", "decrypt", "sign", "verify", "sym_encrypt", "sym_decrypt", "derive_trace_id", "gen_keypair")
PASSIVE = (
    "link_checkins_by_metadata",
    "score_checkin_linkage",
    "link_groups",
    "score_group_linkage",
    "venue_occupancy_profile",
    "venue_risk_rank",
    "correlate_trace_requests",
    "observe_trace_leakage",
)
CHECKS = ("check_O1", "check_O2", "check_O3", "check_O4", "check_O5", "check_O6")
TRUTH = ("record_event", "all_visits", "true_visits", "contact_of", "export_ndjson")


def install(tracer: Tracer, lucasim: dict[str, ModuleType]) -> None:
    """Wrap every layer boundary the per-layer metrics are taken at."""
    scenario, actors, crypto = lucasim["scenario"], lucasim["actors"], lucasim["crypto"]
    adversary, objectives, metrics = lucasim["adversary"], lucasim["objectives"], lucasim["metrics"]
    netsim, model = lucasim["netsim"], lucasim["model"]

    for fn in ("run_scenario", "parse_config", "build_report"):
        tracer.patch([scenario], fn, f"scenario.{fn}")
    tracer.patch([scenario.RunResult], "artifacts", "scenario.artifacts")
    for fn in FLOWS:
        tracer.patch([actors, scenario], fn, f"actors.{fn}")
    tracer.patch([actors], "fetch_master_pk", "actors.fetch_master_pk")
    tracer.patch([actors.BackendServer], "records_at_venue", "actors.BackendServer.records_at_venue")
    for fn in CRYPTO:
        tracer.patch([crypto], fn, f"crypto.{fn}")
    for fn in ("to_server", "from_server", "export_transcript_ndjson", "export_observations_ndjson"):
        tracer.patch([netsim.Transport], fn, f"netsim.Transport.{fn}")
    for fn in TRUTH:
        tracer.patch([model.GroundTruthLog], fn, f"model.GroundTruthLog.{fn}")
    for fn in PASSIVE:
        tracer.patch([adversary], fn, f"adversary.{fn}")
    tracer.patch([adversary], "consolidate", CONSOLIDATE)
    attack_classes = [adversary.Attack, *adversary.ATTACK_TYPES.values()]
    for method in ("execute", "finalize"):
        owners = [cls for cls in attack_classes if method in vars(cls)]
        for cls in owners:
            tracer.patch([cls], method, f"adversary.Attack.{method}")
    tracer.patch([objectives], "evaluate_objectives", "objectives.evaluate_objectives")
    for fn in CHECKS:
        tracer.patch([objectives], fn, f"objectives.{fn}")
    for fn in ("pairwise_scores", "pair_set_scores"):
        tracer.patch([metrics], fn, f"metrics.{fn}")


def per_layer(stats: dict[str, Stat]) -> dict[str, tuple[float, str]]:
    """Flatten one traced iteration's stats into ``name -> (value, unit)``."""
    def get(name: str) -> Stat:
        return stats.get(name) or Stat()  # a name never called has zero stats

    out: dict[str, tuple[float, str]] = {}

    def calls_s(name: str) -> None:
        out[f"{name}.calls"] = (get(name).calls, "count")
        out[f"{name}.s"] = (get(name).s, "s")

    run = get("scenario.run_scenario")
    out["scenario.run_scenario.self_s"] = (run.self_s, "s")
    out["scenario.parse_config.s"] = (get("scenario.parse_config").s, "s")
    out["scenario.build_report.s"] = (get("scenario.build_report").s, "s")
    out["scenario.artifacts.report_json_s"] = (get("scenario.artifacts").self_s, "s")

    for fn in FLOWS:
        name = f"actors.{fn}"
        calls_s(name)
        out[f"{name}.self_s"] = (get(name).self_s, "s")
    trace = get("actors.flow_trace")
    out["actors.flow_trace.ms_per_call"] = (1000 * trace.s / trace.calls if trace.calls else 0.0, "ms")
    calls_s("actors.fetch_master_pk")
    calls_s("actors.BackendServer.records_at_venue")

    for fn in CRYPTO:
        calls_s(f"crypto.{fn}")
    decrypt = get(DECRYPT)
    out["crypto.decrypt.fail"] = (decrypt.fail, "count")
    out["crypto.sym_decrypt.fail"] = (get("crypto.sym_decrypt").fail, "count")
    out["crypto.verify.false"] = (get("crypto.verify").false, "count")
    out["crypto.decrypt.useful_ratio"] = (_useful(decrypt.calls - decrypt.fail, decrypt.calls), "ratio")

    calls_s("netsim.Transport.to_server")
    calls_s("netsim.Transport.from_server")
    for fn in ("export_transcript_ndjson", "export_observations_ndjson"):
        out[f"netsim.Transport.{fn}.s"] = (get(f"netsim.Transport.{fn}").s, "s")

    for fn in TRUTH[:-1]:
        calls_s(f"model.GroundTruthLog.{fn}")
    out["model.GroundTruthLog.export_ndjson.s"] = (get("model.GroundTruthLog.export_ndjson").s, "s")

    for fn in PASSIVE:
        out[f"adversary.{fn}.s"] = (get(f"adversary.{fn}").s, "s")
    out["adversary.Attack.execute.s"] = (get("adversary.Attack.execute").s, "s")
    out["adversary.Attack.finalize.s"] = (get("adversary.Attack.finalize").s, "s")
    cons = get(CONSOLIDATE)
    out["adversary.consolidate.s"] = (cons.s, "s")
    out["adversary.consolidate.self_s"] = (cons.self_s, "s")
    out["adversary.consolidate.decrypt_calls"] = (cons.decrypt_calls, "count")
    out["adversary.consolidate.useful_ratio"] = (_useful(cons.decrypt_ok, cons.decrypt_calls), "ratio")

    out["objectives.evaluate_objectives.s"] = (get("objectives.evaluate_objectives").s, "s")
    for fn in CHECKS:
        out[f"objectives.{fn}.s"] = (get(f"objectives.{fn}").s, "s")
    for fn in ("pairwise_scores", "pair_set_scores"):
        out[f"metrics.{fn}.s"] = (get(f"metrics.{fn}").s, "s")
    return out


def _useful(ok: int, attempts: int) -> float:
    # No attempt wasted nothing: report 1.0 rather than an undefined ratio.
    return ok / attempts if attempts else 1.0


def self_time_total(stats: dict[str, Stat]) -> float:
    """Sum of self seconds of every span under the run and export roots.

    Every span adds its duration to its parent's child total, so this equals
    the two roots' durations by construction: comparing it with the traced
    wall time checks the tracer's own bookkeeping, not its coverage.
    """
    return sum(st.self_s for name, st in stats.items() if name != "scenario.parse_config")
