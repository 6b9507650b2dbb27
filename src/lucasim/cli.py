"""Command-line interface: run, validate, list, and compare scenarios.

Exit codes: 0 on success, 2 for configuration errors, 3 for internal
invariant breaches (always a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .model import SimulationError
from .report import CompareError, compare_reports, canonical_json
from .scenario import (
    ConfigError,
    ScenarioConfig,
    bundled_scenario_names,
    parse_config,
    read_json_file,
    resolve_config,
    run_scenario,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


def _apply_overrides(config: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    raw = json.loads(json.dumps(config.raw))
    changed = False
    if args.seed_override is not None:
        raw["seed"] = args.seed_override
        changed = True
    if args.posture is not None:
        raw.setdefault("adversary", {})["posture"] = args.posture
        if args.posture == "passive":
            raw["adversary"]["attacks"] = []
        changed = True
    return parse_config(raw) if changed else config


def _cmd_run(args: argparse.Namespace) -> int:
    config = _apply_overrides(resolve_config(args.config), args)
    out_dir = Path(args.out) if args.out else Path("runs") / config.name
    # An unwritable --out fails before the run, not after it.
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("--out", f"cannot write the artifacts: {exc}") from exc
    result = run_scenario(config)
    try:
        for filename, build in result.artifact_builders():
            with (out_dir / filename).open("w", encoding="utf-8") as out:
                out.writelines(build())
    except OSError as exc:
        raise ConfigError("--out", f"cannot write the artifacts: {exc}") from exc
    if args.json_only:
        print(canonical_json(result.report), end="")
        return EXIT_OK
    report = result.report
    print(f"scenario {config.name} (seed {config.seed}) -> {out_dir}")
    counts = report["counts"]
    print(
        f"  {counts['guests']} guests, {counts['venues']} venues, "
        f"{counts['checkins']} check-ins, {counts['traces']} traces"
    )
    linkage = report["linkage"]["checkins"]
    print(
        f"  check-in linkage: precision {linkage['precision']:.3f} "
        f"recall {linkage['recall']:.3f} over {linkage['clusters']} clusters"
    )
    for attack in report["attacks"]:
        status = "SUCCEEDED" if attack["succeeded"] else "FAILED"
        print(f"  attack {attack['attack_id']}: {status} ({attack['detectable']})")
    for verdict in report["objectives"]:
        state = "holds" if verdict["holds"] else "VIOLATED"
        print(f"  {verdict['objective']}: {state}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    resolve_config(args.config)
    print(f"{args.config}: ok")
    return EXIT_OK


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in bundled_scenario_names():
        print(name)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    diff = compare_reports(read_json_file(args.report_a), read_json_file(args.report_b))
    print(json.dumps(diff, sort_keys=True, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lucasim",
        description="Deterministic Luca presence-tracing simulator and adversary harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write its artifacts")
    run_p.add_argument("--config", required=True, help="bundled scenario name or JSON path")
    run_p.add_argument("--out", help="output directory (default: runs/<scenario name>)")
    run_p.add_argument("--seed-override", type=int, default=None)
    run_p.add_argument("--posture", choices=("passive", "active"), default=None)
    run_p.add_argument("--json-only", action="store_true", help="print the report JSON only")
    run_p.set_defaults(fn=_cmd_run)

    val_p = sub.add_parser("validate", help="validate a scenario file without running it")
    val_p.add_argument("--config", required=True)
    val_p.set_defaults(fn=_cmd_validate)

    list_p = sub.add_parser("list", help="list bundled scenarios")
    list_p.set_defaults(fn=_cmd_list)

    cmp_p = sub.add_parser("compare", help="diff two run reports")
    cmp_p.add_argument("report_a")
    cmp_p.add_argument("report_b")
    cmp_p.set_defaults(fn=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CompareError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
