"""Golden artifact digests: every bundled scenario replays to pinned bytes.

The digests are regenerated in a fresh interpreter under a non-default
``PYTHONHASHSEED``, so they also pin that no artifact depends on state left
behind by other tests; a second hash seed and ``python -O`` (which strips
``assert`` statements) must reproduce the same file.  A change that moves a
digest on purpose regenerates the file with::

    PYTHONPATH=src python tests/test_golden_digests.py

and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lucasim

GOLDEN = Path(__file__).with_name("golden_digests.json")
HASH_SEED = "12345"

_DIGEST_SCRIPT = """
import hashlib, json
from lucasim.scenario import bundled_scenario_names, load_bundled_config, run_scenario
digests = {}
for name in bundled_scenario_names():
    artifacts = run_scenario(load_bundled_config(name)).artifacts()
    digests[name] = {
        filename: hashlib.sha256(content.encode("utf-8")).hexdigest()
        for filename, content in artifacts.items()
    }
print(json.dumps(digests, sort_keys=True, indent=2))
"""


def _fresh_env(hash_seed: str = HASH_SEED) -> dict[str, str]:
    """The environment of a fresh interpreter that imports this lucasim."""
    src = str(Path(lucasim.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": pythonpath}


def compute_digests(hash_seed: str = HASH_SEED, *flags: str) -> str:
    """sha256 of all four artifacts of every bundled scenario, as canonical
    JSON, from an interpreter started with ``flags`` under ``hash_seed``."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _DIGEST_SCRIPT],
        env=_fresh_env(hash_seed),
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def test_bundled_artifacts_match_golden_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert json.loads(compute_digests()) == expected


@pytest.mark.parametrize(
    "hash_seed, flags", [("987654", ()), (HASH_SEED, ("-O",))], ids=["second-hash-seed", "optimized"]
)
def test_bundled_artifacts_match_golden_digests_under_other_interpreter_settings(hash_seed, flags):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert json.loads(compute_digests(hash_seed, *flags)) == expected


def test_cli_run_writes_the_golden_bytes(tmp_path):
    """``lucasim run`` builds and writes each artifact itself; its files must
    hold the same bytes as ``RunResult.artifacts()``."""
    out = tmp_path / "out"
    command = ["run", "--config", "honest_baseline", "--out", str(out), "--json-only"]
    subprocess.run(
        [sys.executable, "-m", "lucasim.cli", *command],
        env=_fresh_env(),
        capture_output=True,
        check=True,
        timeout=60,
    )
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert written == json.loads(GOLDEN.read_text(encoding="utf-8"))["honest_baseline"]


if __name__ == "__main__":
    GOLDEN.write_text(compute_digests(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
