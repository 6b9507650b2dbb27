"""Host-speed calibration kernel.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over seconds to minutes: other tenants contend for the same cores
and caches, and that shows up neither as steal time nor as lower process
CPU time.  ``run.py`` therefore runs this fixed kernel between iterations and
scales every time it reports by ``REFERENCE_S / mean kernel time`` of the
same run.  The kernel samples the host's speed at the same moments as the
program, so a slow phase of the host slows both and cancels out of the
ratio, while a change to lucasim moves only the program's side.

The kernel imitates the program's mix of work: interpreter-bound dict and
list churn with JSON output, and the X25519, AES-GCM and Ed25519 calls that
``lucasim.crypto`` makes through ``cryptography``.  It uses nothing from
lucasim, so no change to lucasim can change it.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

# The kernel's median time on the development host (README.md, "Noise").
# Reported times are the times the program would take on a host where the
# kernel takes exactly this long.
REFERENCE_S = 0.2

_X25519 = X25519PrivateKey.from_private_bytes(bytes(range(32)))
_PEER = X25519PrivateKey.from_private_bytes(bytes(range(1, 33))).public_key()
_ED25519 = Ed25519PrivateKey.from_private_bytes(bytes(range(2, 34)))
_ED25519_PK = _ED25519.public_key()
_AESGCM = AESGCM(bytes(32))


def _hashing() -> None:
    h = b"lucasim"
    for _ in range(40_000):
        h = hashlib.sha256(h).digest()


def _interpreter() -> None:
    rng = random.Random(7)
    groups: dict[str, list[tuple[int, float]]] = {}
    rows = []
    for i in range(40_000):
        key = f"g{rng.randrange(5000)}"
        groups.setdefault(key, []).append((i, rng.random()))
        if i % 10 == 0:
            rows.append({"id": key, "n": len(groups[key]), "t": i * 0.5})
    sorted(groups.items(), key=lambda kv: len(kv[1]))
    json.dumps(rows, sort_keys=True)


def _crypto() -> None:
    for _ in range(300):
        shared = _X25519.exchange(_PEER)
        ciphertext = _AESGCM.encrypt(bytes(12), shared * 4, None)
        _ED25519_PK.verify(_ED25519.sign(ciphertext), ciphertext)


def timed() -> float:
    """Run the kernel once; return its host seconds."""
    t0 = time.perf_counter()
    _hashing()
    _interpreter()
    _crypto()
    return time.perf_counter() - t0
