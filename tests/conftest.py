"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from random import Random

import pytest

from lucasim.actors import (
    World,
    flow_register_health_dept,
    flow_register_user,
    flow_register_venue,
    flow_rotate_daily_master_key,
)
from lucasim.model import CertificateAuthority, GroundTruthLog, MitigationConfig
from lucasim.netsim import CarrierNetwork, NetworkConfig, Transport
from lucasim import crypto


def state_text(root) -> str:
    """Every ``str``, number and ``bytes.hex()`` reachable from ``root``, one a line.

    The walk follows dict keys and values, sequences (which take in the
    fields of ``NamedTuple`` records), ``vars()`` and the ``__slots__`` of
    plain record classes, so a byte scan of the live server covers every
    field it holds.  Callables (the adversary's hook code) are skipped.
    """
    values: list[str] = []
    seen: set[int] = set()

    def walk(obj) -> None:
        if isinstance(obj, (str, int, float)):
            values.append(str(obj))
        elif isinstance(obj, bytes):
            values.append(obj.hex())
        elif obj is not None and not callable(obj) and id(obj) not in seen:
            seen.add(id(obj))
            if isinstance(obj, dict):
                children = [item for pair in obj.items() for item in pair]
            elif isinstance(obj, (list, tuple, set, frozenset)):
                children = obj
            elif hasattr(obj, "__dict__"):
                children = vars(obj).values()
            else:
                children = [getattr(obj, name) for name in type(obj).__slots__]
            for child in children:
                walk(child)

    walk(root)
    return "\n".join(values)


def run_sealed():
    """The sealed ciphertexts of the crypto run record in force: None outside
    a run or in a run that cannot decrypt."""
    run = crypto._RUN.get()
    return None if run is None else run.sealed


def run_derived():
    """The derived trace ids of the crypto run record in force, like :func:`run_sealed`."""
    run = crypto._RUN.get()
    return None if run is None else run.derived


def make_world(
    seed: str = "test",
    *,
    network: NetworkConfig | None = None,
    mitigations: MitigationConfig | None = None,
    pki: bool = False,
) -> World:
    mit = mitigations or MitigationConfig(pki_enabled=pki)
    ca = CertificateAuthority(crypto.gen_keypair("ca", Random(f"{seed}:ca"))) if mit.pki_enabled else None
    return World(
        net=CarrierNetwork(network or NetworkConfig(), Random(f"{seed}:net")),
        transport=Transport(),
        truth=GroundTruthLog(),
        mitigations=mit,
        rng_crypto=Random(f"{seed}:crypto"),
        rng_server=Random(f"{seed}:server"),
        rng_guest=Random(f"{seed}:guest"),
        ca=ca,
    )


def populate(
    world: World,
    *,
    hds: int = 3,
    venues: int = 2,
    guests: int = 4,
    scanners: int = 1,
    rotate_days: tuple[int, ...] = (0,),
) -> World:
    for _ in range(hds):
        flow_register_health_dept(world)
    for i in range(venues):
        flow_register_venue(
            world,
            {
                "name": f"venue-{i:03d}",
                "owner_contact": f"owner-{i:03d}@example.org",
                "lat": 52.50 + 0.01 * i,
                "lon": 13.35 + 0.01 * i,
                "venue_type": "bar",
                "scanners": scanners,
            },
        )
    for i in range(guests):
        guest = world.new_guest(
            {
                "name": f"Guest {i:04d} Surname{i:04d}",
                "address": f"{i} Example Street, Sampletown",
                "phone": f"+49-151-{i:07d}",
            }
        )
        flow_register_user(world, guest)
    for day in rotate_days:
        flow_rotate_daily_master_key(world, world.hds[0], day, day * 86400)
    return world


def replace_venue(world: World, index: int, **changes) -> None:
    """Install a copy of venue ``index`` with ``changes`` in both of the
    world's venue lookups, as a frontend whose state changed."""
    venue = world.venues[index]._replace(**changes)
    world.venues[index] = venue
    world.venues_by_id[venue.venue_id] = venue


@pytest.fixture
def world() -> World:
    return populate(make_world())
