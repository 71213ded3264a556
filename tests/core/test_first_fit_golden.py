"""Bit-exact output of the first-fit phase packers.

Four entry points pack messages into contention-free phases first-fit:
the ablation baseline (:func:`greedy_phases` and
:func:`random_order_phases`), the alltoallv packer
(:func:`schedule_irregular`) and the schedule-repair packer
(:func:`schedule_pairs`).  Each digest below hashes, case by case, every
scheduled message as (phase, src, dst, kind, group) in schedule order,
plus ``phase_sizes`` for the alltoallv packer.  They were recorded
before the four shared one placement loop, so they hold that sharing it
changed no placement, no phase count and no order within a phase.

The cases run on the paper's topologies (a), (b) and (c) and on 20
seeded random trees.
"""

import hashlib
import math
import random

import pytest

from repro.core.irregular import schedule_irregular, uniform_sizes
from repro.core.naive import greedy_phases, random_order_phases
from repro.core.pattern import aapc_messages
from repro.core.scheduler import schedule_aapc, schedule_pairs
from repro.topology.builder import (
    random_tree,
    topology_a,
    topology_b,
    topology_c,
)
from repro.units import kib

GOLDEN = {
    "greedy_phases":
        "585e1ca7ec07fb8d76c44b82f69cc847c9478a5633743939c530fadbd36dab4d",
    "random_order_phases":
        "cbab20b4367a5df3244d9168594fb09ed7cbb6e8eb66518f94d1885fa8437695",
    "schedule_irregular":
        "5bf87f4f47a0dc57773bc55f9df2ac102c8cab3c2ea974d7986a4cc155b608c8",
    "schedule_pairs":
        "a7c3ed09fd03ec53ed849dfc702eb4af3669e5e2cfc12aa5bfc86f0dd5f7657f",
}


def _topologies():
    yield "a", topology_a()
    yield "b", topology_b()
    yield "c", topology_c()
    rng = random.Random(32)
    for seed in range(20):
        yield (
            f"random-{seed}",
            random_tree(rng.randint(3, 14), rng.randint(1, 5), seed=seed),
        )


def _hash_schedule(h, label, schedule):
    h.update(f"== {label} {schedule.num_phases}\n".encode())
    for sm in schedule.all_messages():
        h.update(
            f"{sm.phase} {sm.src} {sm.dst} {sm.kind.value} "
            f"{sm.group[0]} {sm.group[1]}\n".encode()
        )


def _skewed_sizes(topo, seed):
    """Sizes spread over 1 B .. 256 KiB, with about a tenth of pairs silent."""
    rng = random.Random(seed)
    sizes = {}
    for message in aapc_messages(topo):
        if rng.random() < 0.1:
            continue
        sizes[message.as_tuple()] = rng.choice(
            (1, 100, kib(1), kib(3), kib(16), kib(40), kib(256))
        )
    return sizes


def _greedy_phases(h, name, topo):
    _hash_schedule(h, name, greedy_phases(topo))


def _random_order_phases(h, name, topo):
    for seed in (0, 1, 2):
        _hash_schedule(h, f"{name} seed={seed}", random_order_phases(topo, seed=seed))


def _schedule_irregular(h, name, topo):
    maps = {
        "skewed": _skewed_sizes(topo, len(name)),
        "uniform": uniform_sizes(topo, kib(16)),
    }
    for kind, sizes in maps.items():
        for balance in (1.0, 2.0, 4.0, math.inf):
            result = schedule_irregular(topo, sizes, balance=balance)
            label = f"{name} {kind} balance={balance}"
            _hash_schedule(h, label, result.schedule)
            h.update(f"sizes {result.phase_sizes}\n".encode())


def _schedule_pairs(h, name, topo):
    template = schedule_aapc(topo)
    full = aapc_messages(topo)
    subset = random.Random(name).sample(full, (len(full) * 3) // 5)
    for pending_name, pending in (("full", full), ("subset", subset)):
        for mode, kwargs in (
            ("hinted", dict(template=template)),
            ("compact", dict(template=template, compact=True)),
            ("untemplated", dict()),
        ):
            label = f"{name} {pending_name} {mode}"
            _hash_schedule(h, label, schedule_pairs(topo, pending, **kwargs))


_PACKERS = {
    "greedy_phases": _greedy_phases,
    "random_order_phases": _random_order_phases,
    "schedule_irregular": _schedule_irregular,
    "schedule_pairs": _schedule_pairs,
}


@pytest.mark.parametrize("packer", sorted(GOLDEN))
def test_packer_output_pinned(packer):
    h = hashlib.sha256()
    for name, topo in _topologies():
        _PACKERS[packer](h, name, topo)
    assert h.hexdigest() == GOLDEN[packer]
