"""Root identification — Section 4.1 of the paper.

The *root* of the scheduling scheme is a switch that (1) is connected to
a bottleneck edge of the AAPC pattern, and (2) has every subtree hanging
off it containing at most ``|M| / 2`` machines (Lemma 1).

The paper's procedure: take any bottleneck link ``(u, v)`` with
``|M_u| >= |M_v|``.  If ``u`` has more than one branch containing
machines inside ``G_u``, it is the root; otherwise the single
machine-bearing branch's link ``(u1, u)`` is also a bottleneck, so the
walk repeats across it until a node with two or more machine-bearing
branches is found.

The resulting decomposition — the root plus its machine-bearing subtrees
``t_0, ..., t_{k-1}`` ordered by non-increasing machine count — is what
the global scheduler consumes.  The AAPC load then equals
``|M_0| * (|M| - |M_0|)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SchedulingError
from repro.topology.analysis import subtree_machine_counts
from repro.topology.graph import Topology


@dataclass(frozen=True)
class Subtree:
    """One machine-bearing subtree hanging off the scheduling root.

    Attributes
    ----------
    branch:
        The root's neighbour through which this subtree hangs (``t_s0``
        style naming in the paper: the subtree *is* the component of
        ``branch`` when the root link is cut).  The branch may itself be
        a machine (then the subtree is that single machine).
    machines:
        Machines of the subtree in rank order.  Index ``x`` of this
        sequence is the paper's ``t_{i,x}`` numbering.
    """

    branch: str
    machines: Tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.machines)

    def machine(self, index: int) -> str:
        """The paper's ``t_{i,index}`` machine."""
        return self.machines[index]

    def index_of(self, machine: str) -> int:
        return self.machines.index(machine)


@dataclass(frozen=True)
class RootInfo:
    """The root switch and its subtree decomposition.

    ``subtrees`` is ordered by non-increasing machine count, so
    ``subtrees[0]`` is the paper's ``t_0`` with ``|M_0|`` machines.
    """

    root: str
    subtrees: Tuple[Subtree, ...]

    @property
    def sizes(self) -> Tuple[int, ...]:
        """``(|M_0|, |M_1|, ..., |M_{k-1}|)``."""
        return tuple(t.size for t in self.subtrees)

    @property
    def num_machines(self) -> int:
        return sum(self.sizes)

    @property
    def k(self) -> int:
        """Number of machine-bearing subtrees."""
        return len(self.subtrees)

    @property
    def total_phases(self) -> int:
        """``|M_0| * (|M| - |M_0|)`` — the optimal AAPC phase count."""
        if not self.subtrees:
            return 0
        m0 = self.subtrees[0].size
        return m0 * (self.num_machines - m0)

    def subtree_of(self, machine: str) -> int:
        """Index ``i`` of the subtree containing *machine*."""
        for i, t in enumerate(self.subtrees):
            if machine in t.machines:
                return i
        raise SchedulingError(f"machine {machine!r} not in any subtree")

    def locate(self, machine: str) -> Tuple[int, int]:
        """``(i, x)`` such that *machine* is ``t_{i,x}``."""
        for i, t in enumerate(self.subtrees):
            try:
                return i, t.machines.index(machine)
            except ValueError:
                continue
        raise SchedulingError(f"machine {machine!r} not in any subtree")


def identify_root(topology: Topology, root: Optional[str] = None) -> RootInfo:
    """Find the scheduling root per Section 4.1 and decompose the tree.

    Requires ``|M| >= 3`` (the paper's standing assumption; AAPC for one
    or two machines is trivial and handled by the scheduler directly).

    The root is not always unique (any switch whose largest subtree
    attains the bottleneck load qualifies); pass *root* to force a
    particular choice — it is validated against the paper's conditions.

    Raises
    ------
    SchedulingError
        If the topology has fewer than three machines, or the forced
        *root* does not satisfy the root conditions.
    """
    if not topology.validated:
        topology.validate()
    if topology.num_machines < 3:
        raise SchedulingError(
            "root identification requires at least 3 machines "
            f"(got {topology.num_machines}); schedule_aapc handles smaller "
            "clusters directly"
        )

    # Section 3's load |M_u| * |M_v| of every directed edge, read off the
    # one counts table (same order as aapc_edge_loads).
    counts = subtree_machine_counts(topology)
    n = topology.num_machines
    loads = {edge: c * (n - c) for edge, c in counts.items()}
    peak = max(loads.values())

    if root is not None:
        if root not in topology or not topology.is_switch(root):
            raise SchedulingError(f"forced root {root!r} is not a switch")
        info = RootInfo(root=root, subtrees=_decompose(topology, root, counts))
        _check_lemma1(topology, info)
        _check_optimality(info, peak)
        return info

    # Any bottleneck link, oriented so that u is on the side with at
    # least half the machines (|M_u| >= |M_v|).
    u, v = next(
        (a, b)
        for (a, b), load in loads.items()
        if load == peak and counts[(b, a)] >= counts[(a, b)]
    )

    # Walk across single machine-bearing branches.  counts[(u, w)] is the
    # number of machines on w's side of link (u, w); a branch w of u
    # (w != v) "contains machines" when that count is positive.
    while True:
        branches = [
            w
            for w in topology.neighbors(u)
            if w != v and counts[(u, w)] > 0
        ]
        if len(branches) > 1:
            break
        if len(branches) == 0:
            # G_u has no machines outside u itself; with |M_u| >= |M_v|
            # and |M| >= 3 this can only mean u is a machine-bearing
            # switch misidentified — the tree invariants make this
            # unreachable, but fail loudly rather than loop.
            raise SchedulingError(
                f"root walk reached {u!r} with no machine-bearing branch; "
                "topology invariants violated"
            )
        # Exactly one branch holds all of G_u's machines: link
        # (branches[0], u) is also a bottleneck; repeat from there.
        u, v = branches[0], u

    if not topology.is_switch(u):
        raise SchedulingError(
            f"identified root {u!r} is not a switch; the paper's procedure "
            "guarantees a switch root for |M| >= 3"
        )

    subtrees = _decompose(topology, u, counts)
    info = RootInfo(root=u, subtrees=subtrees)
    _check_lemma1(topology, info)
    _check_optimality(info, peak)
    return info


def _check_optimality(info: RootInfo, bottleneck_load: int) -> None:
    """The decomposition's phase count must equal the AAPC load.

    ``|M_0| * (|M| - |M_0|)`` is the load of the root link of the
    largest subtree; a valid root makes it the bottleneck load, which is
    exactly what makes the schedule throughput-optimal.
    """
    if info.total_phases != bottleneck_load:
        raise SchedulingError(
            f"root {info.root!r} yields {info.total_phases} phases but the "
            f"AAPC bottleneck load is {bottleneck_load}; not a valid "
            "scheduling root"
        )


def _decompose(
    topology: Topology,
    root: str,
    counts: Dict[Tuple[str, str], int],
) -> Tuple[Subtree, ...]:
    """The root's machine-bearing subtrees, largest first.

    Sorting is stable on the root's neighbour order, so the
    decomposition is deterministic for a given topology.
    """
    subtrees: List[Subtree] = []
    for w in topology.neighbors(root):
        if counts[(root, w)] == 0:
            continue  # switch-only branch: carries no AAPC traffic
        machines = tuple(topology.subtree_machines(root, w))
        subtrees.append(Subtree(branch=w, machines=machines))
    subtrees.sort(key=lambda t: -t.size)
    return tuple(subtrees)


def _check_lemma1(topology: Topology, info: RootInfo) -> None:
    """Lemma 1: every subtree holds at most |M|/2 machines."""
    half = topology.num_machines / 2
    for t in info.subtrees:
        if t.size > half:
            raise SchedulingError(
                f"Lemma 1 violated: subtree through {t.branch!r} has "
                f"{t.size} machines > |M|/2 = {half}"
            )
    if info.k < 2:
        raise SchedulingError(
            f"root {info.root!r} has {info.k} machine-bearing subtree(s); "
            "expected at least two"
        )
