"""Exact discharging on triangulations, in integers.

Every vertex starts with charge d(v) - 6; rules move charge between
neighbors, so the total 2m - 6n (equal to -12 on a triangulation) is
conserved through every phase.  The rules run on integer charges counted
in units of 1/UNIT, UNIT = 168 * 60**2: 168 is the lcm of the rule
denominators 2, 3, 4, 7 and 8, and each factor 60 keeps one equal split
exact (M4 among at most five givers, M5 among at most six needy
neighbors).  Every division asserts that it is exact.  Charges and amounts
become ``fractions.Fraction`` only where a ``ChargeState`` or ``Transfer``
is built, so callers see exact rationals and the engine asserts
equalities, not tolerances.

Two rule sets are implemented: a three-rule warmup and the five-rule main
system whose last two rules redistribute surplus after the first pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .graph import EmbeddedGraph, GraphError, separating_triangles


class DischargeError(GraphError):
    """Input violates a structural precondition of the rules."""


@dataclass(frozen=True)
class Transfer:
    giver: int
    receiver: int
    amount: Fraction
    rule: str


@dataclass(frozen=True)
class ChargeState:
    """Per-vertex charges at a phase plus the ledger that produced them."""

    phase: str
    charge: Mapping[int, Fraction]
    ledger: tuple[Transfer, ...]

    def total(self) -> Fraction:
        return sum(self.charge.values(), Fraction(0))

    def replay(self, initial: "ChargeState") -> dict[int, Fraction]:
        """Apply this state's ledger to ``initial``; must reproduce charges."""
        acc = dict(initial.charge)
        for t in self.ledger:
            acc[t.giver] -= t.amount
            acc[t.receiver] += t.amount
        return acc


@dataclass(frozen=True)
class NeighborProfile:
    """Degree buckets and 5-neighbor classification around one vertex.

    The classification lives on the induced structure of the 5/6-neighbors:
    a member with no other 5/6-neighbor adjacent to it there is isolated; a
    non-isolated 5-neighbor whose both flanking rotation neighbors are
    6-vertices is crowded; remaining 5-neighbors are plain.  ``h`` maps each
    6⁻-neighbor w to the number of 7⁺-vertices among the two face apexes of
    the edge to w.
    """

    fives: tuple[int, ...]
    sixes: tuple[int, ...]
    isolated: frozenset[int]
    crowded: frozenset[int]
    plain: frozenset[int]
    h: Mapping[int, int]


_BAD_LINK = ("neighborhood of {} is not an induced cycle "
             "(separating triangle or degree < 3 nearby)")


def _profile(g: EmbeddedGraph, v: int) -> NeighborProfile:
    ring = g.rotation(v)
    deg = [g.degree(u) for u in ring]
    isolated, crowded, plain = set(), set(), set()
    h = {}
    for i, u in enumerate(ring):
        if deg[i] <= 6:
            dl, dr = deg[i - 1], deg[(i + 1) % len(ring)]
            h[u] = (dl >= 7) + (dr >= 7)
            if h[u] == 2:
                isolated.add(u)
            elif deg[i] == 5:
                (crowded if dl == dr == 6 else plain).add(u)
    return NeighborProfile(
        fives=tuple(u for u, d in zip(ring, deg) if d == 5),
        sixes=tuple(u for u, d in zip(ring, deg) if d == 6),
        isolated=frozenset(isolated),
        crowded=frozenset(crowded),
        plain=frozenset(plain),
        h=h,
    )


# -- the integer core ----------------------------------------------------------

UNIT = 168 * 60 * 60
HALF, THIRD, QUARTER, EIGHTH = UNIT // 2, UNIT // 3, UNIT // 4, UNIT // 8
SEVENTH, TWO_SEVENTHS = UNIT // 7, 2 * UNIT // 7

_Entry = tuple[int, int, int, str]  # giver, receiver, units, rule
_Phase = tuple[str, dict[int, int], int]  # name, charges, ledger prefix


def _setup(g: EmbeddedGraph):
    """Check the common preconditions; the vertices, rotations, degrees and
    initial charges."""
    if not g.is_triangulation():
        raise DischargeError("discharging rules need a triangulation")
    if g.min_degree() < 5:
        raise DischargeError("discharging rules need minimum degree 5")
    vs = g.vertices
    rot = {v: g.rotation(v) for v in vs}
    deg = {v: len(ns) for v, ns in rot.items()}
    return vs, rot, deg, {v: (d - 6) * UNIT for v, d in deg.items()}


def _apply(charge: dict[int, int], ledger: list[_Entry]) -> dict[int, int]:
    out = dict(charge)
    for giver, receiver, amount, _ in ledger:
        if amount <= 0:
            raise DischargeError(f"non-positive transfer {amount}/{UNIT}")
        out[giver] -= amount
        out[receiver] += amount
    return out


def _main_core(g: EmbeddedGraph) -> tuple[list[_Phase], list[_Entry]]:
    vs, rot, deg, init = _setup(g)
    # With minimum degree 5 every link is an induced cycle iff no triangle
    # separates; the first bad link is the smallest triangle's lowest vertex.
    septris = separating_triangles(g)
    if septris:
        raise DischargeError(_BAD_LINK.format(septris[0][0]))
    # the profiles M2 and M3 read, and the 6-vertices with a 5-neighbor
    profiles = {v: _profile(g, v) for v in vs if deg[v] >= 7}
    has_five = {u for v in vs if deg[v] == 5 for u in rot[v] if deg[u] == 6}
    givers = {  # each 5-vertex's positive senders under M1-M3
        v: sum(
            deg[u] >= 6 and (deg[u] != 7 or v not in profiles[u].crowded)
            for u in rot[v]
        )
        for v in vs if deg[v] == 5
    }
    ledger: list[_Entry] = []
    half_givers: dict[int, list[int]] = {}
    for v in vs:
        d = deg[v]
        if d == 6:
            ring = rot[v]
            for i, u in enumerate(ring):
                if deg[u] != 5:
                    continue
                apex = (deg[ring[i - 1]], deg[ring[(i + 1) % 6]])
                if (6 in apex and 5 not in apex) or givers[u] >= 4:
                    amount = QUARTER
                else:
                    amount = HALF
                    half_givers.setdefault(u, []).append(v)
                ledger.append((v, u, amount, "M1"))
        elif d >= 8:
            for u, h in profiles[v].h.items():
                ledger.append((v, u, QUARTER + h * EIGHTH, "M2"))
        elif d == 7:
            prof = profiles[v]
            for u in prof.fives:
                if u in prof.isolated:
                    ledger.append((v, u, HALF, "M3"))
                elif u not in prof.crowded:
                    ledger.append((v, u, QUARTER, "M3"))
            for u in prof.sixes:
                if prof.fives or u in has_five:
                    ledger.append((v, u, QUARTER, "M3"))
    charge1 = _apply(init, ledger)
    r4 = _split(charge1, vs, deg, 5, "M4", lambda v: half_givers.get(v, ()))
    charge2 = _apply(charge1, r4)
    r5 = _split(charge2, vs, deg, 6, "M5", lambda v: (
        u for u in rot[v] if deg[u] == 6 and charge2[u] < 0
    ))
    phases = [
        ("initial", init, 0),
        ("after-M1-M3", charge1, len(ledger)),
        ("after-M4", charge2, len(ledger) + len(r4)),
        ("after-M5", _apply(charge2, r5), len(ledger) + len(r4) + len(r5)),
    ]
    return phases, ledger + r4 + r5


def _split(
    charge: dict[int, int], vs: tuple[int, ...], deg: dict[int, int], d: int,
    rule: str, receivers: Callable[[int], Iterable[int]],
) -> list[_Entry]:
    """Each d-vertex with positive charge splits it equally among its
    receivers, in id order."""
    out: list[_Entry] = []
    for v in vs:
        if deg[v] == d and charge[v] > 0:
            to = sorted(receivers(v))
            if to:
                share, rest = divmod(charge[v], len(to))
                assert not rest, f"{charge[v]}/{UNIT} splits unevenly in {len(to)}"
                out.extend((v, u, share, rule) for u in to)
    return out


def _states(phases: list[_Phase], ledger: list[_Entry]) -> list[ChargeState]:
    """The phases as ``ChargeState``s, one ``Fraction`` per distinct value."""
    frac = functools.cache(lambda x: Fraction(x, UNIT))
    transfers = tuple(Transfer(a, b, frac(x), rule) for a, b, x, rule in ledger)
    return [
        ChargeState(name, {v: frac(c) for v, c in charge.items()}, transfers[:k])
        for name, charge, k in phases
    ]


def initial_charges(g: EmbeddedGraph) -> ChargeState:
    charge = {v: Fraction(g.degree(v) - 6) for v in g.vertices}
    return ChargeState("initial", charge, ())


def run_warmup(g: EmbeddedGraph) -> ChargeState:
    """Simultaneous warmup rules.

    W1: every 7⁺-vertex gives 1/3 to each 5-neighbor.
    W2: every 7⁺-vertex gives 1/7 to each 6-neighbor that has a 5-neighbor.
    W3: every 6-vertex gives 2/7 to each 5-neighbor.
    """
    vs, rot, deg, init = _setup(g)
    ledger: list[_Entry] = []
    for v in vs:
        d = deg[v]
        if d >= 7:
            for u in rot[v]:
                if deg[u] == 5:
                    ledger.append((v, u, THIRD, "W1"))
                elif deg[u] == 6 and any(deg[x] == 5 for x in rot[u]):
                    ledger.append((v, u, SEVENTH, "W2"))
        elif d == 6:
            for u in rot[v]:
                if deg[u] == 5:
                    ledger.append((v, u, TWO_SEVENTHS, "W3"))
    return _states([("warmup", _apply(init, ledger), len(ledger))], ledger)[0]


def main_phases(
    g: EmbeddedGraph,
) -> tuple[ChargeState, ChargeState, ChargeState, ChargeState]:
    """Initial charges and the states after the three main phases.

    Pass one (M1-M3, simultaneous):
      M1: each 6-vertex gives 1/2 to a 5-neighbor, reduced to 1/4 when they
          share a 6-apex and no 5-apex, or when the 5-neighbor has at least
          four positive senders.
      M2: each 8⁺-vertex gives 1/4 + h_w/8 to each 6⁻-neighbor w.
      M3: each 7-vertex gives 1/2, 0 or 1/4 to a 5-neighbor as it is
          isolated, crowded or plain; and 1/4 to each 6-neighbor unless
          neither end has a 5-neighbor.
    Pass two (M4): a 5-vertex with positive charge returns it in equal parts
          to the 6-neighbors that sent 1/2.
    Pass three (M5): a 6-vertex with positive charge splits it equally among
          its 6-neighbors with negative charge.
    """
    return tuple(_states(*_main_core(g)))


def run_main(g: EmbeddedGraph) -> ChargeState:
    """Final state of the five-rule system; see ``main_phases``."""
    phases, ledger = _main_core(g)
    return _states(phases[-1:], ledger)[0]


def negative_vertices(cs: ChargeState) -> list[int]:
    return sorted(v for v, c in cs.charge.items() if c.numerator < 0)
