"""Detectors for the reducible local patterns of the extraction pipeline.

Each detector scans a triangulation with minimum degree 5 and no separating
triangle and reports matches as role maps.  A match is a *candidate*: the
planner turns it into reduction plans and every plan is re-certified by the
exact oracle before being applied, so detectors only need to be faithful to
their stated hypotheses, which the tests re-check from the role maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .graph import EmbeddedGraph

# priority order of the catalog
DETECTOR_ORDER = ("apex_pair", "low_trio_star6")


@dataclass(frozen=True)
class ConfigurationMatch:
    """A located pattern: which detector fired and the vertex role map.

    ``j`` is the independent set the planner reduces around.
    ``preferred_k`` orders the planner's slack choices.
    """

    kind: str
    roles: tuple[tuple[str, int], ...]
    j: tuple[int, ...]
    preferred_k: int


def joint_neighborhood(g: EmbeddedGraph, js: Iterable[int]) -> frozenset[int]:
    js = set(js)
    out: set[int] = set()
    for v in js:
        out |= g.neighbors(v)
    return frozenset(out - js)


def _independent(g: EmbeddedGraph, vs: Iterable[int]) -> bool:
    vs = list(vs)
    return all(
        not g.adjacent(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]
    )


def _restrict(g: EmbeddedGraph, within: frozenset[int] | None) -> list[int]:
    if within is None:
        return list(g.vertices)
    return sorted(v for v in within if g.has_vertex(v))


# -- individual detectors -----------------------------------------------------


def detect_apex_pair(
    g: EmbeddedGraph, within: frozenset[int] | None = None
) -> Iterator[ConfigurationMatch]:
    """Edge whose two face apexes are nonadjacent with degrees 5 and <= 6.
    The apexes of uv are v's two neighbours in u's rotation."""
    for u in _restrict(g, within):
        ring = g.rotation(u)
        for i, v in enumerate(ring):
            if v < u:
                continue
            a, b = ring[i - 1], ring[(i + 1) % len(ring)]
            if a == b or g.adjacent(a, b):
                continue
            for w, x in ((a, b), (b, a)):
                if g.degree(w) == 5 and g.degree(x) <= 6:
                    yield ConfigurationMatch(
                        "apex_pair",
                        (("u", u), ("v", v), ("w", w), ("x", x)),
                        j=tuple(sorted((w, x))),
                        preferred_k=0,
                    )
                    break


def _trios_on_ring(ring: tuple[int, ...]) -> Iterator[tuple[int, int, int]]:
    """Index triples of a cycle with no two cyclically consecutive."""
    k = len(ring)
    for i in range(k):
        for j in range(i + 2, k):
            for l in range(j + 2, k):
                if i == 0 and l == k - 1:
                    continue
                yield ring[i], ring[j], ring[l]


def detect_low_trio_star6(
    g: EmbeddedGraph, within: frozenset[int] | None = None
) -> Iterator[ConfigurationMatch]:
    """6-vertex with three pairwise nonadjacent neighbors of degree <= 6."""
    for v in _restrict(g, within):
        if g.degree(v) != 6:
            continue
        for trio in _trios_on_ring(g.rotation(v)):
            if all(g.degree(u) <= 6 for u in trio) and _independent(g, trio):
                t = tuple(sorted(trio))
                yield ConfigurationMatch(
                    "low_trio_star6",
                    (("center", v), ("u1", t[0]), ("u2", t[1]), ("u3", t[2])),
                    j=t,
                    preferred_k=0 if all(g.degree(u) == 6 for u in t) else 1,
                )


_DETECTORS = {
    "apex_pair": detect_apex_pair,
    "low_trio_star6": detect_low_trio_star6,
}


def iter_configs(
    g: EmbeddedGraph, within: frozenset[int] | None = None
) -> Iterator[ConfigurationMatch]:
    """All matches in detector priority order (deterministic)."""
    for name in DETECTOR_ORDER:
        yield from _DETECTORS[name](g, within)


def ball(g: EmbeddedGraph, seeds: Iterable[int], radius: int) -> frozenset[int]:
    cur = {v for v in seeds if g.has_vertex(v)}
    for _ in range(radius):
        nxt = set(cur)
        for v in cur:
            nxt |= g.neighbors(v)
        cur = nxt
    return frozenset(cur)


# joint-neighborhood caps of the sweep's pairs and trios, and its length
PAIR_CAP = 8
TRIO_CAP = 13
SWEEP_LIMIT = 200


def tight_sets(g: EmbeddedGraph, pool: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Independent pairs and trios with small joint neighborhoods inside a
    vertex pool; the last-resort feeder for the generic planner."""
    pool = sorted(set(pool))
    found = 0
    pairs: list[tuple[int, ...]] = []
    for i, x in enumerate(pool):
        for y in pool[i + 1:]:
            if g.adjacent(x, y):
                continue
            nj = joint_neighborhood(g, (x, y))
            if len(nj) <= PAIR_CAP:
                yield (x, y)
                found += 1
                if found >= SWEEP_LIMIT:
                    return
            if len(nj) <= TRIO_CAP - 4:
                pairs.append((x, y))
    cands = []
    for x, y in pairs:
        for z in pool:
            if z <= y or g.adjacent(x, z) or g.adjacent(y, z):
                continue
            nj = joint_neighborhood(g, (x, y, z))
            if len(nj) <= TRIO_CAP:
                cands.append((len(nj), (x, y, z)))
    cands.sort()
    for _, trio in cands:
        yield trio
        found += 1
        if found >= SWEEP_LIMIT:
            return
