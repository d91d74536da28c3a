"""Detectors for the reducible local patterns of the extraction pipeline.

Each detector scans a triangulation with minimum degree 5 and no separating
triangle and reports matches as role maps.  A match is a *candidate*: the
planner turns it into reduction plans and every plan is re-certified by the
exact oracle before being applied, so detectors only need to be faithful to
their stated hypotheses, which are checked on construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .graph import EmbeddedGraph

# priority order of the catalog
DETECTOR_ORDER = (
    "apex_pair",
    "tight_pair",
    "low_trio_star6",
    "mixed_trio_star6",
    "twin_links6",
    "low_trio_star7",
    "face_corner_trio",
    "twin_links7",
    "six_ring7",
)


@dataclass(frozen=True)
class ConfigurationMatch:
    """A located pattern: which detector fired and the vertex role map.

    ``j`` is the independent set the planner should reduce around (empty for
    patterns whose reduction set is derived separately).  ``preferred_k``
    orders the planner's slack choices.
    """

    kind: str
    roles: tuple[tuple[str, int], ...]
    j: tuple[int, ...] = ()
    preferred_k: int = 0

    def role(self, name: str) -> int:
        for k, v in self.roles:
            if k == name:
                return v
        raise KeyError(name)

    def verify(self, g: EmbeddedGraph) -> bool:
        """Re-check the pattern hypotheses against ``g``."""
        return _verify_match(g, self)


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
    """Edge whose two face apexes are nonadjacent with degrees 5 and <= 6."""
    for u in _restrict(g, within):
        for v in g.rotation(u):
            if v < u:
                continue
            a, b = g.apexes(u, v)
            for w, x in ((a, b), (b, a)):
                if w == x or g.adjacent(w, x):
                    continue
                if g.degree(w) == 5 and g.degree(x) <= 6:
                    yield ConfigurationMatch(
                        "apex_pair",
                        (("u", u), ("v", v), ("w", w), ("x", x)),
                        j=tuple(sorted((w, x))),
                        preferred_k=0,
                    )
                    break


def detect_tight_pair(
    g: EmbeddedGraph, within: frozenset[int] | None = None
) -> Iterator[ConfigurationMatch]:
    """Nonadjacent pair with joint neighborhood of size at most 8."""
    seen: set[tuple[int, int]] = set()
    for z in _restrict(g, within):
        ring = g.rotation(z)
        for i, x in enumerate(ring):
            for y in ring[i + 1:]:
                key = (x, y) if x < y else (y, x)
                if key in seen or g.adjacent(x, y):
                    continue
                seen.add(key)
                if len(joint_neighborhood(g, key)) <= 8:
                    yield ConfigurationMatch(
                        "tight_pair",
                        (("x", key[0]), ("y", key[1])),
                        j=key,
                        preferred_k=0,
                    )


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


def detect_mixed_trio_star6(
    g: EmbeddedGraph, within: frozenset[int] | None = None
) -> Iterator[ConfigurationMatch]:
    """6-vertex with pairwise nonadjacent neighbors of degrees 5, <=6, 7."""
    for v in _restrict(g, within):
        if g.degree(v) != 6:
            continue
        for trio in _trios_on_ring(g.rotation(v)):
            degs = sorted(g.degree(u) for u in trio)
            if degs[0] != 5 or degs[2] != 7 or degs[1] > 6:
                continue
            if not _independent(g, trio):
                continue
            srt = sorted(trio, key=lambda u: (g.degree(u), u))
            yield ConfigurationMatch(
                "mixed_trio_star6",
                (("center", v), ("u1", srt[0]), ("u2", srt[1]), ("u3", srt[2])),
                j=tuple(sorted(trio)),
                preferred_k=1,
            )


def _doubly_linked(g: EmbeddedGraph, hub: int) -> list[int]:
    """Vertices at distance two from hub sharing >= 2 neighbors with it."""
    counts: dict[int, int] = {}
    nb = g.neighbors(hub)
    for u in nb:
        for w in g.rotation(u):
            if w != hub and w not in nb:
                counts[w] = counts.get(w, 0) + 1
    return sorted(w for w, c in counts.items() if c >= 2)


def detect_twin_links6(
    g: EmbeddedGraph, within: frozenset[int] | None = None
) -> Iterator[ConfigurationMatch]:
    """6-vertex doubly linked to a nonadjacent 5-vertex and 6⁻-vertex."""
    for u1 in _restrict(g, within):
        if g.degree(u1) != 6:
            continue
        twins = _doubly_linked(g, u1)
        for u2 in twins:
            if g.degree(u2) != 5:
                continue
            for u3 in twins:
                if u3 == u2 or g.degree(u3) > 6 or g.adjacent(u2, u3):
                    continue
                yield ConfigurationMatch(
                    "twin_links6",
                    (("u1", u1), ("u2", u2), ("u3", u3)),
                    j=tuple(sorted((u1, u2, u3))),
                    preferred_k=0 if g.degree(u3) == 6 else 1,
                )


def detect_low_trio_star7(
    g: EmbeddedGraph, within: frozenset[int] | None = None
) -> Iterator[ConfigurationMatch]:
    """7-vertex with a 5-neighbor plus two more 6⁻-neighbors, pairwise
    nonadjacent."""
    for v in _restrict(g, within):
        if g.degree(v) != 7:
            continue
        for trio in _trios_on_ring(g.rotation(v)):
            degs = sorted(g.degree(u) for u in trio)
            if degs[0] != 5 or degs[2] > 6:
                continue
            if not _independent(g, trio):
                continue
            t = tuple(sorted(trio))
            yield ConfigurationMatch(
                "low_trio_star7",
                (("center", v), ("u1", t[0]), ("u2", t[1]), ("u3", t[2])),
                j=t,
                preferred_k=0 if degs[1] == 5 and degs[2] == 5 else 1,
            )


def detect_face_corner_trio(
    g: EmbeddedGraph, within: frozenset[int] | None = None
) -> Iterator[ConfigurationMatch]:
    """3-face of 6⁺-corners whose other pairwise apexes form an independent
    trio with joint neighborhood at most 13."""
    seen: set[frozenset[int]] = set()
    for v1 in _restrict(g, within):
        for v2 in g.rotation(v1):
            a, b = g.apexes(v1, v2)
            for v3 in (a, b):
                face = frozenset((v1, v2, v3))
                if face in seen or len(face) < 3:
                    continue
                seen.add(face)
                if any(g.degree(x) < 6 for x in face):
                    continue
                corners = sorted(face)
                apexes = []
                ok = True
                for i, j in ((0, 1), (1, 2), (2, 0)):
                    x, y = corners[i], corners[j]
                    other = [
                        w
                        for w in (g.apexes(x, y))
                        if w not in face
                    ]
                    if len(other) != 1:
                        ok = False
                        break
                    apexes.append(other[0])
                if not ok or len(set(apexes)) != 3:
                    continue
                if set(apexes) & face:
                    continue
                if not _independent(g, apexes):
                    continue
                if len(joint_neighborhood(g, apexes)) > 13:
                    continue
                t = tuple(sorted(apexes))
                yield ConfigurationMatch(
                    "face_corner_trio",
                    (
                        ("v1", corners[0]), ("v2", corners[1]),
                        ("v3", corners[2]),
                        ("u1", t[0]), ("u2", t[1]), ("u3", t[2]),
                    ),
                    j=t,
                    preferred_k=0,
                )


def detect_twin_links7(
    g: EmbeddedGraph, within: frozenset[int] | None = None
) -> Iterator[ConfigurationMatch]:
    """7-vertex doubly linked to two nonadjacent 5-vertices."""
    for u1 in _restrict(g, within):
        if g.degree(u1) != 7:
            continue
        twins = [w for w in _doubly_linked(g, u1) if g.degree(w) == 5]
        for i, u2 in enumerate(twins):
            for u3 in twins[i + 1:]:
                if g.adjacent(u2, u3):
                    continue
                yield ConfigurationMatch(
                    "twin_links7",
                    (("u1", u1), ("u2", u2), ("u3", u3)),
                    j=tuple(sorted((u1, u2, u3))),
                    preferred_k=1,
                )


def detect_six_ring7(
    g: EmbeddedGraph, within: frozenset[int] | None = None
) -> Iterator[ConfigurationMatch]:
    """7-vertex without 5-neighbors but with five 6-neighbors that each have
    a 5-neighbor.  Its reduction set is derived from the surroundings."""
    for v in _restrict(g, within):
        if g.degree(v) != 7:
            continue
        ring = g.rotation(v)
        if any(g.degree(u) == 5 for u in ring):
            continue
        sixes = [
            u
            for u in ring
            if g.degree(u) == 6
            and any(g.degree(w) == 5 for w in g.rotation(u))
        ]
        if len(sixes) < 5:
            continue
        yield ConfigurationMatch(
            "six_ring7",
            (("center", v),) + tuple(
                (f"u{i + 1}", u) for i, u in enumerate(sixes)
            ),
            j=(),
            preferred_k=1,
        )


_DETECTORS = {
    "apex_pair": detect_apex_pair,
    "tight_pair": detect_tight_pair,
    "low_trio_star6": detect_low_trio_star6,
    "mixed_trio_star6": detect_mixed_trio_star6,
    "twin_links6": detect_twin_links6,
    "low_trio_star7": detect_low_trio_star7,
    "face_corner_trio": detect_face_corner_trio,
    "twin_links7": detect_twin_links7,
    "six_ring7": detect_six_ring7,
}


def _verify_match(g: EmbeddedGraph, m: ConfigurationMatch) -> bool:
    if m.j and not _independent(g, m.j):
        return False
    k = m.kind
    r = dict(m.roles)
    if k == "apex_pair":
        u, v, w, x = r["u"], r["v"], r["w"], r["x"]
        return (
            g.adjacent(u, v)
            and set(g.apexes(u, v)) == {w, x}
            and not g.adjacent(w, x)
            and g.degree(w) == 5
            and g.degree(x) <= 6
        )
    if k == "tight_pair":
        return len(joint_neighborhood(g, m.j)) <= 8
    if k == "low_trio_star6":
        c = r["center"]
        us = [r["u1"], r["u2"], r["u3"]]
        return g.degree(c) == 6 and all(
            g.adjacent(c, u) and g.degree(u) <= 6 for u in us
        )
    if k == "mixed_trio_star6":
        c = r["center"]
        us = [r["u1"], r["u2"], r["u3"]]
        degs = sorted(g.degree(u) for u in us)
        return (
            g.degree(c) == 6
            and all(g.adjacent(c, u) for u in us)
            and degs[0] == 5
            and degs[1] <= 6
            and degs[2] == 7
        )
    if k in ("twin_links6", "twin_links7"):
        u1, u2, u3 = r["u1"], r["u2"], r["u3"]
        want = 6 if k == "twin_links6" else 7
        share2 = (
            len(g.neighbors(u1) & g.neighbors(u2)) >= 2
            and len(g.neighbors(u1) & g.neighbors(u3)) >= 2
        )
        degs_ok = (
            g.degree(u1) == want
            and g.degree(u2) == 5
            and (g.degree(u3) <= 6 if k == "twin_links6" else g.degree(u3) == 5)
        )
        return share2 and degs_ok
    if k == "low_trio_star7":
        c = r["center"]
        us = [r["u1"], r["u2"], r["u3"]]
        degs = sorted(g.degree(u) for u in us)
        return (
            g.degree(c) == 7
            and all(g.adjacent(c, u) for u in us)
            and degs[0] == 5
            and degs[2] <= 6
        )
    if k == "face_corner_trio":
        corners = [r["v1"], r["v2"], r["v3"]]
        return (
            all(g.degree(x) >= 6 for x in corners)
            and all(
                g.adjacent(a, b)
                for i, a in enumerate(corners)
                for b in corners[i + 1:]
            )
            and len(joint_neighborhood(g, m.j)) <= 13
        )
    if k == "six_ring7":
        c = r["center"]
        sixes = [v for key, v in m.roles if key.startswith("u")]
        return (
            g.degree(c) == 7
            and not any(g.degree(u) == 5 for u in g.rotation(c))
            and len(sixes) >= 5
            and all(
                g.degree(u) == 6
                and g.adjacent(c, u)
                and any(g.degree(w) == 5 for w in g.rotation(u))
                for u in sixes
            )
        )
    return False


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


def tight_sets(
    g: EmbeddedGraph,
    pool: Iterable[int],
    *,
    pair_cap: int = 8,
    trio_cap: int = 13,
    limit: int = 60,
) -> Iterator[tuple[int, ...]]:
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
            if len(nj) <= pair_cap:
                yield (x, y)
                found += 1
                if found >= limit:
                    return
            if len(nj) <= trio_cap - 4:
                pairs.append((x, y))
    cands = []
    for x, y in pairs:
        for z in pool:
            if z <= y or g.adjacent(x, z) or g.adjacent(y, z):
                continue
            nj = joint_neighborhood(g, (x, y, z))
            if len(nj) <= trio_cap:
                cands.append((len(nj), (x, y, z)))
    cands.sort()
    for _, trio in cands:
        yield trio
        found += 1
        if found >= limit:
            return
