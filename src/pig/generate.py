"""Seeded random planar triangulations.

Build-up: start from K4, insert vertices into random faces until the target
size, then mix with a walk of random diagonal flips (10*m attempts).  Flag
repair: targeted flips raise small degrees / break separating triangles;
samples that cannot be repaired are rejected and redrawn, up to a fixed
budget.  The whole process is a pure function of the GenSpec recipe.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from .graph import EmbeddedGraph, GraphError, separating_triangles

FLIP_WALK_FACTOR = 10
REJECTION_BUDGET = 1000
REPAIR_ROUNDS = 400


class GenerationError(GraphError):
    """Flag satisfaction not achieved within the attempt budget."""


@dataclass(frozen=True)
class GenSpec:
    """Deterministic recipe for one corpus triangulation."""

    seed: int
    n: int
    min_degree5: bool = False
    no_separating_triangle: bool = False


class _Builder:
    """Mutable rotation system for the generation walk (ids 1..n)."""

    def __init__(self):
        self.rot: dict[int, list[int]] = {
            1: [2, 3, 4], 2: [1, 4, 3], 3: [1, 2, 4], 4: [1, 3, 2],
        }
        self.adj: dict[int, set[int]] = {v: set(ns) for v, ns in self.rot.items()}
        # K4 faces; kept fresh only during the insertion phase
        self.faces: list[tuple[int, int, int]] = [
            (1, 2, 4), (1, 4, 3), (1, 3, 2), (2, 3, 4),
        ]

    @property
    def m(self) -> int:
        return sum(len(ns) for ns in self.rot.values()) // 2

    def insert_vertex(self, face_idx: int) -> None:
        a, b, c = self.faces[face_idx]
        w = len(self.rot) + 1
        self.rot[w] = [a, c, b]
        self.adj[w] = {a, b, c}
        ra = self.rot[a]
        ra.insert(ra.index(c) + 1, w)
        rb = self.rot[b]
        rb.insert(rb.index(a) + 1, w)
        rc = self.rot[c]
        rc.insert(rc.index(b) + 1, w)
        for x in (a, b, c):
            self.adj[x].add(w)
        self.faces[face_idx] = (a, b, w)
        self.faces.append((b, c, w))
        self.faces.append((c, a, w))

    def flippable(self, u: int, v: int) -> tuple[int, int] | None:
        """The apexes of edge uv when flipping it keeps the graph simple."""
        ns = self.rot[u]
        k = len(ns)
        if k <= 3 or len(self.rot[v]) <= 3:
            return None
        i = ns.index(v)
        x, y = ns[i - 1], ns[(i + 1) % k]
        return (x, y) if x != y and y not in self.adj[x] else None

    def flip(self, u: int, v: int, x: int, y: int) -> None:
        """Replace edge uv by the edge between its two face apexes x, y."""
        rot, adj = self.rot, self.adj
        rot[u].remove(v)
        rot[v].remove(u)
        adj[u].discard(v)
        adj[v].discard(u)
        rx, ry = rot[x], rot[y]
        rx.insert(rx.index(v) + 1, y)
        ry.insert(ry.index(u) + 1, x)
        adj[x].add(y)
        adj[y].add(x)

    def graph(self) -> EmbeddedGraph:
        return EmbeddedGraph(self.rot)


def _sample(rng: random.Random, n: int) -> _Builder:
    b = _Builder()
    while len(b.rot) < n:
        b.insert_vertex(rng.randrange(len(b.faces)))
    for _ in range(FLIP_WALK_FACTOR * b.m):
        u = rng.randrange(1, n + 1)
        v = rng.choice(b.rot[u])
        apexes = b.flippable(u, v)
        if apexes:
            b.flip(u, v, *apexes)
    return b


def _repair_degrees(b: _Builder, rng: random.Random, n: int) -> bool:
    """Raise every degree to >= 5 by flipping edges of faces at deficient
    vertices; the flip adds an edge at the apex and cheapens two others."""
    # (degree, v) for the deficient vertices, least first; an entry that no
    # longer matches its vertex's degree is stale, dropped when on top
    low = [(len(b.rot[v]), v) for v in range(1, n + 1) if len(b.rot[v]) < 5]
    heapq.heapify(low)
    for _ in range(REPAIR_ROUNDS * 4):
        while low and low[0][0] != len(b.rot[low[0][1]]):
            heapq.heappop(low)
        if not low:
            return True
        w = low[0][1]
        ring = b.rot[w]
        cands = []
        for i in range(len(ring)):
            u, v = ring[i], ring[(i + 1) % len(ring)]
            apexes = b.flippable(u, v)
            if not apexes:
                continue
            x, y = apexes
            # flipping uv adds edge x-y; useful only when one apex is w
            apex = x if y == w else y if x == w else None
            if apex is None or apex == w or apex in b.adj[w]:
                continue
            score = min(len(b.rot[u]), len(b.rot[v]))
            cands.append((score, u, v, x, y))
        if not cands:
            return False
        cands.sort(key=lambda t: (-t[0], t[1], t[2]))
        top = [c for c in cands if c[0] == cands[0][0]]
        _, u, v, x, y = top[rng.randrange(len(top))]
        b.flip(u, v, x, y)
        for z in (u, v, x, y):  # only a flip's four ends change degree
            if len(b.rot[z]) < 5:
                heapq.heappush(low, (len(b.rot[z]), z))
    return False


def _repair_separating_triangles(
    b: _Builder, rng: random.Random, keep_degrees: bool
) -> EmbeddedGraph | None:
    """Flip an edge of a separating triangle until none is left; returns
    the graph found free of them, or None."""
    for _ in range(REPAIR_ROUNDS):
        g = b.graph()
        tris = separating_triangles(g)
        if not tris:
            return g
        a, c, d = tris[rng.randrange(len(tris))]
        options = [(a, c), (a, d), (c, d)]
        rng.shuffle(options)
        for u, v in options:
            apexes = b.flippable(u, v)
            if not apexes:
                continue
            if keep_degrees and (len(b.rot[u]) <= 5 or len(b.rot[v]) <= 5):
                continue
            b.flip(u, v, *apexes)
            break
        else:
            return None
    return None


def generate(spec: GenSpec) -> EmbeddedGraph:
    """Produce the triangulation described by ``spec``.

    Raises GenerationError when the requested flags cannot be satisfied
    within the rejection budget (reported, never silent).
    """
    if spec.n < 4:
        raise GraphError("generation needs n >= 4")
    if spec.min_degree5 and spec.n not in (12,) and spec.n < 14:
        # minimum degree 5 forces n = 12 or n >= 14; no such
        # triangulation has 13 vertices
        raise GenerationError("min degree 5 needs n = 12 or n >= 14")
    rng = random.Random(spec.seed)
    for _ in range(REJECTION_BUDGET):
        b = _sample(rng, spec.n)
        if spec.min_degree5:
            if not _repair_degrees(b, rng, spec.n):
                continue
        g = None
        if spec.no_separating_triangle:
            g = _repair_separating_triangles(b, rng, spec.min_degree5)
            if g is None:
                continue
        if spec.min_degree5 and any(
            len(b.rot[v]) < 5 for v in range(1, spec.n + 1)
        ):
            continue
        if g is None:
            g = b.graph()
        if not g.is_triangulation():
            raise GraphError("generator produced a non-triangulation")
        return g
    raise GenerationError(
        f"could not satisfy flags of {spec} within {REJECTION_BUDGET} samples"
    )
