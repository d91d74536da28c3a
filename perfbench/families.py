"""Structured triangulation families for the flagged workload.

Built only from pig's public API (``generate``, ``embedded_from_faces``,
``icosahedron``), so the benchmark does not depend on where the test suite
keeps its own copies of these builders.  ``generate`` is looked up on its
module at call time, so a traced run sees these calls.
"""

from __future__ import annotations

import importlib

from pig.graph import EmbeddedGraph, GraphError, embedded_from_faces, icosahedron

_gen = importlib.import_module("pig.generate")


def geodesic_icosahedron(levels: int) -> EmbeddedGraph:
    """The icosahedron with every triangle split into four, ``levels`` times.

    n = 10 * 4**levels + 2: 42, 162, 642, ...  The twelve original vertices
    keep degree 5; every midpoint has degree 6.
    """
    g = icosahedron()
    for _ in range(levels):
        g = _subdivide(g)
    return g


def _subdivide(g: EmbeddedGraph) -> EmbeddedGraph:
    nxt = max(g.vertices) + 1
    mid = {}
    for u, v in g.edges():
        mid[frozenset((u, v))] = nxt
        nxt += 1
    faces = []
    for a, b, c in g.faces():
        ab = mid[frozenset((a, b))]
        bc = mid[frozenset((b, c))]
        ca = mid[frozenset((c, a))]
        faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
    return embedded_from_faces(faces)


def drum(rings: int) -> EmbeddedGraph:
    """Stacked pentagonal antiprisms capped by two cones: n = 5 * rings + 2,
    min degree 5, no separating triangle, mostly 6-vertices."""
    top, bottom = 1, 2
    ring_ids = [[3 + 5 * r + i for i in range(5)] for r in range(rings)]
    faces = []
    first = ring_ids[0]
    for i in range(5):
        faces.append((top, first[i], first[(i + 1) % 5]))
    for r in range(rings - 1):
        a, b = ring_ids[r], ring_ids[r + 1]
        for i in range(5):
            faces.append((a[i], b[i], a[(i + 1) % 5]))
            faces.append((a[(i + 1) % 5], b[i], b[(i + 1) % 5]))
    last = ring_ids[-1]
    for i in range(5):
        faces.append((bottom, last[(i + 1) % 5], last[i]))
    return embedded_from_faces(faces)


def plain(n: int, seed: int) -> EmbeddedGraph:
    """Plain random triangulation: no flags, so no repair."""
    return _gen.generate(_gen.GenSpec(seed=seed, n=n))


def flagged(n: int, seed: int) -> EmbeddedGraph:
    """Min-degree-5 triangulation without separating triangles."""
    return _gen.generate(_gen.GenSpec(seed=seed, n=n, min_degree5=True,
                                      no_separating_triangle=True))


def glued_pair(n1: int, n2: int, seed1: int, seed2: int) -> EmbeddedGraph:
    """Two flagged triangulations identified along one face.

    The glue triangle separates the result and min degree stays 5, so no
    low-degree reduction applies at 3/13 and extraction must split there.
    """
    g1 = flagged(n1, seed1)
    g2 = flagged(n2, seed2)
    f1 = g1.faces()[0]
    f2 = g2.faces()[0]
    shift = max(g1.vertices)
    err = None
    # One of the two orientations of the glue face matches g1's embedding.
    for mapped in ((f1[0], f1[2], f1[1]), (f1[0], f1[1], f1[2])):
        m = {f2[i]: mapped[i] for i in range(3)}
        for v in g2.vertices:
            if v not in m:
                m[v] = v + shift
        faces = [f for f in g1.faces() if f != f1]
        faces += [tuple(m[v] for v in f) for f in g2.faces() if f != f2]
        try:
            return embedded_from_faces(faces)
        except GraphError as exc:
            err = exc
    raise err
