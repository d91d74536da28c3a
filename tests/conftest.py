import itertools
import json
from dataclasses import dataclass

import pytest

from pig.cli import main
from pig.graph import EmbeddedGraph, GraphError, embedded_from_faces, icosahedron


# -- small fixed graphs ---------------------------------------------------------


def k4() -> EmbeddedGraph:
    return embedded_from_faces([(1, 2, 3), (1, 3, 4), (1, 4, 2), (2, 4, 3)])


def embedded_cycle(k: int) -> EmbeddedGraph:
    if k < 3:
        raise GraphError("cycle needs k >= 3")
    rot = {
        i + 1: ((i - 1) % k + 1, (i + 1) % k + 1) for i in range(k)
    }
    return EmbeddedGraph(rot)


def octahedron() -> EmbeddedGraph:
    return embedded_from_faces(
        [
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 2),
            (6, 3, 2), (6, 4, 3), (6, 5, 4), (6, 2, 5),
        ]
    )


def octahedra(k: int) -> EmbeddedGraph:
    """k disjoint octahedra: no vertex peels in the oracle, and α = 2k."""
    o = octahedron()
    return EmbeddedGraph(
        {6 * c + v: [6 * c + u for u in o.rotation(v)] for c in range(k) for v in o.vertices}
    )


def cube() -> EmbeddedGraph:
    return embedded_from_faces(
        [
            (1, 2, 3, 4), (5, 8, 7, 6),
            (1, 5, 6, 2), (2, 6, 7, 3), (3, 7, 8, 4), (4, 8, 5, 1),
        ]
    )


def stacked_k4s() -> EmbeddedGraph:
    """Two K4s glued on triangle {1,2,3}; apexes 4 and 5.  The glue triangle
    is separating."""
    return embedded_from_faces(
        [
            (1, 2, 4), (2, 3, 4), (3, 1, 4),
            (2, 1, 5), (3, 2, 5), (1, 3, 5),
        ]
    )


@dataclass(frozen=True)
class NeighborCycle:
    """Rotation order of N(v) plus whether it is the induced structure."""

    order: tuple[int, ...]
    is_cycle: bool          # consecutive rotation neighbors are adjacent
    is_induced_cycle: bool  # additionally no chords inside N(v)
    chords: tuple[tuple[int, int], ...]


def neighbor_cycle(g: EmbeddedGraph, v: int) -> NeighborCycle:
    order = g.rotation(v)
    k = len(order)
    if k < 3:
        return NeighborCycle(order, False, False, ())
    is_cycle = all(g.adjacent(order[i], order[(i + 1) % k]) for i in range(k))
    chords = []
    for i in range(k):
        for j in range(i + 2, k):
            if i == 0 and j == k - 1:
                continue
            if g.adjacent(order[i], order[j]):
                chords.append((order[i], order[j]))
    induced = is_cycle and not chords
    return NeighborCycle(order, is_cycle, induced, tuple(chords))


@pytest.fixture(scope="session")
def ico():
    return icosahedron()


@pytest.fixture(scope="session")
def graph_k4():
    return k4()


@pytest.fixture(scope="session")
def graph_octahedron():
    return octahedron()


@pytest.fixture(scope="session")
def graph_cube():
    return cube()


@pytest.fixture(scope="session")
def graph_stacked():
    return stacked_k4s()


# (n, seed) of a flagged triangulation: the lexicographically smallest
# optimum the oracle returns on it (the `oracle-exact` inputs).
ORACLE_EXACT_OPTIMA = {
    (50, 7): (5, 8, 19, 20, 25, 29, 30, 31, 32, 33, 37, 40, 42, 45, 46, 48),
    (55, 7): (1, 2, 4, 5, 8, 12, 16, 22, 30, 31, 33, 38, 40, 42, 45, 49, 54),
    (60, 0): (1, 2, 3, 5, 6, 7, 8, 19, 20, 24, 39, 40, 42, 47, 48, 51, 57, 58),
    (65, 0): (
        1, 2, 3, 12, 19, 21, 25, 31, 33, 35, 37, 38, 39, 42, 47, 48, 49, 57, 59, 65,
    ),
    (70, 7): (
        4, 6, 7, 8, 10, 17, 18, 23, 29, 30, 31, 32, 33, 44, 49, 55, 56, 57, 60,
        62, 68, 70,
    ),
}


def brute_alpha(g) -> int:
    """Independent reference: enumerate all subsets, largest independent."""
    vs = g.vertices
    best = 0
    for r in range(len(vs), 0, -1):
        if r <= best:
            break
        for c in itertools.combinations(vs, r):
            cs = set(c)
            if all(not (g.neighbors(v) & cs) for v in c):
                best = r
                break
        if best:
            break
    return best


def brute_separating_triangles(g):
    """Independent reference for separating triangles: try every vertex
    triple, delete it, test connectivity by hand."""
    out = []
    vs = g.vertices
    for tri in itertools.combinations(vs, 3):
        a, b, c = tri
        if not (g.adjacent(a, b) and g.adjacent(a, c) and g.adjacent(b, c)):
            continue
        rest = [v for v in vs if v not in tri]
        if len(rest) <= 1:
            continue
        seen = {rest[0]}
        stack = [rest[0]]
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if y not in tri and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) < len(rest):
            out.append(tri)
    return out


def subdivide(g: EmbeddedGraph) -> EmbeddedGraph:
    """Insert a midpoint on every edge and split each triangle into four.
    Original vertices keep their degree; midpoints get degree 6."""
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
    """Stacked pentagonal antiprisms capped by two cones: min degree 5, no
    separating triangle, mostly 6-vertices."""
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


def glued_pair(n1: int, n2: int, seed1: int = 3, seed2: int = 8) -> EmbeddedGraph:
    """Two min-degree-5 triangulations identified along one face.

    The glue triangle separates the result, min degree stays 5, and no
    low-degree reduction applies at 3/13, so extraction must split here.
    """
    from pig.generate import GenSpec, generate

    g1 = generate(GenSpec(seed=seed1, n=n1, min_degree5=True,
                          no_separating_triangle=True))
    g2 = generate(GenSpec(seed=seed2, n=n2, min_degree5=True,
                          no_separating_triangle=True))
    f1 = g1.faces()[0]
    f2 = g2.faces()[0]
    shift = max(g1.vertices)
    err = None
    for mapped in ((f1[0], f1[2], f1[1]), (f1[0], f1[1], f1[2])):
        m = {f2[i]: mapped[i] for i in range(3)}
        for v in g2.vertices:
            if v not in m:
                m[v] = v + shift
        faces = [f for f in g1.faces() if f != f1]
        faces += [tuple(m[v] for v in f) for f in g2.faces() if f != f2]
        try:
            return embedded_from_faces(faces)
        except Exception as exc:  # orientation mismatch: try the flip
            err = exc
    raise err


def seven_ring_fixture() -> EmbeddedGraph:
    """Triangulation with a 7-vertex whose ring is seven 6-vertices, each
    with a degree-5 neighbor.  Built as center + three rings + apex; min
    degree 5, no separating triangle, n=30."""
    v = 1
    r = [2 + i for i in range(7)]          # ring of 6-vertices
    s = [9 + i for i in range(7)]          # shared second-ring, degree 5
    p = [16 + i for i in range(7)]         # private second-ring, degree 5
    t = [23 + i for i in range(7)]         # third ring, degree 6
    z = 30
    faces = []
    for i in range(7):
        j = (i + 1) % 7
        faces.append((v, r[i], r[j]))
        faces.append((r[i], s[i - 1], p[i]))
        faces.append((r[i], p[i], s[i]))
        faces.append((r[i], s[i], r[j]))
        faces.append((t[i], p[i], s[i]))
        faces.append((t[i], s[i], p[j]))
        faces.append((t[i], p[j], t[j]))
        faces.append((z, t[j], t[i]))
    return embedded_from_faces(faces)


def v1_document(cert) -> str:
    """``cert`` in the retired ``pig-certificate/1`` shape, a nested tree
    whose nodes repeated the running set and its ledger."""
    payload = json.loads(cert.to_json())
    del payload["steps"]
    payload["format"] = "pig-certificate/1"
    payload["root"] = cert.root | dict(n=cert.n, bound=cert.bound, size=cert.size,
                                       set=list(cert.independent_set))
    return json.dumps(payload)


def run_corpus(args, capsys):
    """``pig corpus``'s exit code, its summary without ``total_seconds``,
    and its ``diagnostic:`` lines."""
    code = main(["corpus", *args])
    first, *rest = capsys.readouterr().out.splitlines()
    summary = json.loads(first)
    assert isinstance(summary.pop("total_seconds"), float)
    return code, summary, rest
