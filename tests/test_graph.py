import copy
import importlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pig.graph import (
    EmbeddedGraph,
    GraphError,
    ParseError,
    _canonical,
    _local_faces,
    parse_rotation_graph,
    separating_triangles,
    triangulate,
)
from pig.generate import GenSpec, generate
from pig.reduce import CertifiedPlan, Ratio, ReductionPlan, apply_plan

from conftest import brute_separating_triangles, embedded_cycle, neighbor_cycle


def euler_ok(g):
    comps = g.components()
    total = 0
    for comp in comps:
        total += 2
    return g.n - g.m + len(g.faces()) == total if g.m else True


class TestParse:
    def test_k3(self):
        g = parse_rotation_graph("3 3\n1: 2 3\n2: 3 1\n3: 1 2\n")
        assert g.n == 3 and g.m == 3
        assert len(g.faces()) == 2

    def test_comments_and_blanks(self):
        g = parse_rotation_graph("# header\n3 3\n\n1: 2 3 # one\n2: 3 1\n3: 1 2\n")
        assert g.n == 3

    def test_icosahedron_roundtrip(self, ico):
        text = ico.serialize()
        g = parse_rotation_graph(text)
        assert g.n == 12 and g.m == 30
        assert len(g.faces()) == 20
        assert g.serialize() == text

    def test_shipped_icosahedron_fixture(self, ico):
        from pathlib import Path

        text = Path(__file__).parent.joinpath("data", "icosahedron.rot").read_text()
        g = parse_rotation_graph(text)
        assert g.n == 12 and g.m == 30 and len(g.faces()) == 20
        assert g.n - g.m + len(g.faces()) == 2
        assert g.graph_hash() == ico.graph_hash()

    def test_asymmetry_error(self):
        with pytest.raises(ParseError, match="asymmetric"):
            parse_rotation_graph("3 3\n1: 2 3\n2: 3\n3: 1 2\n")

    def test_malformed_line(self):
        with pytest.raises(ParseError):
            parse_rotation_graph("2 1\n1: 2\n2 1\n")

    def test_bad_ids(self):
        with pytest.raises(ParseError):
            parse_rotation_graph("2 1\n1: 5\n5: 1\n")

    def test_wrong_edge_count(self):
        with pytest.raises(ParseError, match="m="):
            parse_rotation_graph("3 2\n1: 2 3\n2: 3 1\n3: 1 2\n")

    def test_invalid_embedding(self):
        torus_k4 = "1: 2 3 4\n2: 1 3 4\n3: 1 2 4\n4: 1 2 3\n"
        for text in (
            # K4 rotations scrambled to a torus-like system fail the Euler trace
            "4 6\n" + torus_k4,
            # beside a plane triangle: n - m + f sums to 2 + 0, not 2 per component
            "7 9\n" + torus_k4 + "5: 6 7\n6: 7 5\n7: 5 6\n",
        ):
            with pytest.raises(ParseError, match="Euler"):
                parse_rotation_graph(text)

    def test_isolated_vertices(self):
        g = parse_rotation_graph("2 0\n1:\n2:\n")
        assert g.n == 2 and g.m == 0

    def test_vertex_count_checked_before_range(self):
        # a header n past a C ssize_t, or one that would need a huge list
        for head in ("99999999999999999999 0", "1000000000 3"):
            with pytest.raises(ParseError, match="exactly 1"):
                parse_rotation_graph(head + "\n1: 2 3\n2: 3 1\n3: 1 2\n")
        with pytest.raises(ParseError, match="number too long"):
            parse_rotation_graph("3 3\n1: 2 3\n2: 3 1\n3: 1 " + "2" * 5000 + "\n")

    @pytest.mark.parametrize("text", [
        "2 1\n+1: 2\n2: 1\n", "2 1\n1: +2\n2: 1\n", "2 1\n1: 2\n1_0: 1\n",
        "2 1\n1: 2\n2: 0x1\n", "+2 1\n1: 2\n2: 1\n", "2 1_0\n1: 2\n2: 1\n",
        "2 1\n\u0661: 2\n2: 1\n", "2 -1\n1: 2\n2: 1\n", "2 1\n1: 2 -\n2: 1\n",
    ])
    def test_numbers_in_ascii_digits_only(self, text):
        with pytest.raises(ParseError):
            parse_rotation_graph(text)

    def test_spacing_stays_free(self):
        g = parse_rotation_graph("3\t3\n1 :2\t3\n2:3 1\n  3:  1   2  \n")
        assert (g.n, g.m, g.rotation(1)) == (3, 3, (2, 3))


class TestFaces:
    def test_k4(self, graph_k4):
        assert sorted(len(f) for f in graph_k4.faces()) == [3, 3, 3, 3]

    def test_cube(self, graph_cube):
        assert sorted(len(f) for f in graph_cube.faces()) == [4] * 6

    def test_icosahedron(self, ico):
        faces = ico.faces()
        assert len(faces) == 20
        assert all(len(f) == 3 for f in faces)

    def test_each_dart_once(self, ico):
        darts = []
        for f in ico.faces():
            for i in range(len(f)):
                darts.append((f[i], f[(i + 1) % len(f)]))
        assert len(darts) == 2 * ico.m
        assert len(set(darts)) == len(darts)

    def test_face_length_sum(self, graph_cube):
        assert sum(len(f) for f in graph_cube.faces()) == 2 * graph_cube.m


class TestTriangulate:
    def test_k4_unchanged(self, graph_k4):
        t = triangulate(graph_k4)
        assert t.m == graph_k4.m and t.n == 4

    def test_c5(self):
        t = triangulate(embedded_cycle(5))
        assert t.n == 5 and t.m == 9
        assert t.is_triangulation()

    def test_cube(self, graph_cube):
        t = triangulate(graph_cube)
        assert t.n == 8 and t.m == 18
        assert t.is_triangulation()

    def test_supergraph(self, graph_cube):
        t = triangulate(graph_cube)
        for u, v in graph_cube.edges():
            assert t.adjacent(u, v)

    def test_deterministic(self, graph_cube):
        assert triangulate(graph_cube).serialize() == triangulate(graph_cube).serialize()

    def test_too_small(self):
        with pytest.raises(GraphError):
            triangulate(parse_rotation_graph("2 1\n1: 2\n2: 1\n"))

    def test_path_with_cut_vertex(self):
        g = parse_rotation_graph("3 2\n1: 2\n2: 1 3\n3: 2\n")
        t = triangulate(g)
        assert t.m == 3 and t.is_triangulation()

    def test_random_sparse(self):
        rng = random.Random(7)
        for seed in range(8):
            g = generate(GenSpec(seed=seed, n=30))
            rot = {v: list(g.rotation(v)) for v in g.vertices}
            edges = [(u, v) for u, v in g.edges()]
            rng.shuffle(edges)
            for u, v in edges[:20]:
                rot[u].remove(v)
                rot[v].remove(u)
            h = EmbeddedGraph(rot)
            if not h.is_connected():
                continue
            t = triangulate(h)
            assert t.is_triangulation() and t.m == 3 * t.n - 6


class TestSeparatingTriangles:
    def test_icosahedron_brute(self, ico):
        assert separating_triangles(ico) == []
        assert brute_separating_triangles(ico) == []

    def test_stacked(self, graph_stacked):
        assert separating_triangles(graph_stacked) == [(1, 2, 3)]

    def test_k4(self, graph_k4):
        assert separating_triangles(graph_k4) == []

    def test_matches_brute_on_corpus(self, graph_stacked):
        from conftest import glued_pair

        glued = glued_pair(16, 14)
        graphs = [generate(GenSpec(seed=seed, n=18)) for seed in range(6)]
        graphs += [graph_stacked, glued, generate(GenSpec(seed=5, n=40))]
        graphs.append(embedded_cycle(3))  # the lone triangle: both apexes coincide
        # local edits of a graph already swept: each child carries its answer
        assert separating_triangles(glued)
        graphs += [triangulate(glued.delete_set(vs)) for vs in ([1], [1, 6])]
        graphs += [triangulate(glued.contract_set(p)[0]) for p in ([1, 6], [1, 8])]
        for g in graphs:
            want = sorted(brute_separating_triangles(g))
            got = separating_triangles(g)
            assert got == want
            got.append((0, 0, 0))  # the caller's list is its own
            assert separating_triangles(g) == want

    def test_needs_a_triangulation(self, graph_cube):
        for g in (graph_cube, embedded_cycle(5)):
            with pytest.raises(GraphError, match="triangulation"):
                separating_triangles(g)


class TestNeighborCycle:
    def test_icosahedron_c5(self, ico):
        for v in ico.vertices:
            nc = neighbor_cycle(ico, v)
            assert nc.is_cycle and nc.is_induced_cycle
            assert len(nc.order) == 5

    def test_k4_c3(self, graph_k4):
        nc = neighbor_cycle(graph_k4, 1)
        assert nc.is_cycle and len(nc.order) == 3

    def test_stacked_flags_chords(self, graph_stacked):
        # apex of the glue triangle: clean C3
        nc4 = neighbor_cycle(graph_stacked, 4)
        assert nc4.is_cycle and nc4.is_induced_cycle
        # glue-triangle vertices see chords (the separating triangle)
        nc1 = neighbor_cycle(graph_stacked, 1)
        assert nc1.is_cycle and not nc1.is_induced_cycle
        assert nc1.chords


class TestDeleteContract:
    def test_contract_k4_edge(self, graph_k4):
        g, w = graph_k4.contract_set({1, 2})
        assert g.n == 3 and g.m == 3
        assert w == 5
        assert g.is_triangulation()

    def test_contract_path_icosahedron(self, ico):
        u = ico.rotation(1)[0]
        u2 = ico.rotation(1)[2]  # distance 2 around vertex 1's ring
        g, w = ico.contract_set({1, u, u2})
        assert g.n == 10
        assert g.m <= 3 * g.n - 6
        assert euler_ok(g)

    def test_delete_closed_neighborhood(self, ico):
        g = ico.delete_set(set(ico.neighbors(1)) | {1})
        assert g.n == 6

    def test_contract_disconnected_error(self, ico):
        far = [v for v in ico.vertices if v != 1 and not ico.adjacent(1, v)]
        with pytest.raises(GraphError, match="connected"):
            ico.contract_set({1, far[0]})

    def test_induces_connected(self, ico):
        far = next(v for v in ico.vertices if v != 1 and not ico.adjacent(1, v))
        assert not ico.induces_connected(set())
        assert ico.induces_connected({1})
        assert not ico.induces_connected({1, far})
        assert ico.induces_connected({1, far, *(ico.neighbors(1) & ico.neighbors(far))})
        assert ico.induces_connected(ico.vertices)

    def test_contract_and_drop_rejects_bad_sets(self, ico):
        with pytest.raises(GraphError, match="same vertex"):
            ico.contract_set({1, 2}, {2, 3})
        with pytest.raises(GraphError, match="unknown"):
            ico.contract_set({1}, {99})

    def test_ids_never_reused(self, ico):
        g, w = ico.contract_set({1, ico.rotation(1)[0]})
        g2, w2 = g.contract_set({w, g.rotation(w)[0]})
        assert w2 > w > max(ico.vertices)

    def test_contract_keeps_embedding_on_corpus(self):
        for seed in range(5):
            g = generate(GenSpec(seed=seed, n=25))
            v = g.vertices[seed % g.n]
            part = {v} | set(g.rotation(v)[:2])
            h, w = g.contract_set(part)
            assert euler_ok(h)
            assert h.n == g.n - len(part) + 1


class TestIndependenceUnderOps:
    def test_contraction_lift_small(self):
        # independent sets of a contraction lift back after removing the
        # merged vertex; checked exhaustively on small graphs
        import itertools
        from pig import mis

        for seed in range(4):
            g = generate(GenSpec(seed=seed, n=12))
            v = g.vertices[0]
            part = {v} | set(g.rotation(v)[:1])
            h, w = g.contract_set(part)
            for r in range(1, 4):
                for c in itertools.combinations(h.vertices, r):
                    if not mis.verify_independent(h, c):
                        continue
                    base = [x for x in c if x != w]
                    assert mis.verify_independent(g, base)

    def test_triangulate_alpha_monotone(self):
        from pig import mis

        for seed in range(5):
            g = generate(GenSpec(seed=seed, n=16))
            rot = {v: list(g.rotation(v)) for v in g.vertices}
            rng = random.Random(seed)
            edges = g.edges()
            rng.shuffle(edges)
            for u, v in edges[:10]:
                rot[u].remove(v)
                rot[v].remove(u)
            h = EmbeddedGraph(rot)
            if not h.is_connected():
                continue
            t = triangulate(h)
            assert mis.alpha(t) <= mis.alpha(h)


# -- local edits: derived graphs against fresh, fully validated copies ---------


def fresh_copy(h):
    return EmbeddedGraph({v: h.rotation(v) for v in h.vertices}, next_id=h.next_id)


def held(h):
    """``h`` as it stands, with maps of its own and owned by no walk, so
    that no edit consumes it: a recorder takes this of a graph the walk
    hands on to a consuming edit.  O(n), not a whole-graph check."""
    c = EmbeddedGraph.__new__(EmbeddedGraph)
    for name in EmbeddedGraph.__slots__:
        setattr(c, name, getattr(h, name))
    c._rot, c._adj, c._buckets, c._owned = dict(h._rot), dict(h._adj), None, False
    return c


def assert_same_as_fresh(h):
    f = fresh_copy(h)
    assert h.m == f.m
    assert h.faces() == f.faces()
    assert h.components() == f.components()
    assert h.is_connected() == f.is_connected()
    assert h.is_triangulation() == f.is_triangulation()
    # the face count and the non-triangular faces a local edit carried forward
    assert h._face_stats() == f._face_stats()
    if h.n >= 3 and h.is_connected() and not h.is_triangulation():
        t, ft = triangulate(h), triangulate(f)
        assert {v: t.rotation(v) for v in t.vertices} == {
            v: ft.rotation(v) for v in ft.vertices
        }
        assert t._face_stats() == ft._face_stats()


def derived_graphs(monkeypatch, g, ratio, check):
    """``check`` every sub-instance graph the step engine derives while
    extracting, as it is made: the walk hands a reduction's sub-instance
    on to the edit that consumes it.  Returns how many were checked."""
    ex = importlib.import_module("pig.extract")  # the package exports a function of that name

    seen = 0
    original = ex.next_step

    def recording(h, c):
        nonlocal seen
        step = original(h, c)
        for sub in step.subs:
            check(sub)
            seen += 1
        return step

    monkeypatch.setattr(ex, "next_step", recording)
    ex.extract(g, ratio)
    monkeypatch.setattr(ex, "next_step", original)
    return seen


def disjoint_union(g1, g2):
    shift = max(g1.vertices)
    rot = {v: g1.rotation(v) for v in g1.vertices}
    rot.update({v + shift: tuple(u + shift for u in g2.rotation(v)) for v in g2.vertices})
    return EmbeddedGraph(rot)


def _kernel_cases():
    """(id, graph builder, ratio): the golden specs, a glued pair, a drum,
    three flagged graphs, a disconnected graph and one with holes."""
    from test_golden import SPECS, build, spec_id

    from conftest import drum, glued_pair

    def flagged(n, seed):
        return generate(GenSpec(seed=seed, n=n, min_degree5=True,
                                no_separating_triangle=True))

    cases = [(spec_id(s), lambda s=s: build(s), s["ratio"]) for s in SPECS]
    cases.append(("glued_pair-20-18", lambda: glued_pair(20, 18), "3/13"))
    cases.append(("drum-12", lambda: drum(12), "3/13"))
    for seed, n in ((1, 60), (3, 90), (6, 120)):
        cases.append((f"flagged-{n}-s{seed}", lambda n=n, seed=seed: flagged(n, seed), "3/13"))
    cases.append(("union-flagged-40-plain-30", lambda: disjoint_union(
        flagged(40, 2), generate(GenSpec(seed=9, n=30))), "3/13"))
    # every reduction chords its own remainder, so only an input with holes
    # reaches the triangulate step on a triangulation's subgraph
    cases.append(("holed-flagged-60", lambda: flagged(60, 4).delete_set(range(1, 4)),
                  "3/13"))
    return cases


KERNEL_CASES = _kernel_cases()


@pytest.mark.parametrize("build,ratio", [c[1:] for c in KERNEL_CASES],
                         ids=[c[0] for c in KERNEL_CASES])
def test_derived_graphs_equal_fresh_copies(monkeypatch, build, ratio):
    assert derived_graphs(monkeypatch, build(), ratio, assert_same_as_fresh)


def test_kernel_cases_reach_every_derivation(monkeypatch):
    """The cases above include contractions, splits and components steps."""
    ex = importlib.import_module("pig.extract")
    ops = set()
    original = ex.next_step

    def recording(h, c):
        step = original(h, c)
        ops.add(step.op)
        if step.fields.get("plan", {}).get("parts"):
            ops.add("contract")
        return step

    monkeypatch.setattr(ex, "next_step", recording)
    for _, build, ratio in KERNEL_CASES:
        ex.extract(build(), ratio)
    assert {"components", "triangulate", "reduce", "contract", "split", "exact"} <= ops


class TestLocalEdits:
    def test_subgraph_small_and_large_keeps(self):
        rng = random.Random(3)
        g = generate(GenSpec(seed=5, n=80))
        for size in (0, 1, 3, 10, 39, 40, 41, 70, 80):
            for _ in range(3):
                keep = rng.sample(g.vertices, size)
                h = g.subgraph(keep)
                assert h.vertices == tuple(sorted(keep))
                for v in h.vertices:
                    assert h.rotation(v) == tuple(
                        u for u in g.rotation(v) if u in set(keep)
                    )
                assert_same_as_fresh(h)

    def test_every_derived_graph_is_one_edit(self, monkeypatch):
        g = generate(GenSpec(seed=5, n=80))
        v = g.vertices[0]
        u = g.rotation(v)[0]
        h = g.delete_set([v])
        ops = {  # a part under half is no edit: it is built whole
            "subgraph below half": (lambda: g.subgraph(g.vertices[:30]), []),
            "subgraph above half": (lambda: g.subgraph(g.vertices[:60]), [g]),
            "delete_set": (lambda: g.delete_set([v]), [g]),
            "contract_set": (lambda: g.contract_set({v, u}), [g]),
            "contract_set with drop": (lambda: g.contract_set({v}, [u]), [g]),
            "triangulate": (lambda: triangulate(h), [h]),
            "triangulate with drop": (lambda: triangulate(g, [v]), [g]),
            "triangulate a holed parent with drop": (lambda: triangulate(h, [u]), [h]),
        }
        edits = []
        original = EmbeddedGraph._edit

        def counting(parent, *args, **kw):
            edits.append(parent)
            return original(parent, *args, **kw)

        monkeypatch.setattr(EmbeddedGraph, "_edit", counting)
        for name, (op, parents) in ops.items():
            edits.clear()
            op()
            assert edits == parents, name

    def test_chained_edits(self):
        for h in chained_walk(generate(GenSpec(seed=2, n=200))):
            assert_same_as_fresh(h)

    def test_degree_buckets_follow_edits(self):
        def scan(h):
            return sorted((v for v in h.vertices if h.degree(v) <= 6),
                          key=lambda v: (h.degree(v), v))

        g = generate(GenSpec(seed=2, n=200))
        assert list(g.by_degree(6)) == scan(g)
        for h in chained_walk(g):
            ref = scan(h)
            first = h.by_degree(6)  # taken in part, as the planner does
            assert list(itertools.islice(first, 2)) == ref[:2]
            assert list(h.by_degree(6)) == ref
            assert list(first) == ref[2:]
        assert list(g.by_degree(6)) == scan(g)  # the root's, rebuilt

    def test_disconnecting_deletions(self, graph_stacked):
        h = graph_stacked.delete_set({1, 2, 3})
        assert h.components() == [(4,), (5,)]
        assert_same_as_fresh(h)
        path = parse_rotation_graph("5 4\n1: 2\n2: 1 3\n3: 2 4\n4: 3 5\n5: 4\n")
        for v in path.vertices:
            assert_same_as_fresh(path.delete_set([v]))
        assert path.delete_set([3]).components() == [(1, 2), (4, 5)]

    def test_extract_validates_only_at_entry(self, monkeypatch):
        from pig.extract import extract

        g = generate(GenSpec(seed=4, n=150, min_degree5=True,
                             no_separating_triangle=True))

        def whole_graph_validation(self):
            raise AssertionError("a derived graph ran whole-graph validation")

        monkeypatch.setattr(EmbeddedGraph, "_validate", whole_graph_validation)
        cert = extract(g, "3/13")
        assert cert.size >= cert.bound

    def test_triangulate_corrupted_rotation_raises(self):
        from conftest import octahedron
        from pig.graph import EmbeddingError, icosahedron

        for base in (octahedron(), icosahedron()):
            bad = _corrupted(base, 1)
            with pytest.raises(EmbeddingError):
                triangulate(bad)
            with pytest.raises(EmbeddingError):
                bad.contract_set({1, bad.rotation(1)[2]})

    def test_contract_corrupted_rotation_raises_on_the_local_check(self):
        from pig.graph import EmbeddingError

        g = generate(GenSpec(seed=1, n=30))
        v = g.vertices[-1]
        bad = _corrupted(g, v)
        with pytest.raises(EmbeddingError, match="Euler"):
            bad.contract_set({1})
        # the same through the form that also deletes, away from v
        drop = next(u for u in g.rotation(1) if u != v and not g.adjacent(u, v))
        with pytest.raises(EmbeddingError, match="Euler"):
            bad.contract_set({1}, {drop})

    def test_contract_and_drop_that_disconnects(self, graph_stacked):
        # the fresh vertex left alone, next to an isolated apex
        h, w = graph_stacked.contract_set({4}, {1, 2, 3})
        assert (w, h.components()) == (6, [(5,), (6,)])
        assert_same_as_fresh(h)
        # a path cut in two, and a component deleted whole
        path = parse_rotation_graph("5 4\n1: 2\n2: 1 3\n3: 2 4\n4: 3 5\n5: 4\n")
        h, w = path.contract_set({1, 2}, {4})
        assert h.components() == [(3, 6), (5,)]
        assert_same_as_fresh(h)
        two = parse_rotation_graph("4 2\n1: 2\n2: 1\n3: 4\n4: 3\n")
        for part, drop, comps in (({1}, {3, 4}, [(2, 5)]), ({1, 2}, {3}, [(4,), (5,)])):
            h, w = two.contract_set(part, drop)
            assert h.components() == comps
            assert_same_as_fresh(h)
        # a wheel: its hub contracted stays joined to what is left of the
        # rim; a rim vertex contracted with the hub gone may split the rim
        wheel = EmbeddedGraph({1: (2, 3, 4, 5, 6), 2: (1, 6, 3), 3: (1, 2, 4),
                               4: (1, 3, 5), 5: (1, 4, 6), 6: (1, 5, 2)})
        for drop in ({3}, {3, 5}, {2, 3, 4, 5, 6}):
            h, w = wheel.contract_set({1}, drop)
            assert h.is_connected()
            assert_same_as_fresh(h)
        h, w = wheel.contract_set({2}, {1, 4})
        assert h.components() == [(3, 5, 6, 7)]
        assert_same_as_fresh(h)
        h, w = wheel.contract_set({2}, {1, 3, 5})
        assert h.components() == [(4,), (6, 7)]
        assert_same_as_fresh(h)


def chained_walk(g):
    """Twelve chained edits from ``g``: delete a vertex, contract an edge,
    keep a connected part under half (a subgraph built from the kept
    side), re-triangulating after each.  Yields every graph made."""
    h = g
    for step in range(12):
        v = h.vertices[(7 * step) % h.n]
        if step % 3 == 0:
            h = h.delete_set([v])
        elif step % 3 == 1:
            h, _ = h.contract_set({v, h.rotation(v)[0]})
        else:
            near = [v]  # breadth-first order from v
            for x in near:
                near += [y for y in h.rotation(x) if y not in near]
            h = h.subgraph(near[:(h.n - 1) // 2])
        yield h
        if h.is_connected() and not h.is_triangulation():
            h = triangulate(h)
            yield h


def _corrupted(g, v):
    """``g`` with the first two entries of v's rotation swapped in place
    and its face caches cleared: still simple and symmetric, but not plane,
    which the entry check would have refused."""
    ns = list(g._rot[v])
    ns[0], ns[1] = ns[1], ns[0]
    g._rot[v] = tuple(ns)
    g._faces = g._nf = g._holes = None
    return g


# -- one edit per reduction: contract the last part and delete the rest -------


def applied_plans(monkeypatch, g, ratio):
    """(graph, plan) for every reduction plan applied while extracting,
    the graph ``held`` as it was given, before the edit that may consume
    it."""
    ex = importlib.import_module("pig.extract")
    seen = []
    original = ex.apply_plan

    def recording(h, cert, *fill):
        seen.append((held(h), cert.plan))
        return original(h, cert, *fill)

    monkeypatch.setattr(ex, "apply_plan", recording)
    ex.extract(g, ratio)
    monkeypatch.setattr(ex, "apply_plan", original)
    return seen


def assert_same_edit(a, b):
    assert {v: a.rotation(v) for v in a.vertices} == {v: b.rotation(v) for v in b.vertices}
    assert (a.m, a.next_id, a._face_stats()) == (b.m, b.next_id, b._face_stats())
    assert a._ncomp == b._ncomp == len(a.components()) == len(b.components())


def test_one_edit_equals_contract_then_delete(monkeypatch):
    dropped = 0
    for _, build, ratio in KERNEL_CASES:
        for g, plan in applied_plans(monkeypatch, build(), ratio):
            if not plan.parts:
                continue
            rest = plan.s - {v for p in plan.parts for v in p}
            for part in plan.parts[:-1]:
                g, _ = g.contract_set(part)
            one, w1 = g.contract_set(plan.parts[-1], rest)
            two, w2 = g.contract_set(plan.parts[-1])
            if rest:
                two = two.delete_set(rest)
                dropped += 1
            assert w1 == w2
            assert_same_edit(one, two)
    assert dropped > 50


# -- one edit per plain reduction: delete S and triangulate the rest ---------


def assert_fused_as_two_edits(g, drop, part=()):
    """``triangulate(g, drop, part)`` against ``contract_set(part, drop)``,
    or ``delete_set(drop)`` without ``part``, then ``triangulate``, its
    degree buckets carried from ``g`` against fresh ones.  Returns whether
    it added chords."""
    next(g.by_degree(0), None)  # build g's buckets for the edit to carry
    one = triangulate(g, drop, part)
    edited = two = g.contract_set(part, drop)[0] if part else g.delete_set(drop)
    if two.n >= 3 and two.is_connected():
        two = triangulate(two)
    assert_same_edit(one, two)
    assert one.components() == two.components()
    top = max(map(one.degree, one.vertices), default=0)
    assert list(one.by_degree(top)) == list(two.by_degree(top))
    assert_same_as_fresh(one)
    return one.m > edited.m


def test_fused_edit_equals_delete_then_triangulate(monkeypatch):
    chorded = kept = 0
    for _, build, ratio in KERNEL_CASES:
        for g, plan in applied_plans(monkeypatch, build(), ratio):
            if not plan.parts:
                if assert_fused_as_two_edits(g, plan.s):
                    chorded += 1
                else:
                    kept += 1
    assert chorded > 300 and kept  # kept: g - S was a triangulation already


def test_fused_edit_on_other_parents(graph_cube, graph_stacked, ico):
    # deletions that disconnect, that leave K4, a triangle or one edge,
    # and one that leaves a pentagon to chord
    for g, drop in ((graph_stacked, {1, 2, 3}), (graph_stacked, {4}),
                    (ico, set(range(1, 10))), (ico, set(range(1, 11))), (ico, {1})):
        assert_fused_as_two_edits(g, drop)
    walk = list(chained_walk(generate(GenSpec(seed=2, n=200))))
    for h in walk:
        if h.is_triangulation():
            assert_fused_as_two_edits(h, h.vertices[:3])
    # parents with holes: the deletion's edit of them is chorded the same
    holed = [(h, h.vertices[:3]) for h in walk if not h.is_triangulation()]
    assert len(holed) > 5
    for g, drop in [(graph_cube, {1}), (graph_cube, {1, 7}), *holed]:
        assert_fused_as_two_edits(g, drop)
    # random sets, which leave several holes, some passing a vertex twice
    rng = random.Random(5)
    for seed in range(4):
        g = generate(GenSpec(seed=seed, n=30))
        for _ in range(60):
            assert_fused_as_two_edits(g, rng.sample(g.vertices, rng.randint(1, 8)))


def test_fused_edit_checks_the_deleted_graph():
    from pig.graph import EmbeddingError

    g = generate(GenSpec(seed=1, n=30))
    v = g.vertices[-1]
    drop = {next(u for u in g.rotation(1) if u != v and not g.adjacent(u, v))}
    # re-traced, the corrupted rotation leaves a parent of genus one,
    # which the deletion's own Euler check refuses
    with pytest.raises(EmbeddingError, match="Euler"):
        triangulate(_corrupted(g, v), drop)
    # a stale face count on the fused path: the deleted graph's own Euler
    # check refuses it
    g = generate(GenSpec(seed=1, n=30))
    g._face_stats()
    g._nf += 1
    with pytest.raises(EmbeddingError, match="Euler"):
        triangulate(g, drop)


def test_fused_contraction_equals_contract_then_triangulate(monkeypatch):
    """The last edit of every reduction with parts in the kernel cases,
    fused, against the contraction then the triangulation, also where an
    earlier part's contraction left a hole (flagged n=56 seed 2019)."""
    chorded = kept = holed = 0
    for _, build, ratio in KERNEL_CASES:
        for g, plan in applied_plans(monkeypatch, build(), ratio):
            if not plan.parts:
                continue
            for part in plan.parts[:-1]:
                g, _ = g.contract_set(part)
            holed += not g.is_triangulation()
            rest = plan.s - {v for p in plan.parts for v in p}
            if assert_fused_as_two_edits(g, rest, plan.parts[-1]):
                chorded += 1
            else:
                kept += 1
    assert chorded > 50 and kept > 10 and holed


def test_fused_contraction_on_other_parents(graph_stacked, ico):
    # a path of three chorded to a triangle, a vertex renamed, a drop far
    # from the part, a drop that cuts the fresh vertex off, one vertex
    # left, and two isolated ones; in the third, fourth and last the
    # search from the fresh vertex misses a touched vertex, so the
    # components are counted afresh
    far = next(v for v in ico.vertices if not ico.neighbors(v) & {1, 2})
    cases = [(graph_stacked, {1, 2}, {4}), (ico, set(), {1}), (ico, {far}, {1, 2}),
             (ico, set(ico.rotation(1)), {1}), (ico, set(range(3, 13)), {1, 2}),
             (ico, set(range(4, 12)), {1, 2, 3})]
    for g, drop, part in cases:
        assert_fused_as_two_edits(g, drop, part)
    with pytest.raises(GraphError, match="not induce a connected"):
        triangulate(ico, (), {1, far})
    # connected parts grown breadth-first, each with a random set dropped
    rng = random.Random(8)
    chorded = 0
    for seed in range(4):
        g = generate(GenSpec(seed=seed, n=30))
        for _ in range(60):
            part = [rng.choice(g.vertices)]
            for x in part:
                part += [y for y in g.rotation(x) if y not in part]
            part = part[:rng.randint(1, 4)]
            others = [v for v in g.vertices if v not in part]
            chorded += assert_fused_as_two_edits(
                g, rng.sample(others, rng.randint(0, 6)), part)
    assert chorded > 100


def test_fused_contraction_checks_its_own_component_count():
    """A parent whose second component is K7 on the torus, under caches
    that claim two plane components: every face is a triangle, so only
    the count can refuse it.  Read off Euler, it would come out as one
    component, and the chorded graph would even have 3n - 6 edges."""
    from pig.graph import EmbeddingError

    g = generate(GenSpec(seed=1, n=30))
    bad = disjoint_union(g, embedded_cycle(7))
    k7 = [31 + i for i in range(7)]
    bad._rot.update((v, tuple(k7[(i + d) % 7] for d in (1, 3, 2, 6, 4, 5)))
                    for i, v in enumerate(k7))
    bad._adj.update((v, frozenset(bad._rot[v])) for v in k7)
    bad._m += 21 - 7
    bad._faces = bad._nf = bad._holes = None
    assert bad.is_triangulation() and bad._ncomp == 2
    with pytest.raises(EmbeddingError, match="Euler"):
        triangulate(bad, {g.rotation(1)[0]}, {1})


def test_reduction_after_a_holed_contraction_makes_one_edit_per_part(monkeypatch):
    """A first part whose contraction leaves a hole: the last part is
    contracted, the rest deleted and the result chorded in one more edit,
    the same graph as the three done one at a time."""
    from conftest import glued_pair

    g = glued_pair(16, 14)
    u, v, x = separating_triangles(g)[0]
    y = next(w for w in g.vertices if not g.neighbors(w) & {u, v, x})
    z = next(w for w in g.vertices if w != y and not g.neighbors(w) & {u, v, x, y})
    plan = ReductionPlan(frozenset({u, v, y, z}), (frozenset({u, v}), frozenset({y})),
                         Ratio.parse("3/13"))
    h = g.contract_set({u, v})[0]
    assert not h.is_triangulation()
    edits = []
    edit = EmbeddedGraph._edit

    def counting(parent, *args):
        edits.append(parent)
        return edit(parent, *args)

    monkeypatch.setattr(EmbeddedGraph, "_edit", counting)
    one, ctx = apply_plan(g, CertifiedPlan(plan, frozenset(), 0, ()), fill=True)
    assert len(edits) == plan.t and edits[0] is g
    monkeypatch.undo()
    two = triangulate(h.contract_set({y}, {z})[0])
    assert_same_edit(one, two)
    assert ctx.w_ids == (g.next_id, g.next_id + 1)


def test_flagged_extraction_makes_one_edit_per_part(monkeypatch):
    ex = importlib.import_module("pig.extract")
    edits, made = [], []
    edit, apply = EmbeddedGraph._edit, ex.apply_plan

    def counting(parent, *args, **kw):
        edits.append(parent)
        return edit(parent, *args, **kw)

    def applying(g, cert, fill=False):
        before = len(edits)
        out = apply(g, cert, fill)
        parents = edits[before:]
        made.append((cert.plan.t, len(parents)))
        holed.extend(p for p in parents[1:] if not p.is_triangulation())
        return out

    holed = []
    monkeypatch.setattr(EmbeddedGraph, "_edit", counting)
    monkeypatch.setattr(ex, "apply_plan", applying)
    # the last has a plan whose first contraction leaves a hole
    for n, seed in ((150, 0), (150, 1), (150, 2), (56, 2019)):
        ex.extract(generate(GenSpec(seed=seed, n=n, min_degree5=True,
                                    no_separating_triangle=True)), "3/13")
    assert [edits for t, edits in made] == [max(t, 1) for t, _ in made]
    assert sum(1 for t, _ in made if t) > 20 and any(t > 1 for t, _ in made)
    assert holed


def test_disjoint_k4s_extract_without_an_edit(monkeypatch):
    """Each component of 200 disjoint K4s (the extremal family) is built
    whole from its own four rotations, not cut out of the 800-vertex graph
    by an edit."""
    from conftest import k4

    one = k4()
    g = EmbeddedGraph({4 * i + v: tuple(4 * i + u for u in one.rotation(v))
                       for i in range(200) for v in one.vertices})
    ex = importlib.import_module("pig.extract")
    edits = []
    monkeypatch.setattr(EmbeddedGraph, "_edit", lambda *args: edits.append(args))
    cert = ex.extract(g, "3/13")
    assert not edits and len(cert.independent_set) == 200


def test_plain_extraction_makes_one_edit_per_reduction(monkeypatch):
    ex = importlib.import_module("pig.extract")
    g = generate(GenSpec(seed=0, n=1000))
    edits = []
    original = EmbeddedGraph._edit

    def counting(parent, *args, **kw):
        edits.append(parent)
        return original(parent, *args, **kw)

    monkeypatch.setattr(EmbeddedGraph, "_edit", counting)
    ex.extract(g, "3/13")
    assert len(edits) <= 250


# -- the fill: chords added in place, checked for what they add ----------------


def _two_holes():
    """A fresh child with two holes: plain n=80 seed 1 less two closed
    neighborhoods far apart, still connected."""
    g = generate(GenSpec(seed=1, n=80))
    for v in g.vertices:
        near = {v} | g.neighbors(v)
        ball = near.union(*map(g.neighbors, near))
        for far in g.vertices:
            if not (g.neighbors(far) | {far}) & ball:
                h = g.delete_set(near | {far} | g.neighbors(far))
                if h.is_connected() and len(h._holes) == 2:
                    return h


def _reversed_holes(h):
    h._holes = tuple(f[::-1] for f in h._holes)


def test_fill_checks_what_the_chords_add():
    """A child left inconsistent by a faulty edit is refused by the fill,
    each fault by the check named: the chord end's rotation against its
    neighbor set and chords, Euler on the traced face count, the edge
    count, and no hole among the faces through the chord darts."""
    from pig.graph import EmbeddingError

    h = _two_holes()
    t = triangulate(h)
    w = next(v for v in h.vertices if t.rotation(v) != h.rotation(v))  # a chord end
    x = next(v for v in h.vertices if t.rotation(v) == h.rotation(v)
             and not h.adjacent(v, w) and v != w)

    def phantom(h):  # w's neighbor set names x, its rotation does not
        h._adj[w] |= {x}

    def twice(h):  # w's rotation names a neighbor twice
        h._rot[w] += h._rot[w][:1]

    def extra_faces(h):
        h._nf += 2

    def lost_hole(h):  # the second hole is not chorded
        h._holes = h._holes[:1]

    def hidden(h):  # chords on the wrong side, under a count Euler cannot tell
        _reversed_holes(h)
        h._nf += 5

    faults = {phantom: "not its own plus its chords", twice: "not its own plus its chords",
              extra_faces: "Euler", _reversed_holes: "Euler",
              lost_hole: "postcondition", hidden: "postcondition"}
    for fault, message in faults.items():
        h = _two_holes()
        fault(h)
        with pytest.raises(EmbeddingError, match=message):
            h._fill({})
    h = _two_holes()
    h._fill({})
    assert_same_edit(h, t)


# -- removed faces: counted from degrees against the trace -----------------------


def assert_counted_as_traced(g, gone):
    """The faces a deletion of ``gone`` removes from ``g``, counted by
    ``_lost_faces``, against a trace of the parent-side darts.  Returns
    whether ``gone`` holds an edge."""
    gone = set(gone)
    new, darts = g._without(gone)
    vs = [*new, *gone]
    assert g._lost_faces(gone, vs, darts[0]) == _local_faces(g._rot, vs, darts[0])
    return any(g.neighbors(v) & gone for v in gone)


def test_removed_faces_counted_from_degrees():
    rng = random.Random(11)
    graphs = [generate(GenSpec(seed=s, n=80)) for s in range(3)]
    graphs += [generate(GenSpec(seed=s, n=80, min_degree5=True,
                                no_separating_triangle=True)) for s in range(2)]
    inner = sides = 0
    for g in graphs:
        assert g.is_triangulation() and g.is_connected()
        sets = [rng.sample(g.vertices, rng.randint(1, 16)) for _ in range(40)]
        for _ in range(40):  # grown breadth-first, so full of inner edges
            near, size = [rng.choice(g.vertices)], rng.randint(1, 16)
            for x in near:
                near += [y for y in g.rotation(x) if y not in near]
            sets.append(near[:size])
        hub = max(g.vertices, key=g.degree)
        sets.append([hub, *g.rotation(hub)])
        for tri in separating_triangles(g):
            for side in g.delete_set(tri).components():
                sets += [side, [*side, *tri]]
                sides += 1
        for gone in sets:
            inner += assert_counted_as_traced(g, gone)
    assert inner > 150 and sides > 10
    # parents the count leaves to the trace: holes, two components (one
    # without faces, one whose two faces are the same triangle), and K3
    k3, dot = embedded_cycle(3), EmbeddedGraph({1: ()})
    h = graphs[0].delete_set(graphs[0].vertices[:5])
    for g in (h, disjoint_union(graphs[3], dot), disjoint_union(graphs[4], k3), k3):
        assert not g.is_triangulation() or not g.is_connected() or g.n == 3
        for gone in [g.vertices[-2:], *(rng.sample(g.vertices, rng.randint(1, 3))
                                        for _ in range(10))]:
            assert_counted_as_traced(g, gone)


def test_removed_faces_counted_on_kernel_cases(monkeypatch):
    """On every parent of a contraction, a fused deletion or a subgraph in
    the kernel cases, the count equals the trace."""
    ex = importlib.import_module("pig.extract")
    rd = importlib.import_module("pig.reduce")
    counted = {"contract_set": 0, "triangulate": 0}
    ops = []
    lost, contract = EmbeddedGraph._lost_faces, EmbeddedGraph.contract_set

    def checked(self, gone, vs, darts):
        vs, darts = list(vs), list(darts)
        got = lost(self, gone, vs, darts)
        assert got == _local_faces(self._rot, vs, darts)
        if ops and self.n >= 4 and self.is_connected() and self.is_triangulation():
            counted[ops[-1]] += 1
        return got

    def during(name, fn):
        def wrapped(*args, **kw):
            # a fused edit given a part is the parent of a contraction
            ops.append("contract_set" if args[2:] else name)
            try:
                return fn(*args, **kw)
            finally:
                ops.pop()
        return wrapped

    monkeypatch.setattr(EmbeddedGraph, "_lost_faces", checked)
    monkeypatch.setattr(EmbeddedGraph, "contract_set", during("contract_set", contract))
    for module in (ex, rd):
        monkeypatch.setattr(module, "triangulate", during("triangulate", triangulate))
    for _, build, ratio in KERNEL_CASES:
        ex.extract(build(), ratio)
    assert counted["contract_set"] > 50 and counted["triangulate"] > 300


def test_plain_extraction_traces_no_parent_faces(monkeypatch):
    gr = importlib.import_module("pig.graph")
    ex = importlib.import_module("pig.extract")
    parents, traced = [], []  # the lists keep every rotation map alive
    seen: set[int] = set()
    without, local = EmbeddedGraph._without, gr._local_faces

    check = EmbeddedGraph._check_rotations

    # a consuming edit hands the parent's map on to the child, which checks
    # its rotations first: from then on the map is the child's
    def noting(self, *args):
        parents.append(self._rot)
        seen.add(id(self._rot))
        return without(self, *args)

    def handed_on(self, vs):
        seen.discard(id(self._rot))
        return check(self, vs)

    def tracing(rot, vs, darts):
        traced.append((rot, id(rot) in seen))
        return local(rot, vs, darts)

    monkeypatch.setattr(EmbeddedGraph, "_without", noting)
    monkeypatch.setattr(EmbeddedGraph, "_check_rotations", handed_on)
    monkeypatch.setattr(gr, "_local_faces", tracing)
    ex.extract(generate(GenSpec(seed=0, n=1000)), "3/13")
    assert len(parents) > 200 and len(traced) > 200
    assert not [rot for rot, parent in traced if parent]


# -- consuming edits: the walk's reductions hand their maps on -----------------


def _whole(g):
    """What must not change of a graph a public entry was given."""
    return {v: g.rotation(v) for v in g.vertices}, g.graph_hash(), g.m


def test_walk_reductions_consume_their_parents(monkeypatch):
    """Along plain n=120 and the small flagged-mix inputs, each
    ``triangulate`` of a graph the walk owns consumes it: the child holds
    the parent's two maps and equals a fresh copy, and the parent refuses
    every read but ``m``.  Extraction and replay run through it, so a read
    of a consumed graph after its edit fails them.  Every public entry
    leaves its own graph whole."""
    from conftest import glued_pair
    from test_golden import build

    ex = importlib.import_module("pig.extract")
    rd = importlib.import_module("pig.reduce")
    consumed = copied = 0

    def recording(g, drop=(), *part):
        nonlocal consumed, copied
        owned, rot, adj, m = g._owned, g._rot, g._adj, g.m
        t = triangulate(g, drop, *part)
        assert (t._rot is rot and t._adj is adj) == owned
        assert_same_as_fresh(t)
        if owned:
            consumed += 1
            for read in (lambda: g.rotation(t.vertices[0]), lambda: g.neighbors(1),
                         lambda: g.n, lambda: g.vertices):
                with pytest.raises(GraphError, match="consumed"):
                    read()
            assert g.m == m
        else:
            copied += 1
        return t

    monkeypatch.setattr(rd, "triangulate", recording)
    monkeypatch.setattr(ex, "triangulate", recording)
    c = Ratio.parse("3/13")
    graphs = [generate(GenSpec(seed=0, n=120)), build({"family": "geodesic", "levels": 1}),
              glued_pair(30, 30, 3, 8)]
    for g in graphs:
        before, was = consumed, _whole(g)
        cert = ex.extract(g, c)
        made = consumed
        assert ex.check_certificate(g, cert) == (True, "ok")
        assert consumed - made == made - before > 0  # replay consumes as extraction does
        ex.next_step(g, c)
        triangulate(g, g.vertices[:2])
        assert _whole(g) == was
    assert copied  # the root's reduction, and the public calls
    # only triangulate consumes: an owned graph stays whole under every
    # other edit, a split and a components step
    g = glued_pair(30, 30, 3, 8)
    tri = separating_triangles(g)[0]
    for h in (held(g), held(g).delete_set(tri)):
        h._owned, was = True, _whole(h)
        v = h.vertices[-1]
        h.subgraph(h.vertices[:10])
        h.subgraph(h.vertices[5:])
        h.delete_set([v])
        h.contract_set([v], [h.vertices[0]])
        step = ex.next_step(h, c)
        assert step.op == ("split" if h.is_connected() else "components")
        assert _whole(h) == was


# -- dart reports: each edit's named darts against a whole-rotation diff ------


def _darts_into(rot, other, vs):
    """The darts (x, v), v in ``vs``, whose successor at v in ``rot`` is not
    their successor in ``other``: the reference for the darts whose faces
    an edit changed, found by diffing whole rotations."""
    out = []
    for v in vs:
        ns = rot[v]
        theirs = other.get(v)
        if not theirs:
            out.extend((x, v) for x in ns)
            continue
        kept = set(zip(theirs, theirs[1:] + theirs[:1]))
        out.extend((x, v) for x, y in zip(ns, ns[1:] + ns[:1]) if (x, y) not in kept)
    return out


def _traced(rot, vs, darts):
    """Face count and canonical non-triangular faces through ``darts``."""
    count, holes = _local_faces(rot, vs, darts)
    return count, sorted(_canonical(rot, h) for h in holes)


def checking_dart_reports(monkeypatch):
    """Make every derived graph check its edit's dart report against the
    rotation diff, on both sides: the report names every changed dart,
    names any other dart on both sides, and re-traces the same faces.
    Returns the list of the degrees of the vertices each edit touched,
    which grows as edits are made.  A filling edit is checked as the same
    edit without the fill, made on a ``held`` copy, since the chords come
    after the report and the edit may consume its parent."""
    degrees = []
    original = EmbeddedGraph._edit

    def checked(self, gone, at=None, ncomp=None, fill=False):
        new, darts = self._without(gone, at)  # what the edit itself takes
        if fill:
            parent = held(self)
            out = original(self, gone, at, ncomp, fill)
            self, g = parent, original(parent, gone, at, ncomp)
        else:
            out = g = original(self, gone, at, ncomp)
        rot, touched = g._rot, list(new)
        was = [v for v in touched if v in self._rot] + list(gone)
        ref = (_darts_into(self._rot, rot, was),
               _darts_into(rot, self._rot, touched))
        extra = [set(d) - set(r) for d, r in zip(darts, ref)]
        assert extra[0] == extra[1]
        assert all(set(r) <= set(d) for d, r in zip(darts, ref))
        assert _traced(self._rot, was, darts[0]) == _traced(self._rot, was, ref[0])
        assert _traced(rot, touched, darts[1]) == _traced(rot, touched, ref[1])
        degrees.extend(len(self._rot[v]) for v in was)
        return out

    monkeypatch.setattr(EmbeddedGraph, "_edit", checked)
    return degrees


def test_dart_reports_match_the_rotation_diff(monkeypatch):
    ex = importlib.import_module("pig.extract")
    degrees = checking_dart_reports(monkeypatch)
    for _, build, ratio in KERNEL_CASES:
        ex.extract(build(), ratio)
    assert max(degrees) >= 40  # edits at hubs, where a diff scans the most
    edits = len(degrees)
    for _ in chained_walk(generate(GenSpec(seed=2, n=200))):
        pass
    assert len(degrees) > edits


# -- the ear order of triangulate against the quadratic scan ------------------


def reference_triangulate(g):
    """The rotations of ``triangulate(g)`` and its chords in order, by the
    quadratic ear scan alone: on each face, the ear of the smallest vertex
    whose chord is addable, the first on the walk on ties."""
    rot = {v: list(g.rotation(v)) for v in g.vertices}
    order = []
    stack = [list(f) for f in g._face_stats()[1] if len(f) > 3]
    while stack:
        walk = stack.pop()
        k = len(walk)
        best = None
        for p in range(k):
            a, b = walk[p], walk[(p + 2) % k]
            if (best is None or a < walk[best]) and a != b and b not in rot[a]:
                best = p
        q = (best + 2) % k
        a, b = walk[best], walk[q]
        rot[a].insert(rot[a].index(walk[best - 1]) + 1, b)
        rot[b].insert(rot[b].index(walk[q - 1]) + 1, a)
        order.append((a, b))
        rest = walk[q:] + walk[:best + 1] if q > best else walk[q:best + 1]
        if len(rest) > 3:
            stack.append(rest)
    return {v: tuple(ns) for v, ns in rot.items()}, order


def triangulate_in_order(monkeypatch, g):
    """``triangulate(g)`` and the chords it added, in order: each chord
    (a, b), a the vertex whose ear it cuts, is noted once as it is added."""
    gr = importlib.import_module("pig.graph")
    order = []
    original = gr._add_chord

    def noting(chords, a, b):
        order.append((a, b))
        original(chords, a, b)

    monkeypatch.setattr(gr, "_add_chord", noting)
    t = triangulate(g)
    monkeypatch.setattr(gr, "_add_chord", original)
    assert len(order) == t.m - g.m
    return t, order


def test_triangulate_matches_the_ear_scan_on_kernel_cases(monkeypatch):
    """Every graph the engine triangulates, on its own or fused with a
    reduction's deletion, is chorded as the ear scan says."""
    ex = importlib.import_module("pig.extract")
    rd = importlib.import_module("pig.reduce")
    made = []

    def recording(g, drop=(), *part):
        # the graph chorded, taken before the call, which may consume g
        if part or drop:
            before = g.contract_set(*part, drop)[0] if part else g.delete_set(drop)
        else:
            before = held(g)
        t = triangulate(g, drop, *part)
        made.append((before, held(t)))  # t is a sub-instance the walk hands on
        return t

    monkeypatch.setattr(ex, "triangulate", recording)
    monkeypatch.setattr(rd, "triangulate", recording)
    for _, build, ratio in KERNEL_CASES:
        ex.extract(build(), ratio)
    assert sum(1 for g, t in made if t.m > g.m) > 100
    for g, t in made:
        ref = reference_triangulate(g)[0] if g.is_connected() else {
            v: g.rotation(v) for v in g.vertices}
        assert {v: t.rotation(v) for v in t.vertices} == ref


# Two wheels glued at rim vertex 1: the one hole, 1 9 8 7 6 1 5 4 3 2, passes
# 1 twice, so after the first cut the ear at 1's other corner comes first on
# the walk.
BOWTIE = {1: (2, 9, 21, 6, 5, 20), 2: (1, 20, 3), 3: (2, 20, 4), 4: (3, 20, 5),
          5: (1, 4, 20), 6: (1, 21, 7), 7: (6, 21, 8), 8: (7, 21, 9),
          9: (1, 8, 21), 20: (1, 5, 4, 3, 2), 21: (1, 9, 8, 7, 6)}


@pytest.mark.parametrize("rot", [
    BOWTIE,
    # the path 1-3-2-4-5: fanning from 1 leaves 2 before 1 on the walk,
    # and 2's ear then beats 1's
    {1: (3,), 3: (1, 2), 2: (3, 4), 4: (2, 5), 5: (4,)},
    # the path 1-2-3 of test_path_with_cut_vertex
    {1: (2,), 2: (1, 3), 3: (2,)},
], ids=["bowtie", "path-13245", "path-123"])
def test_triangulate_ear_ties(monkeypatch, rot):
    g = EmbeddedGraph(rot)
    t, order = triangulate_in_order(monkeypatch, g)
    ref_rot, ref_order = reference_triangulate(g)
    assert {v: t.rotation(v) for v in t.vertices} == ref_rot
    assert order == ref_order


# -- separating triangles carried through edits ---------------------------------


def _asked(h):
    """``separating_triangles`` of ``h``, asked of a shallow copy, so that
    ``h`` keeps the vertices it has pending and hands them on."""
    return separating_triangles(copy.copy(h))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_carried_separating_triangles_through_edit_chains(data):
    """Random chains of ``delete_set``, ``contract_set(part, drop)`` and
    ``triangulate(g, drop, part)`` from a swept triangulation, plain or
    flagged, each edit on a graph of the chain that the walk owns (a
    consuming edit) or not (a copying one).  After every step, each
    triangulation of the chain answers as a brute-force search of a graph
    rebuilt from its rotations, and every consumed graph still raises."""
    flagged = data.draw(st.booleans(), label="flagged")
    n = data.draw(st.integers(14, 28), label="n")
    seed = data.draw(st.integers(0, 9), label="seed")
    g = fresh_copy(generate(GenSpec(seed=seed, n=n, min_degree5=flagged,
                                    no_separating_triangle=flagged)))
    separating_triangles(g)  # known at the root: the edits below carry it
    live, consumed = [g], []
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        parent = data.draw(st.sampled_from([h for h in live if h.n >= 8]), label="parent")
        vs = parent.vertices
        op = data.draw(st.sampled_from(["delete", "contract", "triangulate"]), label="op")
        drop = data.draw(st.lists(st.sampled_from(vs), max_size=2, unique=True), label="drop")
        part = []
        if op == "contract" or data.draw(st.booleans(), label="contract too"):
            v = data.draw(st.sampled_from([v for v in vs if v not in drop]), label="v")
            near = sorted(parent.neighbors(v) - set(drop))
            part = [v] + data.draw(st.lists(st.sampled_from(near), max_size=1), label="u")
        if op == "delete" or not (drop or part or parent.is_connected()):
            child = parent.delete_set(drop or vs[:1])
        elif op == "contract":
            child = parent.contract_set(part, drop)[0]
        else:
            parent._owned = data.draw(st.booleans(), label="owned")
            child = triangulate(parent, drop, part)
            if parent._owned:
                live.remove(parent)
                consumed.append(parent)
        live.append(child)
        if child.is_triangulation() and data.draw(st.booleans(), label="ask"):
            separating_triangles(child)  # resolves what it has pending
        for h in live:
            if h.is_triangulation() and h.is_connected():
                assert _asked(h) == brute_separating_triangles(fresh_copy(h))
        for h in consumed:
            with pytest.raises(GraphError, match="consumed"):
                separating_triangles(h)
        if not any(h.n >= 8 for h in live):
            break


def planner_answers(monkeypatch, g, ratio):
    """Extract ``g``, checking every answer the planner reads from
    ``separating_triangles`` against a fresh sweep of a rebuilt copy.
    Returns, in call order, how each was given ("whole" for a sweep of
    every edge, "carried" for one resolved from what an edit handed on,
    "kept" for one already on the graph) with the graph's n."""
    ex = importlib.import_module("pig.extract")
    dc = importlib.import_module("pig.discharge")
    out = []

    def checking(h):
        how = "whole" if h._septris is None else "carried" if h._stale else "kept"
        got = separating_triangles(h)
        assert got == separating_triangles(fresh_copy(h))
        out.append((how, h.n))
        return got

    monkeypatch.setattr(ex, "separating_triangles", checking)
    monkeypatch.setattr(dc, "separating_triangles", checking)
    ex.extract(g, ratio)
    return out


def _planner_cases():
    """The ``flagged-mix`` inputs, geodesic levels 1-3, drums 8, 20 and 60,
    glued pairs whose splits reach all four strategies, and flagged graphs
    at n 60, 90 and 120, seeds 0-5; each parsed from its serialization, as
    ``pig extract`` reads it, so that nothing is known of it yet."""
    from conftest import drum, glued_pair
    from test_golden import build

    def flagged(n, seed):
        return generate(GenSpec(seed=seed, n=n, min_degree5=True,
                                no_separating_triangle=True))

    cases = [("flagged-200-s3", lambda: flagged(200, 3))]
    cases += [(f"geodesic-{k}", lambda k=k: build({"family": "geodesic", "levels": k}))
              for k in (1, 2, 3)]
    cases += [(f"drum-{r}", lambda r=r: drum(r)) for r in (8, 20, 60)]
    cases += [(f"glued-{a}-{b}-s{s}-{t}", lambda a=a, b=b, s=s, t=t: glued_pair(a, b, s, t))
              for a, b, s, t in ((110, 90, 11, 2), (30, 30, 3, 8), (14, 16, 3, 8),
                                 (15, 15, 3, 8))]
    cases += [(f"flagged-{n}-s{s}", lambda n=n, s=s: flagged(n, s))
              for n in (60, 90, 120) for s in range(6)]
    return [(name, lambda b=b: parse_rotation_graph(b().serialize())) for name, b in cases]


PLANNER_CASES = _planner_cases()


@pytest.mark.parametrize("build", [c[1] for c in PLANNER_CASES],
                         ids=[c[0] for c in PLANNER_CASES])
def test_carried_separating_triangles_equal_a_fresh_sweep(monkeypatch, build):
    assert planner_answers(monkeypatch, build(), "3/13")


@pytest.mark.parametrize("name", ["geodesic-3", "flagged-200-s3"])
def test_extraction_sweeps_the_whole_graph_once(monkeypatch, name):
    """Equal answers cannot show an edit that drops the carry: only the
    root of these extractions is swept whole, and every later answer is
    resolved from what the edits handed on."""
    g = dict(PLANNER_CASES)[name]()
    answers = planner_answers(monkeypatch, g, "3/13")
    assert answers[0] == ("whole", g.n)
    assert [how for how, _ in answers[1:]].count("whole") == 0
    if name == "geodesic-3":
        assert sum(how == "carried" for how, _ in answers) == 35
