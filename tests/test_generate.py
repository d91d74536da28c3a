import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pig.generate import (
    GenSpec,
    GenerationError,
    _repair_degrees,
    _repair_separating_triangles,
    _sample,
    generate,
)
from pig.graph import EmbeddedGraph, GraphError, nonface_triangles, separating_triangles

from conftest import brute_separating_triangles


def test_size_and_edge_count():
    g = generate(GenSpec(seed=1, n=50))
    assert g.n == 50
    assert g.m == 144  # 3n - 6
    assert g.is_triangulation()


def test_determinism():
    a = generate(GenSpec(seed=1, n=50))
    b = generate(GenSpec(seed=1, n=50))
    assert a.serialize() == b.serialize()


def test_seeds_differ():
    a = generate(GenSpec(seed=1, n=30))
    b = generate(GenSpec(seed=2, n=30))
    assert a.serialize() != b.serialize()


def test_min_degree5_no_septri_n12_is_icosahedral():
    g = generate(GenSpec(seed=7, n=12, min_degree5=True, no_separating_triangle=True))
    # the icosahedron is the unique such triangulation at n=12
    assert g.n == 12
    assert all(g.degree(v) == 5 for v in g.vertices)
    assert separating_triangles(g) == []
    assert brute_separating_triangles(g) == []


@pytest.mark.parametrize("seed,n", [(0, 20), (3, 45), (11, 80)])
def test_flags_hold(seed, n):
    g = generate(GenSpec(seed=seed, n=n, min_degree5=True, no_separating_triangle=True))
    assert g.min_degree() >= 5
    assert separating_triangles(g) == []
    assert g.is_triangulation()


def test_flags_hold_at_n_2000():
    # the degree repair's flip budget grows with n: a fixed 1,600 flips
    # left 260 vertices under degree 5 here and failed after 1,000 samples
    g = generate(GenSpec(seed=0, n=2000, min_degree5=True, no_separating_triangle=True))
    assert g.n == 2000 and g.is_triangulation()
    assert g.min_degree() == 5
    assert separating_triangles(g) == []


def test_too_small():
    with pytest.raises(GraphError):
        generate(GenSpec(seed=1, n=3))


def test_flag_needs_twelve():
    with pytest.raises(GenerationError):
        generate(GenSpec(seed=1, n=8, min_degree5=True))


def test_valid_embeddings_across_seeds():
    for seed in range(10):
        g = generate(GenSpec(seed=seed, n=24))
        assert g.n - g.m + len(g.faces()) == 2


@pytest.mark.parametrize("spec,digest", [
    (GenSpec(seed=0, n=400, no_separating_triangle=True),
     "0b9b42d70cd58940e892c920df72f8103c02fded4d1a58a6ed8705db04650589"),
    (GenSpec(seed=1, n=400, no_separating_triangle=True),
     "2df7bf517af3ef72fd254e84aac5126f9ff482522b36021d63ea7ecda8d1370c"),
    (GenSpec(seed=0, n=1000, min_degree5=True, no_separating_triangle=True),
     "0ef7623b2a642b48c38192c095ee81b821d89a8543cafda7f150493f85579e27"),
], ids=["septri-400-s0", "septri-400-s1", "flagged-1000-s0"])
def test_long_repair_chains_keep_their_graphs(spec, digest):
    # the golden specs and perfbench inputs need at most 2 triangle-repair
    # rounds; these take 184, 170 and 5, so a change to how the repair
    # finds or picks its triangles shows here
    assert generate(spec).graph_hash() == digest


@pytest.mark.parametrize("spec", [
    GenSpec(seed=0, n=400, no_separating_triangle=True),
    GenSpec(seed=0, n=2000, min_degree5=True, no_separating_triangle=True),
], ids=["septri-400-s0", "flagged-2000-s0"])
def test_one_checked_graph_per_sample(monkeypatch, spec):
    # the triangle repair works on the builder's own maps: a graph built
    # and checked after every flip made 184 and 6 graphs here
    builds = []
    init = EmbeddedGraph.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(EmbeddedGraph, "__init__", counting)
    generate(spec)
    assert len(builds) == 1


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_carried_nonface_triangles_through_flips(data):
    """Random legal flips of a sampled builder, plain or repaired as a
    flagged spec repairs it.  After each flip the answer carried over the
    flip's four ends equals a brute-force search of a graph rebuilt from
    the builder's rotations."""
    n = data.draw(st.integers(14, 40), label="n")
    rng = random.Random(data.draw(st.integers(0, 9), label="seed"))
    b = _sample(rng, n)
    if data.draw(st.booleans(), label="flagged"):
        # either repair may give up; the builder stays a triangulation
        if _repair_degrees(b, rng, n):
            _repair_separating_triangles(b, rng, True)
    tris = nonface_triangles(b.rot, b.adj)
    for _ in range(data.draw(st.integers(1, 8), label="flips")):
        u = data.draw(st.integers(1, n), label="u")
        v = data.draw(st.sampled_from(b.rot[u]), label="v")
        apexes = b.flippable(u, v)
        if apexes is None:
            continue
        tris = nonface_triangles(b.rot, b.adj, tris, b.flip(u, v, *apexes))
        assert tris == brute_separating_triangles(EmbeddedGraph(b.rot))
