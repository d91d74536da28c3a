import pytest

from pig.generate import GenSpec, GenerationError, generate
from pig.graph import GraphError, separating_triangles

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
