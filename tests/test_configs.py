import importlib
import itertools

from pig.configs import (
    DETECTOR_ORDER,
    ball,
    detect_apex_pair,
    iter_configs,
    joint_neighborhood,
    tight_sets,
)
from pig.generate import GenSpec, generate

from conftest import match_role, verify_match


def flagged(seed, n):
    return generate(
        GenSpec(seed=seed, n=n, min_degree5=True, no_separating_triangle=True)
    )


def test_icosahedron_apex_pair(ico):
    # every edge has two degree-5 apexes, so the first detector fires
    m = next(iter_configs(ico), None)
    assert m is not None and m.kind == "apex_pair"
    assert verify_match(ico, m)
    w, x = match_role(m, "w"), match_role(m, "x")
    assert ico.degree(w) == 5 and ico.degree(x) <= 6
    assert not ico.adjacent(w, x)


def test_apex_pair_on_every_flagged_graph():
    # min-degree-5 triangulations without separating triangles always
    # contain the two-apex pattern, so iter_configs never comes up empty
    for seed in range(8):
        g = flagged(seed, 40 + seed * 13)
        assert any(True for _ in detect_apex_pair(g))
        assert next(iter_configs(g), None) is not None


def test_matches_verify_their_hypotheses():
    counts = {}
    for seed in range(6):
        g = flagged(seed + 3, 110)
        for m in iter_configs(g):
            assert verify_match(g, m), (seed, m)
            counts[m.kind] = counts.get(m.kind, 0) + 1
    assert set(counts) == set(DETECTOR_ORDER)


def test_detector_priority_order(ico):
    kinds = [m.kind for m in iter_configs(ico)]
    order = {k: i for i, k in enumerate(DETECTOR_ORDER)}
    assert kinds == sorted(kinds, key=lambda k: order[k])


def test_k4_no_matches(graph_k4):
    assert next(iter_configs(graph_k4), None) is None


def test_windowed_restriction():
    g = flagged(1, 90)
    m = next(iter_configs(g), None)
    window = ball(g, [m.roles[0][1]], 2)
    windowed = list(iter_configs(g, window))
    assert windowed  # the window around a match still yields matches
    for wm in windowed:
        assert verify_match(g, wm)
    # a windowed scan is a subset of the global scan
    all_matches = {(wm.kind, wm.roles) for wm in iter_configs(g)}
    assert all((wm.kind, wm.roles) in all_matches for wm in windowed)


def _reduce_labels(steps):
    """The ``match`` label of every catalog step in a certificate."""
    return {entry["match"] for entry in steps if entry["op"] == "reduce" and "match" in entry}


def test_every_detector_is_needed(ico):
    # each detector of the catalog takes a step on one of these graphs:
    # drums need apex_pair, the geodesic icosahedron needs low_trio_star6
    from conftest import drum, subdivide
    from pig.extract import extract

    labels = set()
    for g in (subdivide(ico), drum(8)):
        labels |= _reduce_labels(extract(g, "3/13").steps)
    assert labels == set(DETECTOR_ORDER)


def test_sweep_fallback_certifies_without_the_catalog(ico, monkeypatch):
    # with no detector match at all, the tight-set sweep still finds a
    # certified reduction on every min-degree-5 triangulation here
    from conftest import drum, seven_ring_fixture, subdivide

    ex = importlib.import_module("pig.extract")  # the module, not the function

    monkeypatch.setattr(ex, "iter_configs", lambda g, within=None: iter(()))
    graphs = [seven_ring_fixture(), drum(8), subdivide(ico)]
    graphs += [flagged(seed, 80) for seed in range(6)]
    for g in graphs:
        cert = ex.extract(g, "3/13")
        labels = _reduce_labels(cert.steps)
        assert labels == {"sweep"}, labels
        assert ex.check_certificate(g, cert) == (True, "ok")
        assert cert.size >= cert.bound


def test_ball_radius():
    g = flagged(2, 50)
    b0 = ball(g, [1], 0)
    b1 = ball(g, [1], 1)
    assert b0 == frozenset({1})
    assert b1 == frozenset({1}) | g.neighbors(1)


def test_tight_sets_yields_independent_small_sets():
    g = flagged(5, 80)
    found = list(itertools.islice(tight_sets(g, g.vertices), 25))
    assert found
    for js in found:
        assert all(not g.adjacent(a, b) for i, a in enumerate(js) for b in js[i + 1:])
        cap = 8 if len(js) == 2 else 13
        assert len(joint_neighborhood(g, js)) <= cap
