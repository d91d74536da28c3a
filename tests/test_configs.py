from pig.configs import (
    DETECTOR_ORDER,
    ball,
    detect_apex_pair,
    detect_tight_pair,
    iter_configs,
    joint_neighborhood,
    tight_sets,
)
from pig.generate import GenSpec, generate


def flagged(seed, n):
    return generate(
        GenSpec(seed=seed, n=n, min_degree5=True, no_separating_triangle=True)
    )


def test_icosahedron_apex_pair(ico):
    # every edge has two degree-5 apexes, so the first detector fires
    m = next(iter_configs(ico), None)
    assert m is not None and m.kind == "apex_pair"
    assert m.verify(ico)
    w, x = m.role("w"), m.role("x")
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
            assert m.verify(g), (seed, m)
            counts[m.kind] = counts.get(m.kind, 0) + 1
    assert counts.get("apex_pair")
    assert counts.get("tight_pair")


def test_detector_priority_order(ico):
    kinds = [m.kind for m in iter_configs(ico)]
    order = {k: i for i, k in enumerate(DETECTOR_ORDER)}
    assert kinds == sorted(kinds, key=lambda k: order[k])


def test_tight_pair_bound():
    for seed in range(4):
        g = flagged(seed, 60)
        for m in detect_tight_pair(g):
            assert len(joint_neighborhood(g, m.j)) <= 8


def test_k4_no_matches(graph_k4):
    assert next(iter_configs(graph_k4), None) is None


def test_windowed_restriction():
    g = flagged(1, 90)
    m = next(iter_configs(g), None)
    window = ball(g, [m.roles[0][1]], 2)
    windowed = list(iter_configs(g, window))
    assert windowed  # the window around a match still yields matches
    for wm in windowed:
        assert wm.verify(g)
    # a windowed scan is a subset of the global scan
    all_matches = {(wm.kind, wm.roles) for wm in iter_configs(g)}
    assert all((wm.kind, wm.roles) in all_matches for wm in windowed)


def test_six_ring7_fires_and_reduces():
    from conftest import seven_ring_fixture
    from pig.configs import detect_six_ring7
    from pig.reduce import (
        PlanRejected,
        Ratio,
        certify_plan,
        plans_for_independent_set,
    )

    g = seven_ring_fixture()
    match = next(detect_six_ring7(g), None)
    assert match is not None and match.role("center") == 1
    assert match.verify(g)
    # the reduction set is derived from tight independent sets nearby
    pool = ball(g, [v for _, v in match.roles], 2)
    certified = None
    for jset in tight_sets(g, pool):
        for plan in plans_for_independent_set(g, jset, Ratio(3, 13), "derived"):
            try:
                certified = certify_plan(g, plan)
                break
            except PlanRejected:
                continue
        if certified:
            break
    assert certified is not None


def test_ball_radius():
    g = flagged(2, 50)
    b0 = ball(g, [1], 0)
    b1 = ball(g, [1], 1)
    assert b0 == frozenset({1})
    assert b1 == frozenset({1}) | g.neighbors(1)


def test_tight_sets_yields_independent_small_sets():
    g = flagged(5, 80)
    found = list(tight_sets(g, g.vertices, limit=25))
    assert found
    for js in found:
        assert all(not g.adjacent(a, b) for i, a in enumerate(js) for b in js[i + 1:])
        cap = 8 if len(js) == 2 else 13
        assert len(joint_neighborhood(g, js)) <= cap
