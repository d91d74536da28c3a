import itertools

import pytest

from pig import mis
from pig.configs import iter_configs, joint_neighborhood, tight_sets
from pig.generate import GenSpec, generate
from pig.graph import EmbeddedGraph, separating_triangles
from pig.reduce import (
    MAX_PLAN_SIZE,
    PlanRejected,
    Ratio,
    ReductionPlan,
    apply_plan,
    candidate_plans,
    certify_plan,
    find_low_degree_plan,
    interior,
    lift,
    plans_for_independent_set,
    split_combine,
    split_guarantees,
    split_plan,
    split_subproblems,
)

from conftest import glued_pair
from test_acceptance import neighborhood_floor
from test_graph import assert_same_as_fresh

C13 = Ratio(3, 13)
C5 = Ratio(1, 5)


def flagged(seed, n):
    return generate(
        GenSpec(seed=seed, n=n, min_degree5=True, no_separating_triangle=True)
    )


def tight_pair_plan(g):
    """The first plan around the first independent pair with joint
    neighborhood at most 8 that the tight-set sweep yields."""
    pair = next(js for js in tight_sets(g, g.vertices) if len(js) == 2)
    assert len(joint_neighborhood(g, pair)) <= 8
    return next(plans_for_independent_set(g, pair, C13))


class TestRatio:
    def test_parse(self):
        assert Ratio.parse("3/13") == Ratio(3, 13)
        assert str(Ratio(2, 9)) == "2/9"

    def test_invalid(self):
        with pytest.raises(ValueError):
            Ratio(0, 5)
        with pytest.raises(ValueError):
            Ratio(5, 5)
        with pytest.raises(ValueError):
            Ratio(2, 4)
        with pytest.raises(ValueError):
            Ratio.parse("nonsense")

    def test_parse_error_echoes_a_prefix(self):
        for text in ("9" * 5000 + "/13", "x" * 100_000):
            with pytest.raises(ValueError) as info:
                Ratio.parse(text)
            assert str(info.value) == f"cannot parse ratio {text[:40]!r}"

    def test_ceil_mul(self):
        c = Ratio(3, 13)
        assert c.ceil_mul(13) == 3
        assert c.ceil_mul(12) == 3
        assert c.ceil_mul(14) == 4
        assert c.ceil_mul(0) == 0

    def test_holds(self):
        assert C13.holds(3, 13)
        assert not C13.holds(3, 14)


class TestNeighborhoodFloor:
    def test_three_thirteenths_table(self):
        assert neighborhood_floor(1, C13) == 5
        assert neighborhood_floor(2, C13) == 8
        assert neighborhood_floor(3, C13) == 12

    def test_one_fifth(self):
        assert neighborhood_floor(1, C5) == 6

    def test_invalid(self):
        with pytest.raises(ValueError):
            neighborhood_floor(0, C13)


class TestLowDegree:
    def test_k4_clique_neighborhood(self, graph_k4):
        plan = find_low_degree_plan(graph_k4, C13)
        assert plan.parts == ()
        assert plan.s == frozenset({1, 2, 3, 4})
        certify_plan(graph_k4, plan)
        # passed over where ceil(c*4) > 1: there the window keeps only v
        assert find_low_degree_plan(graph_k4, Ratio(2, 7)) is None

    def test_octahedron_antipodal_pair(self, graph_octahedron):
        plan = find_low_degree_plan(graph_octahedron, C13)
        (part,) = plan.parts
        assert 1 in part
        u, w = sorted(part - {1})
        assert not graph_octahedron.adjacent(u, w)
        cert = certify_plan(graph_octahedron, plan)
        reduced, ctx = apply_plan(graph_octahedron, cert)
        inner = frozenset(mis.mis_exact(reduced))
        out = lift(inner, ctx)
        assert mis.verify_independent(graph_octahedron, out)
        assert len(out) >= 2 == mis.alpha(graph_octahedron)

    def test_icosahedron_none_at_three_thirteenths(self, ico):
        assert find_low_degree_plan(ico, C13) is None

    def test_icosahedron_found_at_one_fifth(self, ico):
        plan = find_low_degree_plan(ico, C5)
        assert plan is not None and len(plan.parts) == 1
        certify_plan(ico, plan)

    def test_every_planar_graph_reduces_at_one_fifth(self):
        for seed in range(6):
            g = generate(GenSpec(seed=seed, n=25))
            plan = find_low_degree_plan(g, C5)
            assert plan is not None
            certify_plan(g, plan)

    def test_plans_have_at_most_six_vertices_at_any_ratio(self, monkeypatch, graph_k4):
        """A low-degree plan is the closed neighborhood of a vertex of
        degree at most 5, so the plan size bound of 16 holds at every
        ratio: on every graph extraction reduces, from 1/400 to 2/7."""
        import importlib

        from pig.extract import IncompletenessDiagnostic

        ex = importlib.import_module("pig.extract")
        sizes = []

        def recording(g, c):
            plan = find_low_degree_plan(g, c)
            sizes.append(len(plan.s) if plan else 0)
            return plan

        monkeypatch.setattr(ex, "find_low_degree_plan", recording)
        graphs = [generate(GenSpec(seed=3, n=120)), flagged(1, 60), graph_k4]
        for r in ("1/400", "1/40", "1/20", "1/5", "2/9", "3/13", "1/4", "5/19", "2/7"):
            for g in graphs:
                try:
                    ex.extract(g, r)
                except IncompletenessDiagnostic:
                    pass
        assert len(sizes) > 200 and 4 <= max(sizes) <= 6 < MAX_PLAN_SIZE == 16


class TestCertification:
    def test_rejects_t_not_less_than_s(self, ico):
        s = frozenset({1})
        plan = ReductionPlan(s=s, parts=(s,), ratio=C13)
        with pytest.raises(PlanRejected, match="t <"):
            certify_plan(ico, plan)

    def test_rejects_overlapping_parts(self, ico):
        ring = ico.rotation(1)
        s = frozenset({1}) | set(ring)
        p = frozenset({1, ring[0], ring[1]})
        plan = ReductionPlan(s=s, parts=(p, p), ratio=C13)
        with pytest.raises(PlanRejected, match="overlap"):
            certify_plan(ico, plan)

    def test_rejects_disconnected_part(self, ico):
        far = next(
            v for v in ico.vertices if v != 1 and not ico.adjacent(1, v)
        )
        s = frozenset(ico.vertices)
        plan = ReductionPlan(s=s, parts=(frozenset({1, far}),), ratio=C13)
        with pytest.raises(PlanRejected, match="connected"):
            certify_plan(ico, plan)

    def test_rejects_plans_above_the_largest_size(self):
        g = flagged(2, 70)
        for c in (C13, Ratio(1, 20), Ratio(1, 400)):
            plan = ReductionPlan(frozenset(g.vertices[:17]), (), c)
            with pytest.raises(PlanRejected, match=f"17 above 16, the largest plan at {c}$"):
                certify_plan(g, plan)
        # at the bound the plan goes on to the other checks
        plan = ReductionPlan(frozenset(g.vertices[:16]), (), C13)
        with pytest.raises(PlanRejected, match="too small"):
            certify_plan(g, plan)

    def test_pair_plan_certifies_on_flagged_graph(self):
        g = flagged(2, 70)
        plan = tight_pair_plan(g)
        cert = certify_plan(g, plan)
        assert cert.need == plan.need()
        assert all(alpha >= cert.need for _, alpha in cert.checked)

    def test_icosahedron_distance2_pair_certifies(self, ico):
        # any two vertices at distance 2 share exactly two neighbors, so
        # their joint neighborhood has size 8 and the pair plan certifies
        # with all four part subsets
        plan = tight_pair_plan(ico)
        assert len(plan.s) == 10  # the pair and its 8 neighbors
        assert plan.t == 2
        cert = certify_plan(ico, plan)
        checked = {c for c, _ in cert.checked}
        assert {(), (0,), (1,)} <= checked
        p0, p1 = plan.parts
        touching = any(ico.neighbors(v) & p1 for v in p0)
        # both parts together are only a lift case when they are nonadjacent
        assert ((0, 1) in checked) == (not touching)
        reduced, ctx = apply_plan(ico, cert)
        assert reduced.n == ico.n - 8  # |S| = 10, t = 2
        out = lift(frozenset(mis.mis_exact(reduced)), ctx)
        assert mis.verify_independent(ico, out)
        assert len(out) >= 3

    def test_certified_windows_hold_for_every_admissible_subset(self):
        # the executable core: any admissible part subset has a window
        # optimum meeting |X| + need
        done = 0
        for seed in range(4):
            g = flagged(seed + 6, 80)
            for m in iter_configs(g):
                for plan in candidate_plans(g, m, C13):
                    try:
                        cert = certify_plan(g, plan)
                    except PlanRejected:
                        continue
                    for chosen, want in cert.checked:
                        window = set(cert.interior)
                        for i in chosen:
                            window |= plan.parts[i]
                        t = mis.mis_exact(g, vertices=window)
                        assert len(t) >= want
                        assert mis.verify_independent(g, t)
                    done += 1
                    break
                if done > 6:
                    break
            if done > 6:
                break
        assert done > 0


class TestLift:
    def test_lift_replaces_contracted_vertex(self):
        g = flagged(1, 64)
        plan = tight_pair_plan(g)
        cert = certify_plan(g, plan)
        reduced, ctx = apply_plan(g, cert)
        assert reduced.n == g.n - len(plan.s) + plan.t
        # feed a reduced solution containing every contracted vertex
        base = frozenset(mis.mis_exact(reduced))
        out = lift(base, ctx)
        assert mis.verify_independent(g, out)
        assert len(out) >= C13.ceil_mul(g.n)

    def test_lift_rejects_undersized_input(self):
        g = flagged(3, 64)
        cert = None
        for match in iter_configs(g):
            for plan in candidate_plans(g, match, C13):
                try:
                    cert = certify_plan(g, plan)
                    break
                except PlanRejected:
                    continue
            if cert:
                break
        assert cert is not None
        reduced, ctx = apply_plan(g, cert)
        from pig.reduce import LiftError

        with pytest.raises(LiftError):
            lift(frozenset(), ctx)


class TestSplit:
    def test_guarantee_table(self):
        gs = split_guarantees(16, 10, C13)
        # sides of 19 and 13: best recipe reaches ceil(3*29/13) = 7
        assert gs["hub1"] == C13.ceil_mul(17) + C13.ceil_mul(13) - 1 == 6
        g2 = split_guarantees(13, 7, C13)
        assert g2["hub1"] == C13.ceil_mul(14) + C13.ceil_mul(10) - 1 == 6
        assert g2["delete-both"] == C13.ceil_mul(13) + C13.ceil_mul(7) == 5

    def test_stacked_k4s(self, graph_stacked):
        sp = split_plan(graph_stacked, (1, 2, 3), C13)
        assert sp.triangle == (1, 2, 3)
        assert sp.target == 2
        n1, n2 = len(sp.side1) - 3, len(sp.side2) - 3
        # ceil(3/13) + ceil(3/13)
        assert split_guarantees(n1, n2, C13)["delete-both"] == 2
        assert sp.strategy == "delete-both"
        subs, merged = split_subproblems(graph_stacked, sp)
        assert len(subs) == 2 and merged == ()
        solved = [frozenset(mis.mis_exact(sub)) for sub in subs]
        out = split_combine(graph_stacked, sp, solved, merged)
        assert mis.verify_independent(graph_stacked, out)
        assert len(out) == 2 == mis.alpha(graph_stacked)

    @pytest.mark.parametrize(
        "n1,n2,strategy",
        [
            (12, 12, "delete-both"),
            (16, 14, "hub1"),
            (14, 16, "hub2"),
            (15, 15, "edge-pairs"),
        ],
    )
    def test_subinstances_cut_from_the_split_graph(self, n1, n2, strategy, monkeypatch):
        # each sub-instance is one derived graph of the split graph, the same
        # as a side graph edited once more, and its ceil(c*n), which the
        # walk checks, is a term of the chosen strategy's guarantee
        g = glued_pair(n1, n2)
        made = []

        def counted(method):
            def wrapper(self, *args, **kwargs):
                made.append(method.__name__)
                return method(self, *args, **kwargs)
            return wrapper

        for name in ("__init__", "_edit"):  # every graph is one or the other
            monkeypatch.setattr(EmbeddedGraph, name, counted(getattr(EmbeddedGraph, name)))
        sp = split_plan(g, separating_triangles(g)[0], C13)
        subs, merged = split_subproblems(g, sp)
        monkeypatch.undo()
        assert sp.strategy == strategy
        assert len(made) == len(subs)  # split_plan builds no graph

        tri = set(sp.triangle)
        x1, x2, x3 = sp.triangle
        ns = (len(sp.side1) - 3, len(sp.side2) - 3)
        sides = (g.subgraph(sp.side1), g.subgraph(sp.side2))
        if strategy == "delete-both":
            want = [(side.delete_set(tri), None) for side in sides]
            floors = [C13.ceil_mul(n) for n in ns]
        elif strategy in ("hub1", "hub2"):
            hub, full = (0, 1) if strategy == "hub1" else (1, 0)
            want = [sides[hub].contract_set(tri), (sides[full], None)]
            floors = [C13.ceil_mul(ns[hub] + 1), C13.ceil_mul(ns[full] + 3)]
        else:
            want = [side.contract_set({x1, xt}) for side in sides for xt in (x2, x3)]
            floors = [C13.ceil_mul(n + 2) for n in ns for _ in (x2, x3)]
        assert tuple(m for _, m in want if m is not None) == merged
        for sub, (h, _), floor in zip(subs, want, floors, strict=True):
            assert {v: sub.rotation(v) for v in sub.vertices} == {
                v: h.rotation(v) for v in h.vertices
            }
            assert (sub.next_id, sub.m, sub._face_stats()) == (
                h.next_id, h.m, h._face_stats())
            assert_same_as_fresh(sub)
            assert C13.ceil_mul(sub.n) == floor
        # the guarantee adds up these contracts, one sub-instance a side for
        # edge-pairs, less the vertex that two of them may share
        terms = floors[::2] if strategy == "edge-pairs" else floors
        shared = strategy != "delete-both"
        assert split_guarantees(*ns, C13)[strategy] == sum(terms) - shared

    def test_residue_table_invariants(self):
        for n1 in range(1, 30):
            for n2 in range(1, 30):
                # synthetic: residues must match the defining congruence
                for j in range(4):
                    k = ((C13.a * (n1 + j) - 1) % C13.b) + 1
                    assert 1 <= k <= C13.b
                    assert (k - C13.a * (n1 + j)) % C13.b == 0

    def test_not_separating_rejected(self, ico):
        with pytest.raises(PlanRejected):
            split_plan(ico, tuple(sorted((1,) + ico.rotation(1)[:2])), C13)

    def test_guarantee_small_sweep(self):
        for n1 in range(1, 60):
            for n2 in range(1, 60):
                best = max(split_guarantees(n1, n2, C13).values())
                assert best >= C13.ceil_mul(n1 + n2 + 3), (n1, n2)

    def test_split_on_generated_triangulation(self):
        g = generate(GenSpec(seed=5, n=40))
        tris = separating_triangles(g)
        assert tris
        sp = split_plan(g, tris[0], C13)
        assert len(sp.side1 | sp.side2) == g.n
        assert len(sp.side1 & sp.side2) == 3


class TestPlanner:
    def test_planner_yields_preferred_k_first(self, graph_cube):
        # a cube vertex and its antipode: |N(J)| = 6 allows slack k = 0 and
        # k = 1 at 3/13, and a plan has t = |J| - k parts
        near = {1} | graph_cube.neighbors(1)
        (far,) = set(graph_cube.vertices) - near - {
            u for v in near for u in graph_cube.neighbors(v)
        }
        for preferred_k, ts in ((0, [2, 1, 1]), (1, [1, 1, 2])):
            plans = list(
                plans_for_independent_set(graph_cube, (1, far), C13, preferred_k)
            )
            assert [len(p.parts) for p in plans] == ts
        g = flagged(4, 70)
        for m in iter_configs(g):
            plans = list(itertools.islice(candidate_plans(g, m, C13), 8))
            if not plans:
                continue
            for p in plans:
                assert p.s >= set(m.j)
                for part in p.parts:
                    assert part <= p.s
            break

    def test_interior(self, ico):
        s = frozenset({1}) | ico.neighbors(1)
        inner = interior(ico, s)
        assert 1 in inner
        assert all(ico.neighbors(v) <= s for v in inner)
