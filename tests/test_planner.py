"""The catalog planner's path: what ``extract._certified_config_plan``
reads of discharging and of the detector catalog.

The planner reads only the signs of the main rules' final charges, which
``run_main`` gives as integers, and scans the catalog in the windows
around the negative ones before the whole graph.  These tests wrap
functions from outside the package and compare, at every catalog step,
with the ``Fraction`` states of ``main_phases`` and with a detector that
reads each edge's apexes through ``g.apexes``.
"""

import importlib
from pathlib import Path

import pytest

from pig.configs import ConfigurationMatch, ball, detect_apex_pair
from pig.discharge import DischargeError, main_phases, negative_vertices
from pig.graph import icosahedron
from pig.reduce import Ratio

from conftest import cube, glued_pair, octahedron, subdivide

engine = importlib.import_module("pig.extract")
discharge = importlib.import_module("pig.discharge")

C13 = Ratio(3, 13)


def flagged_mix(monkeypatch):
    """The benchmark's flagged-mix recipes, full pool then tiny pool."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    return [inp.build() for tiny in (False, True)
            for inp in workloads.inputs("flagged-mix", 0, tiny)]


def reference_apex_pairs(g, within=None):
    """``detect_apex_pair`` with each edge's apexes looked up by
    ``g.apexes`` and the adjacency test made per orientation."""
    us = g.vertices if within is None else sorted(v for v in within if g.has_vertex(v))
    for u in us:
        for v in g.rotation(u):
            if v < u:
                continue
            a, b = g.apexes(u, v)
            for w, x in ((a, b), (b, a)):
                if w == x or g.adjacent(w, x):
                    continue
                if g.degree(w) == 5 and g.degree(x) <= 6:
                    yield ConfigurationMatch(
                        "apex_pair", (("u", u), ("v", v), ("w", w), ("x", x)),
                        j=tuple(sorted((w, x))), preferred_k=0,
                    )
                    break


def test_catalog_steps_build_no_ledger(monkeypatch):
    # the planner reads integer charges: extracting the six flagged-mix
    # recipes builds no Transfer and no ChargeState list (the ledger path
    # built 7,322 and 62), while ``pig discharge``'s path still does
    made = {"Transfer": 0, "_states": 0}

    def counting(name):
        original = getattr(discharge, name)

        def wrapper(*args, **kwargs):
            made[name] += 1
            return original(*args, **kwargs)
        return wrapper

    graphs = flagged_mix(monkeypatch)[:6]
    steps = []
    run_main = engine.run_main
    monkeypatch.setattr(engine, "run_main", lambda g: steps.append(g.n) or run_main(g))
    for name in made:
        monkeypatch.setattr(discharge, name, counting(name))
    for g in graphs:
        engine.extract(g, C13)
    assert len(steps) == 62 and made == {"Transfer": 0, "_states": 0}
    main_phases(graphs[0])
    assert made["_states"] == 1 and made["Transfer"] > 0


def test_planner_reads_the_main_rules_negative_set(monkeypatch):
    # at every catalog step the integer charges give the negative set of
    # the Fraction final state, and the apex-pair scan, windowed and whole,
    # yields what the apexes-based reference yields; the two pools hold
    # geodesic levels 1-3
    graphs = flagged_mix(monkeypatch)
    seen = {"steps": 0, "negative": 0, "matches": 0}
    run_main = engine.run_main

    def checked(g):
        charge = run_main(g)
        neg = negative_vertices(charge)
        assert neg == negative_vertices(main_phases(g)[-1].charge)
        window = ball(g, neg, 2)
        for scope in (window, None):
            got = list(detect_apex_pair(g, scope))
            assert got == list(reference_apex_pairs(g, scope))
            seen["matches"] += len(got)
        seen["steps"] += 1
        seen["negative"] += len(neg)
        return charge

    monkeypatch.setattr(engine, "run_main", checked)
    for g in graphs:
        engine.extract(g, C13)
    assert seen == {"steps": 63, "negative": 3721, "matches": 11792}


class Stop(Exception):
    pass


@pytest.mark.parametrize("name, message", [
    ("octahedron", "minimum degree 5"),
    ("cube", "need a triangulation"),
    ("glued-16-14", "is not an induced cycle"),
])
def test_rejected_discharge_sends_the_planner_to_the_global_scope(
        name, message, monkeypatch):
    g = {"octahedron": octahedron, "cube": cube,
         "glued-16-14": lambda: glued_pair(16, 14)}[name]()
    with pytest.raises(DischargeError, match=message):
        engine.run_main(g)
    scopes = []

    def first_scope(g, scope):
        scopes.append(scope)
        raise Stop
    monkeypatch.setattr(engine, "iter_configs", first_scope)
    with pytest.raises(Stop):
        engine._certified_config_plan(g, C13)
    assert scopes == [None]


def test_windows_come_first_on_a_flagged_graph(monkeypatch):
    g = subdivide(icosahedron())
    scopes = []

    def first_scope(g, scope):
        scopes.append(scope)
        raise Stop
    monkeypatch.setattr(engine, "iter_configs", first_scope)
    with pytest.raises(Stop):
        engine._certified_config_plan(g, C13)
    assert scopes == [ball(g, negative_vertices(engine.run_main(g)), 2)]


def test_geodesic_level_2_stops_at_4_17(monkeypatch):
    # the one input that drives the planner through the windows, the global
    # scope and the last-resort sweep, windowed and whole, and still finds
    # no certified reduction
    g = subdivide(subdivide(icosahedron()))
    calls = {"iter_configs": [], "tight_sets": []}
    for name, scopes in calls.items():
        original = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda g, scope, original=original,
                            scopes=scopes: scopes.append(scope) or original(g, scope))
    with pytest.raises(engine.IncompletenessDiagnostic) as info:
        engine.extract(g, Ratio(4, 17))
    assert str(info.value) == "no certified reduction on n=162 triangulation at ratio 4/17"
    window, whole = calls["iter_configs"][-2:]
    assert window and whole is None
    assert calls["tight_sets"][-2:] == [window, frozenset(range(1, 163))]
