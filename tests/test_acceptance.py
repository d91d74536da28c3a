"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance here is
exact (rational arithmetic or integer comparisons); runtime budgets are
asserted for the timed criteria.
"""

import importlib
import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from pig import mis
from pig.configs import detect_apex_pair
from pig.discharge import main_phases, run_warmup
from pig.extract import (
    IncompletenessDiagnostic,
    check_certificate,
    extract,
    next_step,
)
from pig.generate import GenSpec, generate
from pig.graph import EmbeddedGraph
from pig.reduce import (
    Ratio,
    ReductionPlan,
    interior,
    split_guarantees,
)

from conftest import k4, seven_ring_fixture, verify_match

C13 = Ratio(3, 13)
C5 = Ratio(1, 5)
ARTIFACTS = Path(__file__).parent / "_artifacts"


def neighborhood_floor(j: int, c: Ratio) -> int:
    """Least joint-neighborhood size a non-maximal independent j-set can
    have in a graph with no reduction at ratio c: floor((b-a)/a * j) + 2."""
    if j < 1:
        raise ValueError("set size must be >= 1")
    return (c.b - c.a) * j // c.a + 2


def report(num, name, t0, extra=""):
    dt = time.perf_counter() - t0
    print(f"\nACCEPTANCE {num} {name}: PASS ({dt:.1f}s){' ' + extra if extra else ''}")


def archive(tag, text):
    ARTIFACTS.mkdir(exist_ok=True)
    path = ARTIFACTS / f"{tag}.rot"
    path.write_text(text)
    return path


def skewed_sizes(count, lo, hi, power=3.0):
    return [lo + int((hi - lo) * (i / (count - 1)) ** power) for i in range(count)]


def flagged_size(n):
    # min-degree-5 triangulations exist only at n = 12 and n >= 14
    return 12 if n <= 12 else max(14, n)


def sparsify(g, seed, frac):
    rng = random.Random(seed)
    rot = {v: list(g.rotation(v)) for v in g.vertices}
    edges = g.edges()
    rng.shuffle(edges)
    for u, v in edges[: int(len(edges) * frac)]:
        rot[u].remove(v)
        rot[v].remove(u)
    return EmbeddedGraph(rot)


@pytest.fixture(scope="module")
def main_corpus():
    """Criterion-4 corpus: 200 planar graphs, mixed triangulated and not,
    n from 4 to 1000, deterministic."""
    graphs = []
    sizes = skewed_sizes(120, 4, 1000)
    for i, n in enumerate(sizes):
        graphs.append((f"plain-{i}", generate(GenSpec(seed=i, n=max(4, n)))))
    for i, n in enumerate(skewed_sizes(40, 10, 500)):
        g = generate(GenSpec(seed=1000 + i, n=max(4, n)))
        graphs.append((f"sparse-{i}", sparsify(g, i, 0.1 + (i % 4) * 0.08)))
    for i, n in enumerate(skewed_sizes(40, 12, 400)):
        graphs.append(
            (
                f"flag-{i}",
                generate(
                    GenSpec(
                        seed=2000 + i,
                        n=flagged_size(n),
                        min_degree5=True,
                        no_separating_triangle=True,
                    )
                ),
            )
        )
    assert len(graphs) == 200
    return graphs


_timings: dict[str, float] = {}


@pytest.fixture(scope="module")
def main_corpus_certificates(main_corpus):
    t0 = time.perf_counter()
    out = []
    for tag, g in main_corpus:
        try:
            out.append((tag, g, extract(g, C13)))
        except IncompletenessDiagnostic as exc:
            path = archive(tag, exc.graph_text)
            pytest.fail(f"diagnostic on {tag} (archived at {path})")
    _timings["extract-200"] = time.perf_counter() - t0
    return out


def test_criterion_1_charge_conservation():
    t0 = time.perf_counter()
    count = 0
    for i, n in enumerate(skewed_sizes(200, 12, 500)):
        g = generate(
            GenSpec(
                seed=i, n=flagged_size(n),
                min_degree5=True, no_separating_triangle=True,
            )
        )
        target = Fraction(2 * g.m - 6 * g.n)
        assert target == -12
        init, s1, s2, s3 = main_phases(g)
        assert init.total() == target
        assert s1.total() == target
        assert s2.total() == target
        assert s3.total() == target
        assert run_warmup(g).total() == target
        count += 1
    dt = time.perf_counter() - t0
    assert count == 200
    assert dt < 10, f"criterion 1 exceeded budget: {dt:.1f}s"
    report(1, "charge conservation (exact, 200 graphs)", t0)


def test_criterion_2_case_table():
    t0 = time.perf_counter()
    F = Fraction
    scenarios = {
        "(5,0)": dict(d=5, n5=0, n6=5, n7=0, expect=F(3, 7)),
        "(5,1)": dict(d=5, n5=1, n6=2, n7=2, expect=F(5, 21)),
        "(5,2)": dict(d=5, n5=2, n6=0, n7=3, expect=F(0)),
        "(6,0)": dict(d=6, n5=0, n6=None, n7=None, expect=F(0)),
        "(6,1)": dict(d=6, n5=1, n6=3, n7=2, expect=F(0)),
        "(6,2)": dict(d=6, n5=2, n6=0, n7=4, expect=F(0)),
        "(7,1)": dict(d=7, n5=1, n6=4, n7=2, six5=4, expect=F(2, 21)),
        "(7,2)": dict(d=7, n5=2, n6=2, n7=3, six5=2, expect=F(1, 21)),
        "(7,3)": dict(d=7, n5=3, n6=0, n7=4, expect=F(0)),
        "(8,4)": dict(d=8, n5=4, n6=4, n7=0, six5=4, expect=F(2, 21)),
    }

    def matches(g, deg, v, want):
        ns = g.rotation(v)
        c5 = sum(1 for u in ns if deg[u] == 5)
        c6 = sum(1 for u in ns if deg[u] == 6)
        c7 = sum(1 for u in ns if deg[u] >= 7)
        if deg[v] != want["d"] or c5 != want["n5"]:
            return False
        if want["n6"] is not None and c6 != want["n6"]:
            return False
        if want["n7"] is not None and c7 != want["n7"]:
            return False
        if "six5" in want:
            k = sum(
                1
                for u in ns
                if deg[u] == 6 and any(deg[x] == 5 for x in g.rotation(u))
            )
            if k != want["six5"]:
                return False
        return True

    remaining = dict(scenarios)
    checked = 0
    for seed, n in [(1, 70), (7, 250), (8, 280), (9, 310), (11, 70),
                    (18, 280), (34, 160), (3, 120), (5, 200)]:
        if not remaining:
            break
        g = generate(
            GenSpec(seed=seed, n=n, min_degree5=True, no_separating_triangle=True)
        )
        deg = {v: g.degree(v) for v in g.vertices}
        w = run_warmup(g)
        for key in list(remaining):
            for v in g.vertices:
                if matches(g, deg, v, remaining[key]):
                    assert w.charge[v] == remaining[key]["expect"], (key, seed, v)
                    del remaining[key]
                    checked += 1
                    break
    # the all-six ring around a 7-vertex does not arise in the random
    # corpus; its constructed fixture realizes the (7,0) equality
    g = seven_ring_fixture()
    w = run_warmup(g)
    assert g.degree(1) == 7
    assert all(g.degree(u) == 6 for u in g.rotation(1))
    assert w.charge[1] == F(0)
    checked += 1
    assert not remaining, f"unrealized cases: {sorted(remaining)}"
    report(2, f"warmup case table (exact, {checked} classes)", t0)


def test_criterion_3_warmup_unavoidability():
    t0 = time.perf_counter()
    count = 0
    for i, n in enumerate(skewed_sizes(100, 12, 300)):
        g = generate(
            GenSpec(
                seed=100 + i, n=flagged_size(n),
                min_degree5=True, no_separating_triangle=True,
            )
        )
        match = next(detect_apex_pair(g), None)
        assert match is not None, f"no apex pair in seed {100 + i} n={n}"
        assert verify_match(g, match)
        count += 1
    dt = time.perf_counter() - t0
    assert count == 100
    assert dt < 30, f"criterion 3 exceeded budget: {dt:.1f}s"
    report(3, "warmup unavoidability (100/100 graphs)", t0)


def test_criterion_4_main_pipeline_bound(main_corpus_certificates):
    t0 = time.perf_counter()
    for tag, g, cert in main_corpus_certificates:
        assert cert.bound == C13.ceil_mul(g.n)
        assert cert.size >= cert.bound, tag
        assert mis.verify_independent(g, cert.independent_set), tag
    sizes = [g.n for _, g, _ in main_corpus_certificates]
    assert len(sizes) == 200 and min(sizes) >= 4 and max(sizes) >= 900
    spent = _timings["extract-200"] + (time.perf_counter() - t0)
    assert spent < 300, f"criterion 4 exceeded budget: {spent:.1f}s"
    report(
        4,
        "main pipeline bound (200 graphs, zero diagnostics)",
        t0,
        extra=f"max n={max(sizes)}, extraction {spent:.1f}s",
    )


def test_criterion_5_oracle_sandwich():
    t0 = time.perf_counter()
    count = 0
    for i in range(200):
        n = 4 + (i % 19)
        g = generate(GenSpec(seed=300 + i, n=max(4, n)))
        if i % 3 == 1:
            g = sparsify(g, i, 0.2)
        assert g.n <= 22
        cert = extract(g, C13)
        a = mis.alpha(g)
        assert C13.ceil_mul(g.n) <= cert.size <= a, (i, g.n)
        count += 1
    dt = time.perf_counter() - t0
    assert count == 200
    assert dt < 120, f"criterion 5 exceeded budget: {dt:.1f}s"
    report(5, "oracle sandwich (200 graphs, n <= 22)", t0)


def test_criterion_6_neighborhood_floor_table():
    t0 = time.perf_counter()
    assert neighborhood_floor(1, C13) == 5
    assert neighborhood_floor(2, C13) == 8
    assert neighborhood_floor(3, C13) == 12
    report(6, "neighborhood-floor table (exact)", t0)


def test_criterion_7_split_guarantee_sweep():
    t0 = time.perf_counter()
    for n1 in range(1, 201):
        for n2 in range(1, 201):
            best = max(split_guarantees(n1, n2, C13).values())
            assert best >= C13.ceil_mul(n1 + n2 + 3), (n1, n2)
    dt = time.perf_counter() - t0
    assert dt < 5, f"criterion 7 exceeded budget: {dt:.1f}s"
    report(7, "split-guarantee sweep (200x200 exhaustive, exact)", t0)


def _walk_reduce_steps(g, node, c, visit):
    """Replay ``node`` through the step engine, so every sub-instance is
    the graph extraction built, and visit each reduction's graph and plan."""
    step = next_step(g, c, node)
    assert step.op == node["op"]
    if step.op == "reduce":
        summary = node["plan"]
        visit(g, ReductionPlan(
            s=frozenset(summary["S"]),
            parts=tuple(frozenset(p) for p in summary["parts"]),
            ratio=c,
        ))
    kids = [node["child"]] if "child" in node else node.get("children", [])
    assert len(kids) == len(step.subs)
    for sub, kid in zip(step.subs, kids):
        _walk_reduce_steps(sub, kid, c, visit)


def test_criterion_8_certification_exhaustiveness(main_corpus_certificates):
    t0 = time.perf_counter()
    checked_plans = 0
    checked_windows = 0

    def visit(g, plan):
        nonlocal checked_plans, checked_windows
        inside = interior(g, plan.s)
        need = plan.need()
        adj = [
            [
                any(g.neighbors(v) & plan.parts[jj] for v in plan.parts[ii])
                for jj in range(plan.t)
            ]
            for ii in range(plan.t)
        ]
        for size in range(plan.t + 1):
            for chosen in itertools.combinations(range(plan.t), size):
                if any(
                    adj[a][b] for x, a in enumerate(chosen) for b in chosen[x + 1:]
                ):
                    continue
                window = set(inside)
                for i in chosen:
                    window |= plan.parts[i]
                t_set = mis.mis_exact(g, vertices=window)
                assert mis.verify_independent(g, t_set)
                assert len(t_set) >= len(chosen) + need, (sorted(plan.s), chosen)
                checked_windows += 1
        checked_plans += 1

    reduce_nodes = 0
    for tag, g, cert in main_corpus_certificates:
        _walk_reduce_steps(g, cert.root, C13, visit)
        reduce_nodes += sum(entry["op"] == "reduce" for entry in cert.steps)
    dt = time.perf_counter() - t0
    assert checked_plans == reduce_nodes > 0
    assert dt < 300, f"criterion 8 exceeded budget: {dt:.1f}s"
    report(
        8,
        "certification exhaustiveness",
        t0,
        extra=f"{checked_plans} plans, {checked_windows} windows",
    )


PLANNER = ("find_low_degree_plan", "separating_triangles", "run_main", "iter_configs",
           "tight_sets", "candidate_plans", "plans_for_independent_set")


def test_replay_runs_no_planner(main_corpus_certificates, monkeypatch):
    """Replay reads a reduction's plan and a split's triangle from the
    certificate, so it calls no planner function on the criterion-4
    flagged graphs, nor on a glued pair, which needs a split."""
    from conftest import glued_pair

    engine = importlib.import_module("pig.extract")
    glued = glued_pair(16, 14)
    cases = [(g, cert) for tag, g, cert in main_corpus_certificates
             if tag.startswith("flag-")] + [(glued, extract(glued, C13))]
    assert len(cases) == 41 and cases[-1][1].steps[0]["op"] == "split"
    calls = []
    for name in PLANNER:
        monkeypatch.setattr(engine, name, lambda *a, name=name, **k: calls.append(name))
    for g, cert in cases:
        assert check_certificate(g, cert) == (True, "ok")
    assert calls == []


def test_criterion_9_one_fifth_totality():
    t0 = time.perf_counter()
    count = 0
    for i in range(500):
        n = 4 + int(196 * ((i % 125) / 124.0) ** 2)
        g = generate(GenSpec(seed=5000 + i, n=max(4, n)))
        if i % 2:
            g = sparsify(g, i, 0.05 + (i % 7) * 0.05)
        cert = extract(g, C5)
        assert cert.size >= C5.ceil_mul(g.n), i
        assert mis.verify_independent(g, cert.independent_set)
        count += 1
    dt = time.perf_counter() - t0
    assert count == 500
    assert dt < 120, f"criterion 9 exceeded budget: {dt:.1f}s"
    report(9, "1/5-mode totality (500 graphs, zero diagnostics)", t0)


def test_criterion_10_tightness_witnesses(ico):
    t0 = time.perf_counter()
    cert = extract(ico, C13)
    assert cert.bound == 3
    assert cert.size == 3 == mis.alpha(ico)
    ok, reason = check_certificate(ico, cert)
    assert ok, reason

    base = k4()
    rot = {}
    for b in range(5):
        for v in base.vertices:
            rot[v + 4 * b] = tuple(u + 4 * b for u in base.rotation(v))
    unions = EmbeddedGraph(rot)
    cert = extract(unions, C13)
    assert cert.size == 5  # exactly one vertex per K4: ratio 1/4 >= 3/13
    assert cert.bound == C13.ceil_mul(20) == 5
    per_component = [
        len(frozenset(cert.independent_set) & frozenset(range(1 + 4 * b, 5 + 4 * b)))
        for b in range(5)
    ]
    assert per_component == [1] * 5
    report(10, "tightness witnesses (icosahedron, disjoint K4s)", t0)
