import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from pig.discharge import (
    _BAD_LINK,
    UNIT,
    DischargeError,
    NeighborProfile,
    _profile,
    initial_charges,
    main_phases,
    negative_vertices,
    run_main,
    run_warmup,
)
from pig.configs import iter_configs
from pig.generate import GenSpec, generate
from pig.graph import icosahedron, separating_triangles

from conftest import drum, neighbor_cycle, replay_ledger, seven_ring_fixture, subdivide

F = Fraction


def classify(g, v) -> NeighborProfile:
    # the link of v is an induced cycle; in a triangulation that holds iff
    # every edge at v has exactly two common neighbors
    nv = g.neighbors(v)
    if any(len(nv & g.neighbors(u)) != 2 for u in nv):
        raise DischargeError(_BAD_LINK.format(v))
    return _profile(g, v)


def flagged(seed, n):
    return generate(
        GenSpec(seed=seed, n=n, min_degree5=True, no_separating_triangle=True)
    )


class TestInitial:
    def test_icosahedron(self, ico):
        cs = initial_charges(ico)
        assert set(cs.charge.values()) == {F(-1)}
        assert cs.total() == F(-12)

    def test_degree_formula(self):
        g = flagged(3, 40)
        cs = initial_charges(g)
        for v in g.vertices:
            assert cs.charge[v] == g.degree(v) - 6
        assert cs.total() == 2 * g.m - 6 * g.n == -12


class TestClassify:
    def test_six_neighbors_never_crowded(self):
        g = flagged(2, 80)
        for v in g.vertices:
            prof = classify(g, v)
            assert all(g.degree(u) == 5 for u in prof.crowded)
            assert all(g.degree(u) == 5 for u in prof.plain)

    def test_partition(self):
        g = flagged(5, 90)
        for v in g.vertices:
            prof = classify(g, v)
            fives = set(prof.fives)
            crowded5 = set(prof.crowded)
            isolated5 = {u for u in prof.isolated if g.degree(u) == 5}
            plain5 = set(prof.plain)
            assert crowded5 | isolated5 | plain5 == fives
            assert not (crowded5 & isolated5)
            assert not (crowded5 & plain5)
            assert not (isolated5 & plain5)

    def test_crowded_matches_definition(self):
        # crowded = 5-neighbor flanked by two 6-vertices in the rotation ring
        hits = 0
        for seed in range(8):
            g = flagged(seed, 70)
            for v in g.vertices:
                prof = classify(g, v)
                ring = g.rotation(v)
                k = len(ring)
                for i, u in enumerate(ring):
                    left, right = ring[i - 1], ring[(i + 1) % k]
                    should = (
                        g.degree(u) == 5
                        and g.degree(left) == 6
                        and g.degree(right) == 6
                    )
                    assert (u in prof.crowded) == should
                    if should and g.degree(v) == 7:
                        hits += 1
        assert hits > 0  # the 7-vertex-with-crowded-5 pattern was exercised

    def test_isolated_matches_definition(self):
        g = flagged(1, 60)
        for v in g.vertices:
            prof = classify(g, v)
            ring = g.rotation(v)
            k = len(ring)
            low = {u for u in ring if g.degree(u) <= 6}
            for i, u in enumerate(ring):
                if u in low:
                    flanks_low = {ring[i - 1], ring[(i + 1) % k]} & low
                    assert (u in prof.isolated) == (not flanks_low)

    def test_h_counts_at_most_two(self):
        g = flagged(4, 100)
        for v in g.vertices:
            prof = classify(g, v)
            for w, h in prof.h.items():
                assert 0 <= h <= 2
                assert g.degree(w) <= 6

    def test_rejects_separating_triangle_structure(self, graph_stacked):
        with pytest.raises(DischargeError):
            classify(graph_stacked, 1)


class TestWarmupCases:
    """Neighborhood scenarios reproduce the tight per-class charges."""

    SCENARIOS = {
        "(5,0)": dict(d=5, n5=0, n6=5, n7=0, expect=F(3, 7)),
        "(5,1)": dict(d=5, n5=1, n6=2, n7=2, expect=F(5, 21)),
        "(5,2)": dict(d=5, n5=2, n6=0, n7=3, expect=F(0)),
        "(6,1)": dict(d=6, n5=1, n6=3, n7=2, expect=F(0)),
        "(6,2)": dict(d=6, n5=2, n6=0, n7=4, expect=F(0)),
        "(7,1)": dict(d=7, n5=1, n6=4, n7=2, six5=4, expect=F(2, 21)),
        "(7,2)": dict(d=7, n5=2, n6=2, n7=3, six5=2, expect=F(1, 21)),
        "(7,3)": dict(d=7, n5=3, n6=0, n7=4, expect=F(0)),
        "(8,4)": dict(d=8, n5=4, n6=4, n7=0, six5=4, expect=F(2, 21)),
    }
    # deterministic corpus locations found by scenario scan
    SEEDS = [(1, 70), (7, 250), (8, 280), (9, 310), (11, 70), (18, 280), (34, 160)]

    @staticmethod
    def _matches(g, deg, v, want):
        ns = g.rotation(v)
        c5 = sum(1 for u in ns if deg[u] == 5)
        c6 = sum(1 for u in ns if deg[u] == 6)
        c7 = sum(1 for u in ns if deg[u] >= 7)
        if (deg[v], c5, c6, c7) != (want["d"], want["n5"], want["n6"], want["n7"]):
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

    def test_case_table(self):
        remaining = dict(self.SCENARIOS)
        for seed, n in self.SEEDS:
            if not remaining:
                break
            g = flagged(seed, n)
            deg = {v: g.degree(v) for v in g.vertices}
            w = run_warmup(g)
            for key in list(remaining):
                want = remaining[key]
                for v in g.vertices:
                    if self._matches(g, deg, v, want):
                        assert w.charge[v] == want["expect"], (key, seed, v)
                        del remaining[key]
                        break
        assert not remaining, f"scenarios not located: {sorted(remaining)}"

    def test_six_zero_always_zero(self):
        g = flagged(6, 120)
        w = run_warmup(g)
        for v in g.vertices:
            if g.degree(v) == 6 and not any(
                g.degree(u) == 5 for u in g.rotation(v)
            ):
                assert w.charge[v] == 0

    def test_seven_zero_fixture(self):
        g = seven_ring_fixture()
        assert g.min_degree() == 5 and not separating_triangles(g)
        center = 1
        assert g.degree(center) == 7
        assert all(g.degree(u) == 6 for u in g.rotation(center))
        w = run_warmup(g)
        assert w.charge[center] == 0

    def test_nine_plus_lower_bound(self):
        # a 9⁺-vertex never gives more than a third per neighbor
        found = 0
        for seed in range(12):
            g = flagged(seed + 40, 200)
            w = run_warmup(g)
            for v in g.vertices:
                d = g.degree(v)
                if d >= 9:
                    assert w.charge[v] >= F(2 * (d - 9), 3)
                    found += 1
        assert found


class TestConservation:
    def test_warmup_sum(self):
        for seed in range(5):
            g = flagged(seed, 30 + 20 * seed)
            assert run_warmup(g).total() == -12

    def test_main_all_phases(self):
        for seed in range(5):
            g = flagged(seed + 10, 40 + 25 * seed)
            init, s1, s2, s3 = main_phases(g)
            assert init.total() == s1.total() == s2.total() == s3.total() == -12

    def test_ledger_replay(self):
        g = flagged(3, 75)
        init, s1, s2, s3 = main_phases(g)
        assert replay_ledger(s3, init) == dict(s3.charge)
        assert replay_ledger(s1, init) == dict(s1.charge)
        w = run_warmup(g)
        assert replay_ledger(w, init) == dict(w.charge)

    def test_ledger_amounts_positive(self):
        g = flagged(8, 64)
        for t in main_phases(g)[-1].ledger:
            assert t.amount > 0


class TestMainRules:
    def test_eight_plus_transfer_amounts(self):
        # an 8⁺-vertex sends each 6⁻-neighbor w exactly 1/4 + h_w/8
        seen = set()
        for seed in range(10):
            g = flagged(seed + 20, 150)
            _, s1, _, _ = main_phases(g)
            sent = {}
            for t in s1.ledger:
                if t.rule == "M2":
                    sent[(t.giver, t.receiver)] = t.amount
            for v in g.vertices:
                if g.degree(v) < 8:
                    continue
                prof = classify(g, v)
                for w, h in prof.h.items():
                    assert sent[(v, w)] == F(1, 4) + F(h, 8)
                    seen.add(h)
        assert 2 in seen  # the 1/4 + 2/8 = 1/2 case appeared

    def test_seven_vertex_five_neighbor_amounts(self):
        kinds = set()
        for seed in range(12):
            g = flagged(seed + 30, 130)
            _, s1, _, _ = main_phases(g)
            sent = {}
            for t in s1.ledger:
                if t.rule == "M3":
                    sent[(t.giver, t.receiver)] = t.amount
            for v in g.vertices:
                if g.degree(v) != 7:
                    continue
                prof = classify(g, v)
                for u in prof.fives:
                    if u in prof.isolated:
                        assert sent[(v, u)] == F(1, 2)
                        kinds.add("isolated")
                    elif u in prof.crowded:
                        assert (v, u) not in sent
                        kinds.add("crowded")
                    else:
                        assert sent[(v, u)] == F(1, 4)
                        kinds.add("plain")
        assert kinds == {"isolated", "crowded", "plain"}

    def test_r4_only_from_positive_fives_to_half_givers(self):
        g = flagged(9, 140)
        init, s1, s2, s3 = main_phases(g)
        half_from = {}
        for t in s1.ledger:
            if t.rule == "M1" and t.amount == F(1, 2):
                half_from.setdefault(t.receiver, set()).add(t.giver)
        for t in s3.ledger:
            if t.rule == "M4":
                assert g.degree(t.giver) == 5
                assert s1.charge[t.giver] > 0
                assert t.receiver in half_from[t.giver]

    def test_r5_recipients_negative_sixes(self):
        g = flagged(12, 160)
        init, s1, s2, s3 = main_phases(g)
        for t in s3.ledger:
            if t.rule == "M5":
                assert g.degree(t.giver) == 6 and g.degree(t.receiver) == 6
                assert s2.charge[t.giver] > 0
                assert s2.charge[t.receiver] < 0

    def test_zero_charge_senders_keep_it(self):
        # vertices at exactly zero send nothing in the late passes
        g = flagged(14, 120)
        init, s1, s2, s3 = main_phases(g)
        zero_fives = {
            v for v in g.vertices if g.degree(v) == 5 and s1.charge[v] == 0
        }
        zero_sixes = {
            v for v in g.vertices if g.degree(v) == 6 and s2.charge[v] == 0
        }
        for t in s3.ledger:
            if t.rule == "M4":
                assert t.giver not in zero_fives
            if t.rule == "M5":
                assert t.giver not in zero_sixes


class TestMainCaseConsequences:
    def test_across_fives_with_four_seven_plus_finish_nonnegative(self):
        # a 6-vertex whose two 5-neighbors are joined by four 7⁺-neighbors
        # gets four quarters and gives at most two halves, so it ends >= 0
        hits = 0
        for seed in range(14):
            g = flagged(seed + 60, 150)
            final = main_phases(g)[-1]
            for v in g.vertices:
                if g.degree(v) != 6:
                    continue
                ring = g.rotation(v)
                fives = [u for u in ring if g.degree(u) == 5]
                if len(fives) != 2:
                    continue
                if all(g.degree(u) >= 7 for u in ring if u not in fives):
                    assert final.charge[v] >= 0, (seed, v)
                    hits += 1
        assert hits > 0


class TestNegativeVertices:
    def test_initial_icosahedron(self, ico):
        assert negative_vertices(initial_charges(ico).charge) == list(ico.vertices)

    def test_synthetic_single_negative(self):
        from fractions import Fraction

        from pig.discharge import ChargeState

        cs = ChargeState(
            "x", {1: Fraction(0), 2: Fraction(-12), 3: Fraction(0)}, ()
        )
        assert negative_vertices(cs.charge) == [2]
        assert negative_vertices({3: 0, 2: -1, 1: 5}) == [2]

    def test_sorted_and_negative(self):
        g = flagged(2, 90)
        cs = main_phases(g)[-1]
        neg = negative_vertices(cs.charge)
        assert neg == sorted(neg)
        assert all(cs.charge[v] < 0 for v in neg)
        assert neg  # total is -12, someone is negative

    def test_run_main_gives_the_final_charges_in_units(self):
        # the planner's integer charges are the final state's Fractions
        # counted in units of 1/UNIT, so both give one negative set
        for g in (flagged(2, 90), flagged(5, 150), drum(20)):
            final = main_phases(g)[-1]
            charge = run_main(g)
            assert all(type(c) is int for c in charge.values())
            assert {v: F(c, UNIT) for v, c in charge.items()} == final.charge
            assert negative_vertices(charge) == negative_vertices(final.charge)

    def test_preconditions(self):
        g = generate(GenSpec(seed=0, n=30))  # has low-degree vertices
        with pytest.raises(DischargeError):
            run_warmup(g)


def precondition_graph(name):
    from conftest import cube, glued_pair, octahedron, stacked_k4s

    if name == "glued-16-14":
        return glued_pair(16, 14)
    return {"stacked-k4s": stacked_k4s, "cube": cube,
            "octahedron": octahedron}[name]()


class TestPreconditions:
    """Inputs outside the rules raise ``DischargeError``; the main rules also
    need every link to be an induced cycle, checked edge by edge."""

    @staticmethod
    def first_bad_link(g):
        bad = [v for v in g.vertices if not neighbor_cycle(g, v).is_induced_cycle]
        return bad[0] if bad else None

    @pytest.mark.parametrize("name, message", [
        ("stacked-k4s", "minimum degree 5"),
        ("glued-16-14", "is not an induced cycle"),
        ("cube", "need a triangulation"),
        ("octahedron", "minimum degree 5"),
    ])
    def test_main_rules_reject(self, name, message):
        g = precondition_graph(name)
        for rules in (main_phases, run_main):
            with pytest.raises(DischargeError, match=message):
                rules(g)

    def test_glued_pair_names_the_first_bad_link(self):
        g = precondition_graph("glued-16-14")
        v = self.first_bad_link(g)
        assert v is not None and g.min_degree() == 5
        with pytest.raises(DischargeError, match=f"neighborhood of {v} is"):
            run_main(g)
        # the warmup rules read no link and accept the glued pair
        assert run_warmup(g).total() == -12

    def test_link_check_matches_neighbor_cycles(self):
        # min degree 5 with separating triangles allowed: the edge check
        # rejects exactly the graphs with a non-induced link, naming the
        # same first vertex
        from conftest import glued_pair

        graphs = [
            generate(GenSpec(seed=seed, n=40, min_degree5=True))
            for seed in range(12)
        ] + [glued_pair(15 + s, 14 + s, s, s + 5) for s in range(4)]
        rejected = 0
        for g in graphs:
            v = self.first_bad_link(g)
            if v is None:
                run_main(g)
                continue
            rejected += 1
            with pytest.raises(DischargeError, match=f"neighborhood of {v} is"):
                run_main(g)
        assert rejected == 5

    @pytest.mark.parametrize(
        "name", ["stacked-k4s", "glued-16-14", "cube", "octahedron"]
    )
    def test_cli_exits_2_with_one_line(self, name, tmp_path, capsys):
        from pig.cli import main

        path = tmp_path / f"{name}.rot"
        path.write_text(precondition_graph(name).serialize())
        assert main(["discharge", str(path), "--rules", "main"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: ")


# -- pinned charges and ledgers -------------------------------------------------
#
# ``data/discharge_golden.json`` holds, for each input below, every phase's
# charges and the full ledger of ``main_phases`` and ``run_warmup``, plus the
# ``pig discharge --rules main --json`` output for ``CLI_INPUT``.  They were
# recorded before the rules moved to integer arithmetic and change only on
# purpose; to re-record, run ``PYTHONPATH=src python tests/test_discharge.py``
# from the repo root and say in the change log why they moved.

DISCHARGE_GOLDEN = Path(__file__).parent / "data" / "discharge_golden.json"
GOLDEN_INPUTS = (
    ("icosahedron", "geodesic-1", "geodesic-2", "drum-20")
    + tuple(f"flagged-s{s}-n{n}" for n in (60, 120) for s in range(4))
)
CLI_INPUT = "flagged-s0-n60"


def golden_graph(name):
    from conftest import drum, subdivide
    from pig.graph import icosahedron

    kind, _, rest = name.partition("-")
    if kind == "icosahedron":
        return icosahedron()
    if kind == "geodesic":
        g = icosahedron()
        for _ in range(int(rest)):
            g = subdivide(g)
        return g
    if kind == "drum":
        return drum(int(rest))
    seed, n = rest.split("-")
    return flagged(int(seed[1:]), int(n[1:]))


def _state(cs):
    return {
        "phase": cs.phase,
        "charge": {str(v): str(c) for v, c in sorted(cs.charge.items())},
    }


def _ledger(cs):
    return [[t.giver, t.receiver, str(t.amount), t.rule] for t in cs.ledger]


def golden_snapshot(name):
    g = golden_graph(name)
    phases = main_phases(g)
    warm = run_warmup(g)
    return {
        "main": [_state(cs) for cs in phases],
        "main_ledgers": [_ledger(cs) for cs in phases],
        "warmup": _state(warm),
        "warmup_ledger": _ledger(warm),
    }


def golden_cli_output(tmp_dir):
    from pig.cli import main

    path = Path(tmp_dir) / f"{CLI_INPUT}.rot"
    path.write_text(golden_graph(CLI_INPUT).serialize())
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["discharge", str(path), "--rules", "main", "--json"]) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def discharge_golden():
    return json.loads(DISCHARGE_GOLDEN.read_text())


@pytest.mark.parametrize("name", GOLDEN_INPUTS)
def test_pinned_charges_and_ledgers(name, discharge_golden):
    assert golden_snapshot(name) == discharge_golden["inputs"][name]


def test_pinned_cli_json(tmp_path, discharge_golden):
    assert golden_cli_output(tmp_path) == discharge_golden["cli"][CLI_INPUT]


def lemma_graphs():
    """The flagged corpus of the locality lemma, each graph with its name."""
    for seed in range(12):
        for n in (60, 90, 120):
            yield f"flagged seed={seed} n={n}", flagged(seed, n)
    g = icosahedron()
    for level in (1, 2, 3):
        g = subdivide(g)
        yield f"geodesic levels={level}", g
    for rings in (8, 20, 60):
        yield f"drum rings={rings}", drum(rings)


def test_negative_vertices_lie_on_catalog_matches():
    # the locality lemma: a vertex the main rules leave negative is an end
    # (u or v) of an apex_pair edge or the centre of a low_trio_star6 match
    graphs = negatives = 0
    for name, g in lemma_graphs():
        covered = set()
        for m in iter_configs(g):
            roles = dict(m.roles)
            covered |= {roles["u"], roles["v"]} if m.kind == "apex_pair" else {roles["center"]}
        for v in negative_vertices(run_main(g)):
            assert v in covered, f"{name}: negative vertex {v} on no match, {_profile(g, v)}"
            negatives += 1
        graphs += 1
    assert (graphs, negatives) == (42, 2080)


if __name__ == "__main__":
    import sys
    import tempfile

    sys.path.insert(0, str(Path(__file__).parent))
    with tempfile.TemporaryDirectory() as tmp:
        cli = golden_cli_output(tmp)
    payload = {
        "inputs": {name: golden_snapshot(name) for name in GOLDEN_INPUTS},
        "cli": {CLI_INPUT: cli},
    }
    DISCHARGE_GOLDEN.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    print(f"wrote {len(GOLDEN_INPUTS)} inputs to {DISCHARGE_GOLDEN}")
