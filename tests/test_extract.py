import copy
import importlib
import itertools
import json
import pickle
import random
import string
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import run_corpus, v1_document
from pig import mis
from pig.extract import (
    BASE_EXACT_N,
    Certificate,
    CertificateError,
    IncompletenessDiagnostic,
    check_certificate,
    extract,
)
from pig.generate import GenSpec, generate
from pig.graph import EmbeddedGraph, parse_rotation_graph
from pig.reduce import LiftContext, LiftError, Ratio, split_plan

C13 = Ratio(3, 13)
C5 = Ratio(1, 5)


def sparsify(g, seed, frac):
    rng = random.Random(seed)
    rot = {v: list(g.rotation(v)) for v in g.vertices}
    edges = g.edges()
    rng.shuffle(edges)
    for u, v in edges[: int(len(edges) * frac)]:
        rot[u].remove(v)
        rot[v].remove(u)
    return EmbeddedGraph(rot)


class TestExtractBasics:
    def test_k4(self, graph_k4):
        cert = extract(graph_k4, C13)
        assert cert.bound == 1 and cert.size == 1

    def test_icosahedron_tight(self, ico):
        cert = extract(ico, C13)
        assert cert.bound == 3
        assert cert.size == 3 == mis.alpha(ico)

    def test_bound_met_and_verified(self):
        for seed in range(6):
            g = generate(GenSpec(seed=seed, n=45 + 20 * seed))
            cert = extract(g, C13)
            assert cert.size >= cert.bound == C13.ceil_mul(g.n)
            assert mis.verify_independent(g, cert.independent_set)

    def test_accepts_ratio_string(self, ico):
        assert extract(ico, "3/13").bound == 3

    def test_two_hundred_vertices(self):
        g = generate(GenSpec(seed=1, n=200))
        cert = extract(g, C13)
        assert cert.bound == 47  # ceil(600/13)
        assert cert.size >= 47
        assert mis.verify_independent(g, cert.independent_set)

    def test_disconnected_components(self, graph_k4, ico):
        rot = {v: graph_k4.rotation(v) for v in graph_k4.vertices}
        shift = 10
        for v in ico.vertices:
            rot[v + shift] = tuple(u + shift for u in ico.rotation(v))
        g = EmbeddedGraph(rot)
        cert = extract(g, C13)
        assert cert.n == 16
        assert cert.size >= 1 + 3  # per-component bounds add up
        assert cert.steps[0]["op"] == "components"

    def test_disjoint_k4s_quarter_ratio(self, graph_k4):
        rot = {}
        for b in range(4):
            for v in graph_k4.vertices:
                rot[v + 4 * b] = tuple(u + 4 * b for u in graph_k4.rotation(v))
        g = EmbeddedGraph(rot)
        cert = extract(g, C13)
        assert cert.size == 4  # one per K4: ratio exactly 1/4 >= 3/13
        assert cert.bound == C13.ceil_mul(16) == 4

    def test_single_vertex_and_edge(self):
        g1 = parse_rotation_graph("1 0\n1:\n")
        assert extract(g1, C13).size == 1
        g2 = parse_rotation_graph("2 1\n1: 2\n2: 1\n")
        assert extract(g2, C13).size == 1


class TestOracleSandwich:
    def test_small_graphs(self):
        for seed in range(12):
            n = 8 + seed
            g = sparsify(generate(GenSpec(seed=seed, n=max(4, n))), seed, 0.15)
            cert = extract(g, C13)
            a = mis.alpha(g)
            assert C13.ceil_mul(g.n) <= cert.size <= a


class TestDeterminism:
    def test_byte_identical_certificates(self):
        g = generate(GenSpec(seed=3, n=60))
        c1 = extract(g, C13).to_json()
        c2 = extract(g, C13).to_json()
        assert c1 == c2

    def test_roundtrip_json(self):
        g = generate(GenSpec(seed=4, n=38))
        cert = extract(g, C13)
        again = Certificate.from_json(cert.to_json())
        assert again == cert
        ok, reason = check_certificate(g, again)
        assert ok, reason


def _kids(node):
    return [node["child"]] if "child" in node else node.get("children", [])


def _nodes(node):
    """Every node of a certificate tree, parents first."""
    yield node
    for kid in _kids(node):
        yield from _nodes(kid)


def _fused(node, n):
    """The reduce nodes that leave more than ``BASE_EXACT_N`` of the ``n``
    vertices, down the root's chain of single-child steps: each stands for
    the triangulation after it too."""
    while "child" in node:
        if node["op"] == "reduce":
            plan = node["plan"]
            n -= len(plan["S"]) - len(plan["parts"])
            if n > BASE_EXACT_N:
                yield node
        node = node["child"]


ENTRY_KEYS = {  # the keys an entry of each op may hold
    "exact": [{"op", "kids"}],
    "components": [{"op", "kids"}],
    "triangulate": [{"op"}],
    "reduce": [{"op", "plan"}, {"op", "plan", "match"}],
    "split": [{"op", "triangle", "kids"}],
}


class TestCertificateFormat:
    def test_certificate_is_unhashable_on_purpose(self):
        # its steps are plain dicts shared with to_json
        cert = extract(generate(GenSpec(seed=9, n=40)), C13)
        with pytest.raises(TypeError, match="Certificate"):
            hash(cert)
        assert cert == Certificate.from_json(cert.to_json())

    def test_nodes_record_each_step_once(self):
        g = generate(GenSpec(seed=0, n=300))
        cert = extract(g, C13)
        # one entry per step: a reduce per 4 vertices or so, down to the
        # exact base case (71 entries)
        assert len(cert.steps) > 60
        for entry in cert.steps:
            assert not {"n", "bound", "size", "set"} & entry.keys(), entry["op"]
        fused = list(_fused(cert.root, g.n))
        assert len(fused) > 60
        assert all(node["child"]["op"] != "triangulate" for node in fused)
        assert len(cert.to_json()) <= 100 * g.n

    def test_format_1_is_rejected(self, ico):
        with pytest.raises(CertificateError, match="unknown certificate format"):
            Certificate.from_json(v1_document(extract(ico, C13)))

    def test_steps_are_the_tree_in_pre_order(self):
        # one entry per node, its sub-trees cut off and counted in ``kids``
        # where there are not one: the JSON nests no deeper for a deeper tree
        from conftest import glued_pair

        for g in (glued_pair(16, 14), generate(GenSpec(seed=0, n=300))):
            cert = extract(g, C13)
            want = []
            for node in _nodes(cert.root):
                entry = {k: v for k, v in node.items() if k not in ("child", "children")}
                n = len(_kids(node))
                want.append(entry | ({} if n == 1 else {"kids": n}))
            text = cert.to_json()
            assert json.loads(text)["steps"] == want
            assert {"split", "reduce"} & {entry["op"] for entry in want}
            nesting = itertools.accumulate((c in "[{") - (c in "]}") for c in text)
            assert max(nesting) <= 6  # header, steps, entry, plan, parts, a part

    def test_format_3_is_rejected(self, ico):
        payload = json.loads(extract(ico, C13).to_json())
        payload["format"] = "pig-certificate/3"
        with pytest.raises(CertificateError, match="unknown certificate format"):
            Certificate.from_json(json.dumps(payload))

    def test_nodes_hold_op_choices_and_subtrees_only(self, monkeypatch):
        # nothing replay derives: no need, w_ids, edge counts, strategy,
        # sides, recipe or tagged sub-instances; ``kids`` is written for
        # the exact base case's none and for two or more sub-trees only
        from test_golden import SPECS, build

        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        cases = [(build(spec), spec["ratio"]) for spec in SPECS] + [
            (inp.build(), C13)
            for name in ("plain-large", "flagged-mix") for tiny in (False, True)
            for inp in workloads.inputs(name, 0, tiny)
        ]
        ops = Counter()
        for g, ratio in cases:
            for entry in extract(g, ratio).steps:
                ops[entry["op"]] += 1
                assert set(entry) in ENTRY_KEYS[entry["op"]], entry.keys()
                assert entry.get("kids", 2) >= 2 or entry == {"op": "exact", "kids": 0}
                if "plan" in entry:
                    assert entry["plan"].keys() == {"S", "parts"}
        assert ops.keys() == {"reduce", "exact", "triangulate", "split"}

    def test_old_two_node_shape_is_refused(self, monkeypatch):
        # format 3's triangulate node after a fused reduction, under a
        # format 4 header: refused where the reduction's child is due,
        # after the one oracle call that certifies the root's plan
        g = generate(GenSpec(seed=9, n=40))
        text = extract(g, C13).to_json()
        root = Certificate.from_json(text).root
        assert next(_fused(root, g.n)) is root
        h = g.delete_set(root["plan"]["S"])
        payload = json.loads(text)  # the root's child becomes the triangulate's
        shape3 = {"op": "triangulate", "m_before": h.m, "m_after": 3 * h.n - 6}
        payload["steps"].insert(1, shape3)
        cert = Certificate.from_json(json.dumps(payload))
        calls = []
        for name in ("mis_exact", "alpha_at_least"):
            def recording(*args, name=name, real=getattr(mis, name), **kw):
                calls.append(name)
                return real(*args, **kw)
            monkeypatch.setattr(mis, name, recording)
        ok, reason = check_certificate(g, cert)
        assert not ok and reason.startswith("step 1: op 'triangulate' where ")
        assert calls == ["alpha_at_least"]


CERT_FIELDS = ("ratio", "graph_hash", "n", "bound", "independent_set", "steps")


def _fields(g, ratio=C13) -> dict:
    """The fields of ``g``'s certificate as ``from_json`` reads them back,
    its ``steps`` as a list, to forge and pass to ``_direct``."""
    cert = Certificate.from_json(extract(g, ratio).to_json())
    return {f: getattr(cert, f) for f in CERT_FIELDS} | {"steps": list(cert.steps)}


def _direct(fields):
    """The certificate built directly, past from_json's checks."""
    return Certificate(**fields | {"steps": tuple(fields["steps"])})


def _reduce_entry(fields):
    return _find_op(fields["steps"], "reduce")


def _without_match(value):
    """A parsed certificate with every ``match`` value blanked."""
    if isinstance(value, dict):
        return {k: None if k == "match" else _without_match(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_without_match(v) for v in value]
    return value


MALFORMED = {  # an edit of the fields; the root is the first entry
    "missing-child": lambda p: _reduce_entry(p).update(kids=0),
    "plan-extra-kind": lambda p: _reduce_entry(p)["plan"].update(kind="anchored-pairs"),
    "plan-S-not-ids": lambda p: _reduce_entry(p)["plan"].update(S=["a"]),
    "plan-null": lambda p: _reduce_entry(p).update(plan=None),
    "split-absent-triangle": lambda p: p["steps"][0].update(
        op="split", triangle=[10**6, 10**6 + 1, 10**6 + 2]
    ),
    "root-is-list": lambda p: p["steps"].__setitem__(0, [p["steps"][0]]),
    "root-unknown-op": lambda p: p["steps"][0].update(op=["reduce"]),
    "independent-set-null": lambda p: p.update(independent_set=None),
    "node-set-null": lambda p: p["steps"][0].update(set=None),
    "ratio-null": lambda p: p.update(ratio=None),
}


class TestCheckCertificate:
    def test_fresh_certificate_replays(self):
        for seed in range(4):
            g = generate(GenSpec(seed=seed + 20, n=52))
            cert = extract(g, C13)
            ok, reason = check_certificate(g, cert)
            assert ok, reason

    def test_hash_mismatch(self, ico, graph_k4):
        cert = extract(ico, C13)
        ok, reason = check_certificate(graph_k4, cert)
        assert not ok and "hash" in reason

    def test_tampered_set_detected(self, ico):
        cert = extract(ico, C13)
        payload = json.loads(cert.to_json())
        payload["independent_set"] = payload["independent_set"][:-1]
        payload["size"] = len(payload["independent_set"])
        payload["steps"][0].update(set=payload["independent_set"], size=payload["size"])
        bad = Certificate.from_json(json.dumps(payload))
        ok, reason = check_certificate(ico, bad)
        assert not ok

    def test_tampered_step_detected(self):
        g = generate(GenSpec(seed=9, n=40))
        cert = extract(g, C13)
        payload = json.loads(cert.to_json())
        node = next(entry for entry in payload["steps"] if entry["op"] == "reduce")
        node["plan"]["S"] = node["plan"]["S"][:-1]
        bad = Certificate.from_json(json.dumps(payload))
        ok, reason = check_certificate(g, bad)
        assert not ok

    def test_bad_format(self):
        text = extract(generate(GenSpec(seed=9, n=40)), C13).to_json()
        Certificate.from_json(text)
        edits = [
            lambda p: p.update(independent_set=None),
            lambda p: p.update(size=p["size"] + 5),
            lambda p: p.update(wize=p.pop("size")),
            lambda p: p.update(format="pig-certificate/2"),
            lambda p: p.update(format="pig-certificate/5"),
            lambda p: p.update(format="pig-certificate/6"),
        ]
        bad = ["{}", "not json", "[]"]
        for edit in edits:
            payload = json.loads(text)
            edit(payload)
            bad.append(json.dumps(payload))
        for doc in bad:
            with pytest.raises(CertificateError):
                Certificate.from_json(doc)

    def test_malformed_choice_is_echoed_short(self):
        g = generate(GenSpec(seed=9, n=40))
        fields = _fields(g)
        deep = []
        for _ in range(19_000):
            deep = [deep]
        _reduce_entry(fields)["plan"]["S"] = deep
        ok, reason = check_certificate(g, _direct(fields))
        assert not ok and reason.endswith("malformed 'S': [[[[[[[...]]]]]]]")
        assert len(reason) < 80

    def test_numbers_bound_by_type(self):
        g = generate(
            GenSpec(seed=7, n=120, min_degree5=True, no_separating_triangle=True)
        )
        text = extract(g, C13).to_json()
        payload = json.loads(text)
        assert (payload["n"], payload["size"], payload["independent_set"][0]) == (120, 32, 6)
        payload.update(n=120.0, size=32.0)
        payload["independent_set"][0] = 6.0
        floats = json.dumps(payload)
        assert '"n": 120.0' in floats and '"size": 32.0' in floats
        edits = [
            lambda p: p.update(n=float(p["n"])),
            lambda p: p.update(bound=float(p["bound"])),
            lambda p: p.update(size=float(p["size"])),
            lambda p: p["independent_set"].__setitem__(0, float(p["independent_set"][0])),
            lambda p: p.update(independent_set=[True] + p["independent_set"][1:]),
            lambda p: p.update(n=str(p["n"])),
        ]
        bad = [floats]
        for edit in edits:
            payload = json.loads(text)
            edit(payload)
            bad.append(json.dumps(payload))
        for doc in bad:
            with pytest.raises(CertificateError, match="ints"):
                Certificate.from_json(doc)

    @pytest.mark.parametrize("tamper", sorted(MALFORMED))
    def test_malformed_certificate_fails_without_raising(self, tamper):
        g = generate(GenSpec(seed=9, n=40))
        fields = _fields(g)
        assert check_certificate(g, _direct(fields)) == (True, "ok")
        MALFORMED[tamper](fields)
        ok, reason = check_certificate(g, _direct(fields))
        assert not ok and reason

    def test_divergence_names_the_key(self):
        # a key only the record holds is named too, even with a null value
        g = generate(GenSpec(seed=9, n=40))
        fields = _fields(g)
        fields["steps"][0]["set"] = None
        ok, reason = check_certificate(g, _direct(fields))
        assert (ok, reason) == (False, "step 0 (reduce): replay diverges in 'set'")

    def test_accepted_byte_edits_change_no_checked_value(self):
        # every recorded value but the catalog steps' ``match`` label is
        # bound by a check, so a one-byte edit that still passes may only
        # change that label or the JSON's spelling
        g = generate(
            GenSpec(seed=7, n=120, min_degree5=True, no_separating_triangle=True)
        )
        text = extract(g, C13).to_json()
        want = _without_match(json.loads(text))
        assert check_certificate(g, Certificate.from_json(text)) == (True, "ok")
        rng = random.Random(12)
        for _ in range(600):
            i = rng.randrange(len(text))
            mutant = text[:i] + rng.choice(string.printable) + text[i + 1:]
            try:
                cert = Certificate.from_json(mutant)
            except CertificateError:
                continue
            if check_certificate(g, cert)[0]:
                assert _without_match(json.loads(mutant)) == want, mutant[i - 20:i + 20]

    def test_lift_error_is_reported(self, monkeypatch):
        from pig.reduce import LiftError

        engine = importlib.import_module("pig.extract")

        def broken_lift(*args):
            raise LiftError("window optimum below certified size")

        g = generate(GenSpec(seed=9, n=40))
        cert = extract(g, C13)
        monkeypatch.setattr(engine, "lift", broken_lift)
        ok, reason = check_certificate(g, cert)
        assert not ok and reason == "window optimum below certified size"


def test_flagged_mix_reductions_have_no_triangulate_child(monkeypatch):
    """Every reduction chords its own remainder, contraction or not: on
    the benchmark's flagged-mix inputs no reduce node has a triangulate
    child, and the certificates replay."""
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    contracted = 0
    for recipe in workloads.inputs("flagged-mix", 0) + workloads.inputs(
            "flagged-mix", 0, tiny=True):
        g = recipe.build()
        cert = extract(g, C13)
        reduces = [(entry, kid) for entry, kid in zip(cert.steps, cert.steps[1:])
                   if entry["op"] == "reduce"]
        assert all(kid["op"] != "triangulate" for _, kid in reduces)
        contracted += sum(1 for entry, _ in reduces if entry["plan"]["parts"])
        assert check_certificate(g, cert) == (True, "ok")
    assert contracted > 100


class TestFusedReplay:
    """Replay fuses a deletion with the triangulation after it wherever
    extraction does, and checks the one node that records both."""

    def test_replay_takes_extractions_kernel_path(self, monkeypatch):
        # a deletion whose remainder needs no chords must take the same
        # edit on both paths; a replay that goes through ``subgraph`` for
        # it makes 4 calls on this graph where extraction makes 1
        ex = importlib.import_module("pig.extract")
        rd = importlib.import_module("pig.reduce")
        calls = {"subgraph": 0, "triangulate": 0}
        subgraph, triangulate = EmbeddedGraph.subgraph, ex.triangulate

        def counting_subgraph(g, keep):
            calls["subgraph"] += 1
            return subgraph(g, keep)

        def counting_triangulate(g, drop=()):
            calls["triangulate"] += 1
            return triangulate(g, drop)

        monkeypatch.setattr(EmbeddedGraph, "subgraph", counting_subgraph)
        monkeypatch.setattr(ex, "triangulate", counting_triangulate)
        monkeypatch.setattr(rd, "triangulate", counting_triangulate)
        g = generate(GenSpec(seed=0, n=1000))
        cert = extract(g, C13)
        made = dict(calls)
        calls.update(subgraph=0, triangulate=0)
        assert check_certificate(g, cert) == (True, "ok")
        assert calls == made and made["subgraph"] == 1

    @pytest.mark.parametrize("op", ["exact", "components", "triangulate", "split", "fill"])
    def test_changed_child_op_fails(self, op):
        # the fused reduction's child is a reduce: the graph it leaves is
        # triangulated already
        g = generate(GenSpec(seed=9, n=40))
        fields = _fields(g)
        root = _direct(fields).root
        assert next(_fused(root, g.n)) is root  # so its child is entry 1
        kid = fields["steps"][1]
        assert kid["op"] == "reduce"
        kid["op"] = op
        ok, reason = check_certificate(g, _direct(fields))
        assert not ok and reason


def _forged(steps, sparse=False, ratio=C13):
    """A flagged n=120 graph, with three edges gone if ``sparse``, and its
    certificate at ``ratio`` with ``steps`` put in."""
    g = generate(GenSpec(seed=7, n=120, min_degree5=True, no_separating_triangle=True))
    if sparse:
        g = sparsify(g, 0, 0.01)
        assert g.is_connected() and not g.is_triangulation()
    return g, _direct(_fields(g, ratio) | {"steps": steps})


EXACT = {"op": "exact", "kids": 0}
FORGED = {  # (sparse, steps): a reduce is due on the flagged graph
    "exact-root": (False, [EXACT]),
    "components-on-connected": (False, [{"op": "components"}, EXACT]),
    "triangulate-for-reduce": (False, [{"op": "triangulate"}, EXACT]),
    "exact-for-triangulate": (True, [{"op": "exact"}, EXACT]),
}


class TestForcedSteps:
    """Replay derives the steps the graph forces, so a node recording
    another op is refused before its work runs; and an oracle budget
    spent on a recorded choice fails the check instead of raising."""

    @pytest.mark.parametrize("forge", sorted(FORGED))
    def test_forged_forced_step_refused_before_its_work(self, forge, monkeypatch):
        monkeypatch.setenv("PIG_ORACLE_BUDGET", "2000")
        g, cert = _forged(FORGED[forge][1], FORGED[forge][0])
        sizes = []
        exact = mis.mis_exact

        def recording(h, vertices=None):
            sizes.append(h.n if vertices is None else len(vertices))
            return exact(h, vertices)

        monkeypatch.setattr(mis, "mis_exact", recording)
        ok, reason = check_certificate(g, cert)
        assert not ok and reason.startswith("step 0: op ")
        assert max(sizes, default=0) <= BASE_EXACT_N

    def test_bad_claim_fails_before_the_trace(self, monkeypatch):
        # the forged plan below would spend the budget on replay; the
        # claimed set holds an edge, and that is the verdict
        monkeypatch.setenv("PIG_ORACLE_BUDGET", "4")
        s = [10, 14, 22, 29, 42, 45, 47, 50, 51, 63, 69, 91, 101, 102, 111, 115]
        g, cert = _forged([{"op": "reduce", "plan": {"S": s, "parts": [s]}}, EXACT])
        u = cert.independent_set[0]
        v = min(g.neighbors(u))
        bad = replace(cert, independent_set=tuple(sorted({*cert.independent_set, v})))
        assert check_certificate(g, bad) == (False, "claimed set not independent")
        assert check_certificate(g, cert)[1] == "oracle budget exceeded: exceeded 4 nodes"

    def test_oracle_budget_exceeded_fails_the_check(self, monkeypatch):
        # S has 16 vertices, the most a plan may have, all in one part, so
        # one window to certify is all of S: deciding alpha >= 5 there
        # takes 9 oracle nodes
        monkeypatch.setenv("PIG_ORACLE_BUDGET", "4")
        s = [10, 14, 22, 29, 42, 45, 47, 50, 51, 63, 69, 91, 101, 102, 111, 115]
        g, cert = _forged([{"op": "reduce", "plan": {"S": s, "parts": [s]}}, EXACT])
        ok, reason = check_certificate(g, cert)
        assert not ok and reason == "oracle budget exceeded: exceeded 4 nodes"

    def test_fail_line_names_the_step(self):
        # plain-large's input, whose tree is a chain of 246 steps: naming
        # the path from the root made this line 2,047 characters long
        g = generate(GenSpec(seed=0, n=1000))
        payload = json.loads(extract(g, C13).to_json())
        payload["steps"][200]["op"] = "exact"
        ok, reason = check_certificate(g, Certificate.from_json(json.dumps(payload)))
        assert not ok and reason.startswith("step 200: op 'exact' where ")
        assert len(reason) < 100, reason[:200]

    def test_plan_above_the_largest_is_refused_at_once(self, monkeypatch):
        # a whole-graph window at the default budget would keep the checker
        # searching for minutes, at any ratio
        monkeypatch.delenv("PIG_ORACLE_BUDGET", raising=False)
        g = generate(GenSpec(seed=1, n=400, min_degree5=True, no_separating_triangle=True))
        for ratio in (C13, Ratio(1, 400)):
            fields = _fields(g, ratio)
            fields["steps"] = [{"op": "reduce", "plan": {"S": sorted(g.vertices), "parts": []}},
                               EXACT]
            cert = _direct(fields)
            start = time.perf_counter()
            ok, reason = check_certificate(g, cert)
            assert time.perf_counter() - start < 0.1
            assert not ok and reason == f"|S| = 400 above 16, the largest plan at {ratio}"


class TestEngine:
    """The explicit-stack walk: no recursion in depth, no level's graph kept
    past its step, and the reduce level's window-only independence check."""

    def test_deep_plain_graph_at_default_recursion_limit(self):
        # one entry per reduction: the step tree is 1,246 deep here, which
        # neither the JSON nor the certificate object nests
        g = generate(GenSpec(seed=7, n=5000))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            cert = extract(g, C13)
            text = cert.to_json()
            again = Certificate.from_json(text)
            assert check_certificate(g, again) == (True, "ok")
            assert again.to_json() == text and again == cert
            assert repr(cert).startswith("Certificate(")
            assert pickle.loads(pickle.dumps(cert)) == cert
            assert copy.deepcopy(cert) == cert
            assert cert.root["op"] == "reduce"  # the view builds no recursion
        finally:
            sys.setrecursionlimit(limit)

    def test_step_list_that_ends_before_the_walk(self):
        g = generate(GenSpec(seed=9, n=40))
        fields = _fields(g)
        last = len(fields["steps"]) - 1
        del fields["steps"][last]
        ok, reason = check_certificate(g, _direct(fields))
        assert (ok, reason) == (False, f"step {last}: the step list ends before the walk")

    def test_step_list_with_entries_after_the_walk(self):
        g = generate(GenSpec(seed=9, n=40))
        fields = _fields(g)
        end = len(fields["steps"])
        fields["steps"] += [EXACT, EXACT]
        ok, reason = check_certificate(g, _direct(fields))
        assert (ok, reason) == (False, f"step {end}: after the root's tree has closed")

    def test_size_contract_names_the_step(self, monkeypatch):
        # the level is named by its index in ``steps``: the exact base case
        # closes first, and it is the last entry
        g = generate(GenSpec(seed=9, n=40))
        last = len(json.loads(extract(g, C13).to_json())["steps"]) - 1
        monkeypatch.setattr(mis, "mis_exact", lambda *args, **kw: ())
        with pytest.raises(IncompletenessDiagnostic) as info:
            extract(g, C13)
        assert str(info.value).startswith(f"size contract broken at step {last} (exact), n=")

    def test_peak_memory_is_local(self):
        g = generate(GenSpec(seed=0, n=600))
        tracemalloc.start()
        try:
            cert = extract(g, C13)
            extract_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert check_certificate(g, cert) == (True, "ok")
            replay_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # keeping every level's graph alive peaks near 15 MiB here
        assert extract_peak < 4 * 2**20, extract_peak
        assert replay_peak < 4 * 2**20, replay_peak

    def test_lifted_edge_at_the_window_is_caught(self, monkeypatch):
        exact = mis.mis_exact

        def leaky(g, vertices=None):
            out = exact(g, vertices)
            if isinstance(g, LiftContext):  # T leaks into the rest of S
                out += tuple(sorted(g.plan.s - set(vertices)))
            return out

        g = generate(GenSpec(seed=9, n=40))
        cert = extract(g, C13)
        monkeypatch.setattr(mis, "mis_exact", leaky)
        with pytest.raises(LiftError, match="edge at the window"):
            extract(g, C13)
        ok, reason = check_certificate(g, cert)
        assert not ok and reason == "lifted set has an edge at the window"


class TestStructuredFamilies:
    """Hand-built min-degree-5 families that never pass through the
    generator: geodesic subdivisions (twelve 5-vertices, the rest 6s) and
    antiprism drums.  These exercise the configuration stage heavily."""

    def test_geodesic_subdivisions(self, ico):
        from conftest import subdivide
        from pig.graph import separating_triangles

        g = subdivide(ico)
        assert (g.n, g.min_degree()) == (42, 5)
        assert not separating_triangles(g)
        for graph in (g, subdivide(g)):
            cert = extract(graph, C13)
            assert cert.size >= cert.bound
            ok, reason = check_certificate(graph, cert)
            assert ok, reason

    @pytest.mark.parametrize("rings", [2, 4, 8, 16])
    def test_drums(self, rings):
        from conftest import drum

        g = drum(rings)
        assert g.min_degree() == 5
        cert = extract(g, C13)
        assert cert.size >= cert.bound
        assert mis.verify_independent(g, cert.independent_set)


def _find_op(steps, op):
    return next((entry for entry in steps if entry["op"] == op), None)


class TestSplitStage:
    """Glued pairs of min-degree-5 triangulations force the split stage;
    the side sizes pick which recombination strategy must carry the bound."""

    @pytest.mark.parametrize(
        "n1,n2,strategy",
        [
            (12, 12, "delete-both"),
            (16, 14, "hub1"),
            (14, 16, "hub2"),
            (15, 15, "edge-pairs"),
        ],
    )
    def test_each_strategy(self, n1, n2, strategy):
        from conftest import glued_pair
        from pig.graph import separating_triangles

        g = glued_pair(n1, n2)
        assert g.min_degree() >= 5
        assert separating_triangles(g)
        cert = extract(g, C13)
        entry = _find_op(cert.steps, "split")
        assert entry is not None
        assert split_plan(g, entry["triangle"], C13).strategy == strategy
        assert cert.size >= cert.bound
        ok, reason = check_certificate(g, cert)
        assert ok, reason

    def test_split_replay_detects_tamper(self):
        from conftest import glued_pair
        from pig.graph import separating_triangles

        g = glued_pair(16, 14)
        fields = _fields(g)
        entry = _find_op(fields["steps"], "split")
        others = [t for t in separating_triangles(g) if list(t) != entry["triangle"]]
        forgeries = [[0, 1, 2], sorted(entry["triangle"], reverse=True), *others[:1],
                     list(range(1, 10**5)), [10**4000, 1, 2]]
        for forged in forgeries:
            entry["triangle"] = list(forged)
            ok, reason = check_certificate(g, _direct(fields))
            assert not ok and 0 < len(reason) < 80, reason[:80]

    def test_chained_blocks_nested_splits(self):
        # three glued blocks leave two separating triangles; the recursion
        # splits twice and the whole trace still replays
        from conftest import glued_pair
        from pig.graph import separating_triangles

        g = glued_pair(16, 14, seed1=3, seed2=8)
        h = glued_pair(14, 15, seed1=11, seed2=8)
        # overlay: rebuild a chain by gluing h onto a face of g
        from pig.graph import embedded_from_faces

        f1 = g.faces()[-1]
        f2 = h.faces()[0]
        shift = max(g.vertices)
        m = {f2[0]: f1[0], f2[1]: f1[2], f2[2]: f1[1]}
        for v in h.vertices:
            if v not in m:
                m[v] = v + shift
        faces = [f for f in g.faces() if f != f1]
        faces += [tuple(m[v] for v in f) for f in h.faces() if f != f2]
        try:
            chain = embedded_from_faces(faces)
        except Exception:
            m = {f2[0]: f1[0], f2[1]: f1[1], f2[2]: f1[2]}
            for v in h.vertices:
                if v not in m:
                    m[v] = v + shift
            faces = [f for f in g.faces() if f != f1]
            faces += [tuple(m[v] for v in f) for f in h.faces() if f != f2]
            chain = embedded_from_faces(faces)
        assert len(separating_triangles(chain)) >= 2
        cert = extract(chain, C13)
        assert cert.size >= cert.bound
        ok, reason = check_certificate(chain, cert)
        assert ok, reason


class TestModes:
    def test_one_fifth_never_diagnoses(self):
        for seed in range(10):
            g = sparsify(
                generate(GenSpec(seed=seed + 50, n=20 + seed * 9)),
                seed,
                (seed % 4) * 0.1,
            )
            cert = extract(g, C5)
            assert cert.size >= C5.ceil_mul(g.n)
            assert mis.verify_independent(g, cert.independent_set)

    def test_two_ninths_supported(self):
        g = generate(GenSpec(seed=31, n=45))
        cert = extract(g, Ratio(2, 9))
        assert cert.size >= Ratio(2, 9).ceil_mul(g.n)

    def test_two_ninths_on_flagged_graphs(self):
        for seed in range(4):
            g = generate(
                GenSpec(seed=seed, n=40 + seed * 25, min_degree5=True,
                        no_separating_triangle=True)
            )
            cert = extract(g, Ratio(2, 9))
            assert cert.size >= cert.bound
            assert mis.verify_independent(g, cert.independent_set)

    def test_seven_ring_fixture_extracts(self):
        from conftest import seven_ring_fixture

        g = seven_ring_fixture()
        cert = extract(g, C13)
        assert cert.size >= cert.bound == 7
        ok, reason = check_certificate(g, cert)
        assert ok, reason


class TestCorpusRun:
    """Extraction over a generated corpus, run through ``pig corpus``."""

    @staticmethod
    def clean(args, capsys, count, low, mean):
        assert run_corpus(args, capsys) == (0, {
            "ratio": "3/13", "instances": count, "successes": count, "diagnostics": 0,
            "min_achieved_ratio": low, "mean_achieved_ratio": mean,
        }, []), args

    def test_empty(self, capsys):
        self.clean(["--n", "24", "--count", "0"], capsys, 0, None, None)

    def test_small_corpus(self, capsys):
        # the plain specs n = 24 + s with seed s, one run each
        achieved = [0.375, 0.36, 0.3846, 0.3333, 0.3571, 0.3103]
        for s, ratio in enumerate(achieved):
            args = ["--n", str(24 + s), "--count", "1", "--seed", str(s)]
            self.clean(args, capsys, 1, ratio, ratio)

    def test_oracle_budget_collected_per_instance(self, monkeypatch, capsys):
        monkeypatch.setenv("PIG_ORACLE_BUDGET", "5")
        code, summary, lines = run_corpus(["--n", "40", "--count", "3"], capsys)
        assert code == 3
        assert (summary["instances"], summary["diagnostics"]) == (3, 3)
        assert [line.split(": ", 2)[:2] for line in lines] == [
            ["diagnostic", f"seed={s} n=40"] for s in range(3)]
        assert all(line.split(": ", 2)[2].startswith("oracle budget exceeded: ")
                   for line in lines)

    def test_flagged_corpus(self, capsys):
        args = ["--n", "36", "--count", "4", "--delta5", "--no-septri"]
        self.clean(args, capsys, 4, 0.2778, 0.2917)


def test_step_engine_does_not_import_the_generator():
    """The step engine and its certificate stand without the generator:
    no import statement of ``pig/extract.py`` names ``pig.generate``."""
    import ast
    import importlib.util

    path = Path(importlib.import_module("pig.extract").__file__)
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module if not node.level else importlib.util.resolve_name(
                "." * node.level + (node.module or ""), "pig")
            names |= {base} | {f"{base}.{alias.name}" for alias in node.names}
    assert names and not {n for n in names if n.split(".")[:2] == ["pig", "generate"]}
