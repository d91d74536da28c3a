"""Workload inputs and the two user paths the benchmark times.

Every workload measures a fixed list of recipes, whatever the seed, so each
input's ``graph_hash()`` (and, for the oracle, its independence number and
optimum) can be kept in ``data/inputs.json`` and drift is caught; the seed
only orders them.  The program sees only the serialized ``.rot`` text.

Each input goes through two timed operations:

* extraction workloads: ``solve`` is ``pig extract --json`` (parse,
  ``extract``, ``to_json``) and ``check`` is ``pig check-cert`` (parse,
  ``from_json``, ``check_certificate``);
* ``oracle-exact``: ``solve`` is ``pig alpha`` (parse, ``alpha``,
  ``mis_exact``) and ``check`` confirms optimality with the decision form
  of the oracle that plan certification uses: ``alpha_at_least(g, a + 1)``
  must be false.

Pig functions are looked up on their modules at call time, so the wrappers
a traced run installs are the ones called.
"""

from __future__ import annotations

import importlib
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import families

RATIO = (3, 13)  # the paper's 3/13

PLAIN_N = 1000
ORACLE = ((50, 7), (55, 7), (60, 0), (65, 0), (70, 7))  # (n, generator seed)


@dataclass(frozen=True)
class Input:
    """One benchmark input: a recipe name and how to build it."""

    name: str
    build: Callable


def _plain(n: int, seed: int) -> Input:
    return Input(f"plain-n{n}-s{seed}", lambda: families.plain(n, seed))


def _flagged(n: int, seed: int) -> Input:
    return Input(f"flagged-n{n}-s{seed}", lambda: families.flagged(n, seed))


def _ico(levels: int) -> Input:
    return Input(f"geodesic-{levels}",
                 lambda: families.geodesic_icosahedron(levels))


def _drum(rings: int) -> Input:
    return Input(f"drum-{rings}", lambda: families.drum(rings))


def _glued(n1: int, n2: int, s1: int, s2: int) -> Input:
    return Input(f"glued-{n1}-{n2}-s{s1}-{s2}",
                 lambda: families.glued_pair(n1, n2, s1, s2))


# The inputs of each workload, and (second) the trace self-test's tiny ones.
POOLS = {
    "plain-large": ([_plain(PLAIN_N, 0)], [_plain(120, 0)]),
    "flagged-mix": (
        [_flagged(200, 3), _ico(2), _ico(3), _drum(20), _drum(60),
         _glued(110, 90, 11, 2)],
        [_ico(1), _glued(30, 30, 3, 8)],
    ),
    "oracle-exact": ([_flagged(n, s) for n, s in ORACLE], [_flagged(20, 0)]),
}
WORKLOADS = tuple(POOLS)


def inputs(workload: str, seed: int, tiny: bool = False) -> list[Input]:
    """The inputs of one run, in an order chosen by ``seed``; ``tiny``
    gives the trace self-test's inputs."""
    if workload not in POOLS:
        raise ValueError(f"unknown workload {workload!r}")
    out = list(POOLS[workload][1 if tiny else 0])
    random.Random(seed).shuffle(out)
    return out


def all_recipes() -> list[Input]:
    """Every input of every workload, for recording the data file."""
    return [inp for pools in POOLS.values() for pool in pools for inp in pool]


# -- the timed operations ------------------------------------------------------


def _mods():
    return (
        importlib.import_module("pig.graph"),
        importlib.import_module("pig.extract"),
        importlib.import_module("pig.mis"),
    )


def solve_extract(text: str):
    """``pig extract --json``: returns the certificate and its JSON."""
    graph, ex, _ = _mods()
    g = graph.parse_rotation_graph(text)
    cert = ex.extract(g, f"{RATIO[0]}/{RATIO[1]}")
    return cert, cert.to_json()


def check_extract(text: str, js: str):
    """``pig check-cert``: returns the checker's (ok, reason) and the
    certificate read back."""
    graph, ex, _ = _mods()
    g = graph.parse_rotation_graph(text)
    cert = ex.Certificate.from_json(js)
    return ex.check_certificate(g, cert), cert


def solve_alpha(text: str):
    """``pig alpha``: returns alpha, the optimum and the printed answer."""
    graph, _, mis = _mods()
    g = graph.parse_rotation_graph(text)
    a = mis.alpha(g)
    best = mis.mis_exact(g)
    answer = f"alpha={a}\nset: " + " ".join(map(str, best)) + "\n"
    return a, best, answer


def check_alpha(text: str, a: int) -> bool:
    """Decision-form confirmation: True iff alpha >= a + 1."""
    graph, _, mis = _mods()
    g = graph.parse_rotation_graph(text)
    return mis.alpha_at_least(g, a + 1)


# -- output checks, independent of pig ----------------------------------------


def adjacency(text: str) -> dict[int, set[int]]:
    """Adjacency read straight from the rotation text."""
    adj: dict[int, set[int]] = {}
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    for line in [ln for ln in lines if ln][1:]:
        head, _, tail = line.partition(":")
        adj[int(head)] = {int(t) for t in tail.split()}
    return adj


def independent(adj: dict[int, set[int]], vs) -> bool:
    s = set(vs)
    return len(s) == len(vs) and s <= adj.keys() and all(
        not (adj[v] & s) for v in s
    )


def bound(n: int) -> int:
    """ceil(3n/13)."""
    a, b = RATIO
    return -(-a * n // b)


def cert_steps(root: dict) -> tuple[Counter, int]:
    """Step counts by op, catalog reductions apart, and the tree depth."""
    steps: Counter = Counter()
    depth = 0
    stack = [(root, 1)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        op = node.get("op")
        steps["catalog" if op == "reduce" and "match" in node else op] += 1
        kids = []
        if "child" in node:
            kids.append(node["child"])
        kids += node.get("children", [])
        kids += [s["child"] for s in node.get("subs", [])]
        stack += [(k, d + 1) for k in kids]
    return steps, depth
