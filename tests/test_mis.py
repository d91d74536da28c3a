import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pig import mis
from pig.generate import GenSpec, generate
from pig.graph import parse_rotation_graph

from conftest import ORACLE_EXACT_OPTIMA, brute_alpha, embedded_cycle, octahedra, stacked_k4s


class _Bare:
    """A graph given by its edges on vertices 1..n, with no embedding."""

    def __init__(self, n, edges):
        self.vertices = tuple(range(1, n + 1))
        self._nbr = {v: set() for v in self.vertices}
        for a, b in edges:
            self._nbr[a].add(b)
            self._nbr[b].add(a)

    def neighbors(self, v):
        return frozenset(self._nbr[v])

    def has_vertex(self, v):
        return v in self._nbr


def _lex_smallest_optimum(g, a):
    for c in itertools.combinations(sorted(g.vertices), a):
        if mis.verify_independent(g, c):
            return c
    raise AssertionError("no independent set of size alpha")


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return _Bare(n, [e for e, k in zip(pairs, keep) if k])


def _exhaustive_optimum(g):
    """α and the lexicographically smallest optimum, with no reduction:
    α(S) = max(α(S − v), 1 + α(S − N[v])) for the lowest v of S, memoized
    on S; then accept each vertex, lowest first, iff it keeps α reachable."""
    vs = sorted(g.vertices)
    index = {v: i for i, v in enumerate(vs)}
    nbr = [sum(1 << index[u] for u in g.neighbors(v)) for v in vs]
    memo = {0: 0}

    def size(s):
        if s not in memo:
            low = s & -s
            memo[s] = max(size(s ^ low), 1 + size(s & ~(low | nbr[low.bit_length() - 1])))
        return memo[s]

    s = (1 << len(vs)) - 1
    a = target = size(s)
    out = []
    for i, v in enumerate(vs):
        bit = 1 << i
        if s & bit and size(s & ~(bit | nbr[i])) == target - 1:
            out.append(v)
            s &= ~(bit | nbr[i])
            target -= 1
        else:
            s &= ~bit
    return a, tuple(out)


def _path(k):
    return [(i, i + 1) for i in range(k - 1)], k


def _cycle(k):
    return [(i, (i + 1) % k) for i in range(k)], k


@st.composite
def _subdivision(draw, max_n):
    """A random graph on at most 8 vertices, each edge split 0-2 times."""
    n = draw(st.integers(1, min(8, max_n)))
    edges = []
    for a, b in itertools.combinations(range(n), 2):
        if not draw(st.booleans()):
            continue
        cut = min(draw(st.integers(0, 2)), max_n - n)
        chain = [a, *range(n, n + cut), b]
        n += cut
        edges += zip(chain, chain[1:])
    return edges, n


@st.composite
def _theta(draw, max_n):
    """Two vertices joined by three internally disjoint paths."""
    inner = sorted(draw(st.lists(st.integers(0, 7), min_size=3, max_size=3)))
    inner[1:] = [max(1, k) for k in inner[1:]]  # at most one direct edge
    while 2 + sum(inner) > max_n:
        inner[inner.index(max(inner))] -= 1
    edges, n = [], 2
    for k in inner:
        chain = [0, *range(n, n + k), 1]
        n += k
        edges += zip(chain, chain[1:])
    return edges, n


@st.composite
def _degree_two_graphs(draw, max_n=24):
    """Disjoint unions of subdivided graphs, paths, cycles and theta graphs
    on at most max_n vertices, with their labels shuffled."""
    edges, n = [], 0
    for _ in range(draw(st.integers(1, 3))):
        if n + 4 > max_n:  # the smallest theta graph has 4 vertices
            break
        room = max_n - n
        part = draw(st.one_of(
            _subdivision(room),
            st.integers(1, room).map(_path),
            st.integers(3, room).map(_cycle),
            _theta(room),
        ))
        edges += [(a + n, b + n) for a, b in part[0]]
        n += part[1]
    label = draw(st.permutations(range(1, n + 1)))
    return _Bare(n, [(label[a], label[b]) for a, b in edges])


def _oracle_graph(n, seed):
    spec = GenSpec(seed=seed, n=n, min_degree5=True, no_separating_triangle=True)
    return parse_rotation_graph(generate(spec).serialize())


def test_icosahedron(ico):
    assert mis.alpha(ico) == 3 == brute_alpha(ico)
    s = mis.mis_exact(ico)
    assert len(s) == 3 and mis.verify_independent(ico, s)


def test_k4(graph_k4):
    assert mis.alpha(graph_k4) == 1
    assert mis.mis_exact(graph_k4) == (1,)


def test_edgeless():
    from pig.graph import EmbeddedGraph

    g = EmbeddedGraph({i: () for i in range(1, 8)})
    assert mis.alpha(g) == 7
    assert mis.mis_exact(g) == tuple(range(1, 8))


def test_cycles():
    for k in range(3, 10):
        g = embedded_cycle(k)
        assert mis.alpha(g) == k // 2
    assert mis.alpha_at_least(embedded_cycle(7), 3)
    assert not mis.alpha_at_least(embedded_cycle(7), 4)


def test_alpha_at_least_boundaries(ico):
    assert mis.alpha_at_least(ico, 0)
    assert mis.alpha_at_least(ico, 3)
    assert not mis.alpha_at_least(ico, 4)
    assert not mis.alpha_at_least(ico, 13)


def test_verify_independent(ico):
    assert mis.verify_independent(ico, ())
    u = ico.rotation(1)[0]
    assert not mis.verify_independent(ico, (1, u))
    with pytest.raises(KeyError):
        mis.verify_independent(ico, (999,))


def test_random_graphs_match_brute():
    rng = random.Random(4)
    for trial in range(25):
        n = rng.randint(2, 11)
        edges = {
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.4
        }
        g = _Bare(n, edges)
        a = brute_alpha(g)
        assert mis.alpha(g) == a
        s = mis.mis_exact(g)
        assert len(s) == a and mis.verify_independent(g, s)
        assert mis.alpha_at_least(g, a) and not mis.alpha_at_least(g, a + 1)


def test_lexicographic_tiebreak():
    # C4: optima {1,3} and {2,4}; must return {1,3}
    g = embedded_cycle(4)
    assert mis.mis_exact(g) == (1, 3)


def test_planar_corpus_alpha_at_least_consistency():
    for seed in range(6):
        g = generate(GenSpec(seed=seed, n=18))
        a = mis.alpha(g)
        assert a == brute_alpha(g)
        assert mis.alpha_at_least(g, a)
        assert not mis.alpha_at_least(g, a + 1)


def test_many_components_at_the_default_recursion_limit():
    # the components are solved in one frame, so the stack does not grow
    # with their number
    g = octahedra(400)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert mis.alpha(g) == 800
        assert mis.mis_exact(g)[:4] == (1, 6, 7, 12)
    finally:
        sys.setrecursionlimit(limit)


def test_budget_guard(monkeypatch):
    rng = random.Random(9)
    n = 40
    edges = {
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < 0.5
    }

    class Bare:
        vertices = tuple(range(1, n + 1))

        def neighbors(self, v):
            return frozenset(b if a == v else a for a, b in edges if v in (a, b))

        def has_vertex(self, v):
            return 1 <= v <= n

    monkeypatch.setenv("PIG_ORACLE_BUDGET", "5")
    with pytest.raises(mis.OracleBudgetExceeded):
        mis.alpha(Bare())


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("PIG_ORACLE_BUDGET", "123")
    assert mis.default_budget() == 123
    monkeypatch.setenv("PIG_ORACLE_BUDGET", "junk")
    assert mis.default_budget() == mis.DEFAULT_BUDGET


def test_big_seven_plus_windows_have_alpha_four():
    # windows holding a 7⁺-vertex and its whole neighborhood, 10+ vertices,
    # always contain an independent 4-set in these triangulations
    rng = random.Random(0)
    checked = 0
    for seed in range(12):
        g = generate(
            GenSpec(seed=seed, n=60, min_degree5=True, no_separating_triangle=True)
        )
        for v in g.vertices:
            if g.degree(v) < 7:
                continue
            closed = {v} | set(g.neighbors(v))
            extra = [u for u in g.vertices if u not in closed]
            rng.shuffle(extra)
            window = closed | set(extra[: max(0, 10 - len(closed)) + 2])
            if len(window) >= 10:
                assert mis.alpha_at_least(g, 4, vertices=window)
                checked += 1
            if checked >= 40:
                return
    assert checked > 0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_small_graphs())
def test_small_graphs_match_brute_force(g):
    a = brute_alpha(g)
    assert mis.alpha(g) == a
    assert mis.mis_exact(g) == _lex_smallest_optimum(g, a)
    assert mis.alpha_at_least(g, a)
    assert not mis.alpha_at_least(g, a + 1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_degree_two_graphs())
def test_degree_two_graphs_match_exhaustive_search(g):
    # most vertices have degree 2, so most nodes fold, and folds of folds
    a, best = _exhaustive_optimum(g)
    assert mis.alpha(g) == a
    assert mis.alpha_at_least(g, a)
    assert not mis.alpha_at_least(g, a + 1)
    assert mis.mis_exact(g) == best


def test_exhaustive_optimum_matches_brute_force():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 10)
        g = _Bare(n, [e for e in itertools.combinations(range(1, n + 1), 2)
                      if rng.random() < 0.35])
        a = brute_alpha(g)
        assert _exhaustive_optimum(g) == (a, _lex_smallest_optimum(g, a))


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 50, 299, 300])
def test_long_cycles_and_paths_fold_in_one_node(k):
    # peel and fold take every other vertex from the lowest in one node;
    # a branch would take three nodes at least
    cycle = embedded_cycle(k)
    path = _Bare(k, [(i, i + 1) for i in range(1, k)])
    for g, best in ((cycle, range(1, 2 * (k // 2), 2)), (path, range(1, k + 1, 2))):
        assert mis.mis_exact(g) == tuple(best)
        s = mis._solver(g, None)
        pool = (1 << k) - 1
        assert s.solve(pool, pool)[0] == len(best)
        t = mis._solver(g, None)
        t.lex_smallest_optimum(pool)
        assert (s.nodes, t.nodes) == (1, 1)


@pytest.mark.parametrize(
    "g, expected",
    [
        # K4 on 1..4 with a pendant vertex 5 at 1
        (_Bare(5, [*itertools.combinations(range(1, 5), 2), (1, 5)]), (2, 5)),
        # K4s on {1,2,3,4} and {1,2,3,5}
        (stacked_k4s(), (4, 5)),
        # N[1] = {1,2,3} lies inside N[2] = {1,2,3,4} and N[3] = {1,2,3,5}
        (_Bare(5, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)]), (1, 4)),
    ],
)
def test_domination_cases(g, expected):
    assert mis.alpha(g) == brute_alpha(g) == len(expected)
    assert mis.mis_exact(g) == _lex_smallest_optimum(g, len(expected)) == expected
    # every vertex is peeled or dominated: one node, no branching
    s = mis._solver(g, None)
    pool = (1 << len(s.ids)) - 1
    s.solve(pool, pool)
    assert s.nodes == 1


@pytest.mark.parametrize("n, seed", sorted(ORACLE_EXACT_OPTIMA))
def test_oracle_exact_optima_pinned(n, seed):
    assert mis.mis_exact(_oracle_graph(n, seed)) == ORACLE_EXACT_OPTIMA[n, seed]


def test_branch_nodes_flagged_n70():
    # without the memo and the domination rule this takes 19,011 nodes
    s = mis._solver(_oracle_graph(70, 7), None)
    pool = (1 << len(s.ids)) - 1
    assert s.solve(pool, pool)[0] == 22
    assert s.nodes <= 1_000


# (n, seed): branch nodes of alpha and of mis_exact, each on a fresh solver.
# They pin the search tree: a change to the peel, the fold, the split or the
# choice of branch vertex moves them, and so does a change to how witnesses
# are built (mis_exact queries only the vertices its witness leaves open).
# To re-record them, run ``PYTHONPATH=src python tests/test_mis.py`` from the
# repo root and say in the change log why they moved.
ORACLE_NODES = {
    (50, 7): (55, 74),
    (55, 7): (19, 33),
    (60, 0): (51, 59),
    (65, 0): (93, 104),
    (70, 0): (71, 128),
    (70, 1): (61, 106),
    (70, 7): (49, 77),
}


def _oracle_nodes(n, seed):
    g = _oracle_graph(n, seed)
    s = mis._solver(g, None)
    pool = (1 << len(s.ids)) - 1
    s.solve(pool, pool)
    t = mis._solver(g, None)
    t.lex_smallest_optimum(pool)
    return s.nodes, t.nodes


@pytest.mark.parametrize("n, seed", sorted(ORACLE_NODES))
def test_branch_nodes_pinned(n, seed):
    assert _oracle_nodes(n, seed) == ORACLE_NODES[n, seed]


class _PeelEverything(mis._Solver):
    """Starts every node's peel at every vertex of its pool."""

    def solve(self, pool, dirty):
        return super().solve(pool, pool)


@st.composite
def _sparse_graphs(draw, max_n, max_degree):
    """Graphs on 1..n whose degrees stay at most max_degree: paths,
    cycles, pendant cycles and cubic pieces."""
    n = draw(st.integers(1, max_n))
    pairs = draw(st.permutations(list(itertools.combinations(range(1, n + 1), 2))))
    deg = dict.fromkeys(range(1, n + 1), 0)
    edges = []
    for a, b in pairs[: draw(st.integers(0, 2 * n))]:
        if deg[a] < max_degree and deg[b] < max_degree:
            deg[a] += 1
            deg[b] += 1
            edges.append((a, b))
    return _Bare(n, edges)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(_small_graphs(), _sparse_graphs(24, 4), _degree_two_graphs()))
def test_dirty_peel_matches_full_peel(g):
    # no vertex outside dirty is peelable or of degree 2, so peeling only
    # from dirty removes and folds what peeling from every vertex does,
    # node for node
    ids = list(g.vertices)
    nbr = {v: g.neighbors(v) for v in ids}
    s = mis._Solver(ids, nbr, mis.DEFAULT_BUDGET)
    ref = _PeelEverything(ids, nbr, mis.DEFAULT_BUDGET)
    pool = (1 << len(ids)) - 1
    assert s.solve(pool, pool) == ref.solve(pool, pool)
    assert s.nodes == ref.nodes
    assert s.lex_smallest_optimum(pool) == ref.lex_smallest_optimum(pool)
    assert s.nodes == ref.nodes


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_sparse_graphs(16, 3))
def test_max_degree_three_matches_brute_force(g):
    # paths, pendant cycles and pendant triangles: the fold needs a peeled
    # pool, and a missed peel would fold a vertex whose neighbours are
    # adjacent
    a = brute_alpha(g)
    assert mis.alpha(g) == a
    assert mis.mis_exact(g) == _lex_smallest_optimum(g, a)


def test_duplicate_vertices_count_once():
    triangle = _Bare(3, [(1, 2), (2, 3), (1, 3)])
    assert mis.alpha(triangle, [1, 1]) == 1
    assert mis.mis_exact(triangle, [1, 1]) == (1,)
    assert not mis.alpha_at_least(triangle, 2, [1, 1])
    assert mis.alpha_at_least(triangle, 1, iter([3, 3, 3]))


def _assert_witnesses(s):
    for pool, (a, w) in s.memo.items():
        assert w & ~pool == 0
        assert w.bit_count() == a
        q = w
        while q:
            b = q & -q
            q ^= b
            assert not s.masks[b.bit_length() - 1] & w


class _OneAtATimeDomination(mis._Solver):
    """Drops dominated neighbours one at a time, re-testing each against the
    closed neighbourhood left by the drops before it; peels and folds like
    the solver otherwise."""

    def _peel(self, pool, dirty):
        masks = self.masks
        taken = twos = 0
        folds = []
        p = pool & dirty
        while True:
            while p:
                low = p & -p
                p ^= low
                if not pool & low:
                    continue
                i = low.bit_length() - 1
                nb = masks[i] & pool
                if nb == 0:
                    pool ^= low
                    taken |= low
                elif nb & (nb - 1) == 0:
                    pool &= ~(low | nb)
                    taken |= low
                    p |= masks[nb.bit_length() - 1] & pool
                else:
                    closed = nb | low
                    q = nb
                    while q:
                        b = q & -q
                        q ^= b
                        j = b.bit_length() - 1
                        if not closed & ~(masks[j] | b):
                            pool ^= b
                            closed ^= b
                            p |= masks[j] & pool
                    if closed == nb | low and nb.bit_count() == 2:
                        twos |= low
            twos &= pool
            while twos:
                low = twos & -twos
                twos ^= low
                nb = masks[low.bit_length() - 1] & pool
                if nb.bit_count() == 2:
                    break
            else:
                return pool, taken, folds
            x = 1 << self._fold_vertex(low.bit_length() - 1, nb)
            folds.append((low, nb, x))
            pool = pool & ~(low | nb) | x
            p = x | masks[x.bit_length() - 1] & pool


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(_small_graphs(), _sparse_graphs(24, 4), _degree_two_graphs()))
def test_witnesses_are_optima(g):
    # every memo entry's witness is an independent subset of its pool of
    # size α, after alpha and after the lexicographic search; pools and
    # witnesses may hold fold vertices
    ids = list(g.vertices)
    nbr = {v: g.neighbors(v) for v in ids}
    pool = (1 << len(ids)) - 1
    s = mis._Solver(ids, nbr, mis.DEFAULT_BUDGET)
    s.solve(pool, pool)
    _assert_witnesses(s)
    s.lex_smallest_optimum(pool)
    _assert_witnesses(s)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(_small_graphs(), _sparse_graphs(24, 4), _degree_two_graphs()))
def test_batch_domination_matches_one_at_a_time(g):
    # any two neighbours of i that dominate it are adjacent, so dropping
    # them all at once drops what dropping them in turn drops
    ids = list(g.vertices)
    nbr = {v: g.neighbors(v) for v in ids}
    pool = (1 << len(ids)) - 1
    s = mis._Solver(ids, nbr, mis.DEFAULT_BUDGET)
    ref = _OneAtATimeDomination(ids, nbr, mis.DEFAULT_BUDGET)
    assert s.solve(pool, pool) == ref.solve(pool, pool)
    assert s.nodes == ref.nodes
    s = mis._Solver(ids, nbr, mis.DEFAULT_BUDGET)
    ref = _OneAtATimeDomination(ids, nbr, mis.DEFAULT_BUDGET)
    assert s.lex_smallest_optimum(pool) == ref.lex_smallest_optimum(pool)
    assert s.nodes == ref.nodes


if __name__ == "__main__":
    print("ORACLE_NODES = {")
    for key in sorted(ORACLE_NODES):
        print(f"    {key}: {_oracle_nodes(*key)},")
    print("}")
