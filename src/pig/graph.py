"""Embedded planar graphs given by rotation systems.

A graph is stored as the clockwise cyclic order of neighbors around every
vertex.  That order determines the embedding combinatorially: faces are the
orbits of the next-dart rule, and validity is checked through Euler's
formula.  Structural operations return new graphs and leave their input
whole, with one exception: the step walk of ``pig.extract`` marks each
sub-instance it holds alone, and ``triangulate`` of such a graph hands its
maps to the child, edited in place, after which the graph refuses reads.

Vertex ids are positive integers.  They are stable across deletions and are
never reused: graphs derived by contraction mint fresh ids starting at
``next_id``, so a trace of reductions can keep naming vertices of earlier
stages unambiguously.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from collections import defaultdict
from typing import Collection, Iterable, Iterator, Mapping, Sequence


# An edit's report: the darts (x, v) whose successor at v it changed, in the
# parent graph and in the child.
Darts = tuple[list[tuple[int, int]], list[tuple[int, int]]]


class GraphError(ValueError):
    """Structural problem with a graph or an operation on it."""


class ParseError(GraphError):
    """Malformed rotation-format document."""


class EmbeddingError(GraphError):
    """Rotation system fails validation (symmetry, simplicity, Euler trace)."""


class _Consumed:
    """The maps of a graph whose edit consumed it: its child holds them
    now, so every read raises."""

    def _refuse(self, *args):
        raise GraphError("graph consumed by an edit: its child holds its maps")

    __getitem__ = __iter__ = __len__ = __contains__ = get = keys = items = _refuse


_CONSUMED = _Consumed()


class EmbeddedGraph:
    """Simple plane graph as a clockwise rotation system.

    ``rotations`` maps each vertex id to the cyclic sequence of its
    neighbors.  The face tracing rule: the dart (u, v) is followed by
    (v, w) where w is the successor of u in the rotation at v.

    A graph built here is validated whole, and so is a ``subgraph`` under
    half the parent, in O(|keep|).  Every other derived graph (``subgraph``,
    ``delete_set``, ``contract_set``, ``triangulate``) is one checked local
    edit, ``_edit``: it shares the parent's unchanged rotations and neighbor
    sets, checks only the rotations the edit touched, and re-traces only
    the faces through the darts the edit names as changed; the faces that
    an edit of a triangulation removes are counted from degrees,
    ``_lost_faces``, since the parent is checked already.  Deletion and
    contraction share one rewrite of the survivors' rotations,
    ``_without``.  ``triangulate`` chords the holes of the fresh child in
    place, ``_fill``, splicing the chords into the rewritten rotations and
    checking only what the chords add.  Every graph knows its face count
    (an isolated vertex is one face), its non-triangular faces and its
    number of components c, with n - m + faces = 2c.

    An edit copies the parent's two maps, except ``triangulate``'s edit of
    a graph the step walk owns (``_owned``, set by the walk on each
    sub-instance and on no other graph): that one consumes the parent.
    The child takes the maps over and edits them in place, and the parent
    then raises ``GraphError`` on every read of them; its ``m`` stays
    readable, so a caller can still count the edges the call added.

    An edit also hands its child the degree buckets, and the separating
    triangles the parent knew with the vertices it rewrote (chord ends and
    the fresh vertex too) or removed added to those pending; a query,
    ``separating_triangles``, resolves them.
    """

    __slots__ = (
        "_rot", "_adj", "_next_id", "_faces", "_m", "_nf", "_holes", "_ncomp",
        "_buckets", "_septris", "_stale", "_owned",
    )

    def __init__(
        self,
        rotations: Mapping[int, Sequence[int]],
        *,
        next_id: int | None = None,
    ):
        rot: dict[int, tuple[int, ...]] = {
            v: tuple(ns) for v, ns in rotations.items()
        }
        self._rot = rot
        self._adj = {v: frozenset(ns) for v, ns in rot.items()}
        self._m = sum(len(ns) for ns in rot.values()) // 2
        top = max(rot, default=0)
        self._next_id = max(next_id or 0, top + 1)
        self._faces: tuple[tuple[int, ...], ...] | None = None
        # face count, non-triangular faces (canonical, in face order) and
        # the number of components, which _validate sets
        self._nf: int | None = None
        self._holes: tuple[tuple[int, ...], ...] | None = None
        self._ncomp: int | None = None
        self._buckets: dict[int, set[int]] | None = None  # by degree, on demand
        self._septris: tuple | None = None  # separating triangles, on demand
        self._stale: set[int] | None = None  # vertices rewritten since _septris
        self._owned = False  # held by the step walk alone: triangulate consumes it
        self._validate()

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._rot)

    @property
    def m(self) -> int:
        return self._m

    @property
    def next_id(self) -> int:
        return self._next_id

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self._rot))

    def has_vertex(self, v: int) -> bool:
        return v in self._rot

    def degree(self, v: int) -> int:
        return len(self._rot[v])

    def min_degree(self) -> int:
        return min((len(ns) for ns in self._rot.values()), default=0)

    def by_degree(self, top: int) -> Iterator[int]:
        """The vertices of degree at most ``top``, in (degree, id) order.

        The degree buckets behind this are built on the first call; a graph
        derived by a local edit takes its parent's over and moves only the
        vertices the edit touched.  A bucket is sorted only if the caller
        takes more than its smallest vertex."""
        if self._buckets is None:
            self._buckets = {}
            for v, ns in self._rot.items():
                self._buckets.setdefault(len(ns), set()).add(v)
        for d in range(top + 1):
            if bucket := self._buckets.get(d):
                yield min(bucket)
                yield from sorted(bucket)[1:]

    def rotation(self, v: int) -> tuple[int, ...]:
        return self._rot[v]

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v) for u in sorted(self._rot) for v in self._rot[u] if u < v
        ]

    def __contains__(self, v: int) -> bool:
        return v in self._rot

    def __repr__(self) -> str:
        return f"EmbeddedGraph(n={self.n}, m={self.m})"

    # -- validation --------------------------------------------------------

    def _validate(self) -> None:
        for v in self._rot:
            if not isinstance(v, int) or v <= 0:
                raise EmbeddingError(f"vertex id {v!r} is not a positive int")
        self._check_rotations(self._rot)
        nf = self._face_stats()[0]
        self._ncomp = _euler(self.n, self._m, nf, len(self.components()))

    def _check_rotations(self, vs: Iterable[int]) -> None:
        """Rotations of ``vs``: no repeats, no loops, symmetric."""
        rot, adj = self._rot, self._adj
        for v in vs:
            ns = rot[v]
            if len(adj[v]) != len(ns):
                raise EmbeddingError(f"repeated neighbor in rotation of {v}")
            if v in adj[v]:
                raise EmbeddingError(f"loop at vertex {v}")
            for u in ns:
                if u not in rot:
                    raise EmbeddingError(f"vertex {v} lists unknown vertex {u}")
                if v not in adj[u]:
                    raise EmbeddingError(
                        f"asymmetric adjacency: {v} lists {u} but not vice versa"
                    )

    # -- faces -------------------------------------------------------------

    def faces(self) -> tuple[tuple[int, ...], ...]:
        """All face walks, each a cyclic vertex sequence, in a fixed order."""
        if self._faces is None:
            rot = self._rot
            self._faces = tuple(
                _walks(rot, ((u, v) for u in sorted(rot) for v in rot[u]))
            )
        return self._faces

    def _face_stats(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """Face count (an isolated vertex counts as one face) and the
        non-triangular faces."""
        if self._holes is None:
            fs = self.faces()
            self._nf = len(fs) + sum(1 for ns in self._rot.values() if not ns)
            self._holes = tuple(f for f in fs if len(f) != 3)
        return self._nf, self._holes

    def is_triangulation(self) -> bool:
        return self.n >= 3 and not self._face_stats()[1]

    # -- traversal ---------------------------------------------------------

    def components(self, avoid: Iterable[int] = ()) -> list[tuple[int, ...]]:
        """Connected components of this graph less ``avoid``, as sorted
        vertex tuples, smallest-first: one search over this graph's
        adjacency per component, and no graph built."""
        left = self._rot.keys() - self._known(avoid)
        if self._ncomp == 1 and len(left) == len(self._rot):
            return [tuple(sorted(left))]
        out = []
        for s in sorted(left):
            if s in left:
                comp = _reach(self._adj, [s], left)
                left -= comp
                out.append(tuple(sorted(comp)))
        return out

    def is_connected(self) -> bool:
        return self._ncomp <= 1

    def apexes(self, u: int, v: int) -> tuple[int, int]:
        """The two face-neighbors of edge uv: predecessor and successor of v
        around u.  In a triangulation these are the corners of the two faces
        on edge uv."""
        ns = self._rot[u]
        i = ns.index(v)
        return ns[i - 1], ns[(i + 1) % len(ns)]

    # -- derived graphs ------------------------------------------------------

    def subgraph(self, keep: Iterable[int]) -> "EmbeddedGraph":
        """Induced subgraph; keeps ids and the inherited embedding."""
        ks = self._known(keep)
        if 2 * len(ks) >= len(self._rot):
            return self._edit(self._rot.keys() - ks)
        # A small part: built and checked whole, in O(|keep|).
        new = {v: tuple(u for u in self._rot[v] if u in ks) for v in sorted(ks)}
        return EmbeddedGraph(new, next_id=self._next_id)

    def delete_set(self, drop: Iterable[int]) -> "EmbeddedGraph":
        return self.subgraph(self._rot.keys() - self._known(drop))

    def _known(self, vs: Iterable[int]) -> set[int]:
        """``vs`` as a set; a GraphError unless all are vertices here."""
        out = set(vs)
        bad = out.difference(self._rot)  # probes the dict: O(|vs|)
        if bad:
            raise GraphError(f"unknown vertices {sorted(bad)}")
        return out

    def induces_connected(self, vs: Iterable[int]) -> bool:
        """Whether ``vs`` is non-empty and induces a connected subgraph: one
        search over this graph's adjacency, limited to ``vs``."""
        vs = set(vs)
        return bool(vs) and len(_reach(self._adj, [min(vs)], vs)) == len(vs)

    def contract_set(
        self, part: Iterable[int], drop: Iterable[int] = ()
    ) -> tuple["EmbeddedGraph", int]:
        """Contract the connected set ``part`` to one fresh vertex and
        delete the vertices ``drop``, in one edit.

        Rotations are merged along the boundary walk; loops are dropped and
        parallel edges collapsed to the slot appearing first.  Returns the
        new graph and the fresh vertex id.  Only the rotations at the part,
        ``drop`` and their neighbors are read or rewritten.  The result is
        ``contract_set(part)`` followed by ``delete_set(drop)``.
        """
        return self._edit(*self._contraction(part, drop)), self._next_id

    def _contraction(
        self, part: Iterable[int], drop: Iterable[int]
    ) -> tuple[set[int], dict[int, int], int]:
        """What ``contract_set`` removes, its ``at`` and its component count."""
        ps, ds = sorted(self._known(part)), self._known(drop)
        if not ps:
            raise GraphError("cannot contract an empty set")
        if ds.intersection(ps):
            raise GraphError("cannot contract and delete the same vertex")
        if not self.induces_connected(ps):
            raise GraphError(f"contraction set {ps} does not induce a connected subgraph")

        rot = self._rot
        # The merged rotation as (owner, target) darts, owner in the part.
        root = ps[0]
        ring = [(root, w) for w in rot[root]]
        merged = {root}
        remaining = set(ps[1:])
        while remaining:
            pick = next(
                (i for i, (_, w) in enumerate(ring) if w in remaining), None
            )
            if pick is None:  # unreachable for connected parts
                raise GraphError("contraction lost connectivity")
            p, v = ring[pick]
            remaining.discard(v)
            merged.add(v)
            rv = rot[v]
            j = rv.index(p)
            ring[pick:pick + 1] = [(v, x) for x in rv[j + 1:] + rv[:j]]
            # Parallel edges between the merged vertices became loops.
            ring = [d for d in ring if d[1] not in merged]

        # Collapse parallel edges at the merged vertex, keeping first slots.
        at: dict[int, int] = {}  # neighbor -> its first merged neighbor
        for p, w in ring:
            at.setdefault(w, p)
        # A component of this graph inside ``drop`` vanishes.
        adj, ncomp = self._adj, self._ncomp
        left = ds - _reach(adj, [d for d in ds if not adj[d] <= ds], ds)
        while left:
            ncomp -= 1
            left -= _reach(adj, [min(left)], left)
        return merged | ds, at, ncomp

    def _without(
        self, gone: Collection[int], at: Mapping[int, int] | None = None,
    ) -> tuple[dict[int, list[int]], Darts]:
        """The rotations, as lists, and the dart report of an edit that
        removes ``gone``: every survivor drops its gone neighbors from its
        rotation.  With ``at`` (a neighbor of the contracted vertices -> its
        first contracted neighbor, in the merged rotation's order) the edit
        is a contraction, even if ``at`` is empty: the fresh vertex
        ``next_id`` has the surviving keys of ``at`` as its rotation and
        takes the slot of each neighbor's first contracted neighbor."""
        rot = self._rot
        new: dict[int, list[int]] = {}
        darts: Darts = ([], [])
        lost: dict[int, set[int]] = {}  # a survivor's gone neighbors
        for v in gone:
            for u in rot[v]:
                darts[0].append((u, v))
                if u not in gone:
                    lost.setdefault(u, set()).add(v)
        fresh = self._next_id
        if at is not None:
            new[fresh] = [w for w in at if w not in gone]
            darts[1].extend((w, fresh) for w in new[fresh])
        for v, ls in lost.items():
            ns, first = list(rot[v]), at.get(v) if at else None
            for u in ls:
                if u == first:
                    ns[ns.index(u)] = fresh
                else:
                    ns.remove(u)
            new[v] = ns
            inserted = () if first is None else (fresh,)
            _changed_darts(v, rot[v], ns, ls, inserted, darts)
        return new, darts

    def _lost_faces(
        self, gone: set[int], vs: Iterable[int], darts: Iterable[tuple[int, int]],
    ) -> tuple[int, list[tuple[int, ...]]]:
        """``_local_faces`` here of ``darts``, the parent-side darts that
        ``_without`` reports for removing ``gone`` (``vs`` the touched and
        gone vertices): the faces that touch ``gone``.  In a connected
        triangulation with n >= 4 the faces are distinct triangles and v
        lies on deg(v) of them, so they number sum deg(v) - sum_f (|f &
        gone| - 1), f over the faces on the edges inside ``gone``, and none
        is traced."""
        rot, adj = self._rot, self._adj
        if self._ncomp != 1 or len(rot) < 4 or self._face_stats()[1]:
            return _local_faces(rot, vs, darts)
        shared = {
            frozenset((u, v, x)) for u in gone for v in adj[u] & gone if u < v
            for x in self.apexes(u, v)
        }
        count = sum(len(rot[v]) for v in gone)
        return count - sum(len(f & gone) - 1 for f in shared), []

    def _edit(
        self, gone: Collection[int], at: Mapping[int, int] | None = None,
        ncomp: int | None = None, fill: bool = False,
    ) -> "EmbeddedGraph":
        """The child graph: this graph without ``gone``, and with the fresh
        vertex ``next_id`` if ``at`` is given (a contraction, ``_without``),
        checked where it differs.  The maps are copied, not rebuilt, and the
        degree buckets and the known separating triangles are handed on.
        With ``fill`` (``triangulate``'s edit) a connected child's holes are
        chorded, ``_fill``, before any rewritten rotation is written in its
        final form, and a graph the step walk owns is consumed: the child
        edits its maps, and its pending set, in place.

        ``_without`` names the darts (x, v) of this graph and of the child
        whose successor at v the edit changed, and faces are re-traced from
        these darts alone; the faces this graph loses are counted by
        ``_lost_faces``, from degrees when it is a triangulation.  ``ncomp``
        is the component count the edit keeps, or None for a deletion;
        Euler's formula is checked by ``_euler``.  A contraction keeps every
        edge between survivors and ties its fresh vertex to one component,
        so its count holds if one search from the fresh vertex, limited to
        the touched vertices, reaches them all; otherwise the components are
        counted afresh.
        """
        new, darts = self._without(gone, at)
        was, had, m, (nf, holes) = self._rot, self._adj, self._m, self._face_stats()
        edited = [v for v in new if v in was]
        # what the edit needs of this graph, read before its maps change
        before, old_holes = self._lost_faces(gone, [*edited, *gone], darts[0])
        dropped = {_canonical(was, h) for h in old_holes}
        lost = [(v, len(was[v]), had[v]) for v in itertools.chain(edited, gone)]
        known, stale = self._septris, self._stale or set()
        if fill and self._owned:
            rot, adj = was, had
            self._rot = self._adj = _CONSUMED
            self._faces = self._holes = self._septris = self._stale = None
        else:
            rot, adj = dict(was), dict(had)
            stale = set(stale)
        for v in gone:
            del rot[v], adj[v]
        rot.update(new)
        adj.update((v, frozenset(ns)) for v, ns in new.items())
        g = EmbeddedGraph.__new__(EmbeddedGraph)
        g._rot, g._adj, g._faces = rot, adj, None
        g._next_id = self._next_id + (at is not None)
        g._buckets = g._septris = g._stale = None
        g._owned = False
        g._check_rotations(new)
        degrees = sum(map(len, new.values()))
        # an untouched survivor kept its rotation: what it lists must still
        # exist and list it back
        for v, d, ns in lost:
            degrees -= d
            for u in ns.difference(adj.get(v, ())):
                if u in rot and u not in new:
                    raise EmbeddingError(
                        f"asymmetric adjacency: {u} lists {v} but not vice versa"
                    )
        g._m = m + degrees // 2
        # A face changed iff one of its darts got a new successor.
        count, new_holes = _local_faces(rot, new, darts[1])
        nf += count - before
        holes = [h for h in holes if h not in dropped] + new_holes
        if at is not None and len(_reach(adj, [self._next_id], set(new))) != len(new):
            g._ncomp = None
            ncomp = len(g.components())
        g._nf = nf
        g._holes = _sorted_holes(rot, holes)
        g._ncomp = _euler(len(rot), g._m, nf, ncomp)
        if self._buckets is not None:
            g._buckets, self._buckets = self._buckets, None
            for v, d, _ in lost:
                g._buckets[d].discard(v)
        if fill and g._holes and len(rot) >= 3 and g.is_connected():
            g._fill(new)
        else:
            g._settle(new)
        if known is not None:  # hand on what is known, with what changed
            stale.update(gone, new)  # new now holds the chord ends too
            if 2 * len(stale) < len(rot):
                g._septris, g._stale = known, stale
        return g

    def _settle(self, spliced: Mapping[int, list[int]]) -> None:
        """Write each rotation of ``spliced`` as its final tuple and file its
        vertex in its degree bucket, which it is out of."""
        rot, buckets = self._rot, self._buckets
        for v, ns in spliced.items():
            rot[v] = tuple(ns)
            if buckets is not None:
                buckets.setdefault(len(ns), set()).add(v)

    def _fill(self, spliced: dict[int, list[int]]) -> None:
        """Chord every hole, in place: this graph is a connected child that
        no one else holds yet.  Chords fan out of the smallest-id vertex
        available on each face; ears are cut when a fan chord would be
        parallel to an existing edge.  A vertex that fans out takes its
        chords in one splice of its rotation.  ``spliced`` holds the
        rotations the edit rewrote, as the lists this graph's map holds,
        out of their degree buckets (none, for a child already settled);
        the chords are spliced into these lists, and every rotation
        touched is then ``_settle``d once.

        Only what the chords add is checked: each chord end's rotation is
        its checked neighbors plus its chords (noted at both ends), each
        once; the faces through the chord darts, none a hole, traced as
        triangles (``_triangles``) or else in full; Euler with one
        component; and 3n - 6 edges.
        """
        rot, adj, buckets = self._rot, self._adj, self._buckets
        chords: defaultdict[int, set[int]] = defaultdict(set)

        def ring(v: int) -> list[int]:
            ns = spliced.get(v)
            if ns is None:
                ns = spliced[v] = list(rot[v])
                if buckets is not None:
                    buckets[len(ns)].discard(v)
            return ns

        stack = [list(f) for f in self._holes]
        while stack:
            walk = stack.pop()
            k = len(walk)
            # ear positions p where chord walk[p]..walk[p+2] is addable
            best = None
            for p in range(k):
                a, b = walk[p], walk[(p + 2) % k]
                if (best is None or a < walk[best]) and a != b and (
                    b not in adj[a] and b not in chords.get(a, ())
                ):
                    best = p
            if best is None:
                raise EmbeddingError("face admits no chord; cannot triangulate")
            walk = walk[best + 1:] + walk[:best + 1]  # the ear's vertex a last
            a, j = walk[-1], 1
            _add_chord(chords, a, walk[1])
            # Cutting walk[j] changes only the ears of the two vertices before
            # it, and a chord only takes candidates away.  So if a is on the
            # walk once and the vertex before it is larger, a's next ear is the
            # next best if addable: a fans out to walk[1..j].
            if walk[-2] > a and walk.count(a) == 1:
                fan = chords[a]
                while j < k - 3 and walk[j + 1] not in adj[a] and walk[j + 1] not in fan:
                    j += 1
                    _add_chord(chords, a, walk[j])
            # Splice the chords in, each after the walk's vertex before it.
            ra = ring(a)
            i = ra.index(walk[-2]) + 1
            ra[i:i] = walk[j:0:-1]
            for b, p in zip(walk[1:j + 1], walk):
                rb = ring(b)
                rb.insert(rb.index(p) + 1, a)
            if k - j > 3:
                stack.append(walk[j:])
        for v, cs in chords.items():
            ns = spliced[v]
            now = frozenset(ns)
            if not len(now) == len(ns) == len(adj[v]) + len(cs) or now != adj[v] | cs:
                raise EmbeddingError(f"rotation of {v} is not its own plus its chords")
            adj[v] = now
        self._settle(spliced)
        self._m += sum(map(len, chords.values())) // 2
        darts = [(a, b) for a, cs in chords.items() for b in cs]
        count, left = _triangles(rot, darts), []
        if count is None:
            count, left = _local_faces(rot, (), darts)
        self._nf += count - len(self._holes)
        self._holes = ()
        _euler(len(rot), self._m, self._nf, 1)
        if left or self._m != 3 * len(rot) - 6:
            raise EmbeddingError("triangulation postcondition failed")

    # -- serialization -------------------------------------------------------

    def canonical_rotations(self) -> dict[int, tuple[int, ...]]:
        """Rotations rotated to start at the smallest neighbor."""
        out = {}
        for v in sorted(self._rot):
            ns = self._rot[v]
            if ns:
                k = ns.index(min(ns))
                ns = ns[k:] + ns[:k]
            out[v] = ns
        return out

    def serialize(self) -> str:
        """Rotation-format document; relabels to 1..n if ids are sparse."""
        vs = self.vertices
        remap = {v: i + 1 for i, v in enumerate(vs)}
        lines = [f"{self.n} {self.m}"]
        if any(v != remap[v] for v in vs):
            lines.insert(0, "# vertices relabeled to 1..n")
        for v, ns in self.canonical_rotations().items():
            lines.append(f"{remap[v]}: " + " ".join(str(remap[u]) for u in ns))
        return "\n".join(lines) + "\n"

    def graph_hash(self) -> str:
        """Hash of the canonical rotation system with original ids."""
        h = hashlib.sha256()
        for v, ns in self.canonical_rotations().items():
            h.update(f"{v}:{','.join(map(str, ns))};".encode())
        return h.hexdigest()


# -- face tracing ------------------------------------------------------------


def _euler(n: int, m: int, f: int, ncomp: int | None) -> int:
    """The component count c, checked by Euler's formula n - m + f = 2c.

    ``f`` counts an isolated vertex as one face.  A component of a simple,
    symmetric rotation system has n_i - m_i + f_i = 2 - 2 g_i with genus
    g_i >= 0, so the sum is 2c exactly when every component is plane.
    ``ncomp`` is c where it is known; a deletion, which keeps a plane graph
    plane, passes None and reads c off the formula.
    """
    c, odd = divmod(n - m + f, 2)
    if odd or (c != ncomp if ncomp is not None else not min(n, 1) <= c <= n):
        raise EmbeddingError(f"Euler trace fails: n={n} m={m} f={f}" + (
            "" if ncomp is None else f", {ncomp} components"
        ))
    return c


def _reach(
    adj: Mapping[int, frozenset[int]], starts: Collection[int], within: set[int]
) -> set[int]:
    """The vertices reached from ``starts`` by paths inside ``within``."""
    seen, stack = set(starts), list(starts)
    while stack:
        for u in adj[stack.pop()] & within:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def _walks(
    rot: Mapping[int, Sequence[int]], darts: Iterable[tuple[int, int]]
) -> Iterator[tuple[int, ...]]:
    """The face walks through ``darts``, each begun at the first of its
    darts met.  With every dart, scanning the vertices in sorted order and
    each rotation in order, these are all the faces in their fixed order."""
    seen: set[tuple[int, int]] = set()
    for dart in darts:
        if dart in seen:
            continue
        walk = []
        a, b = dart
        while (a, b) not in seen:
            seen.add((a, b))
            walk.append(a)
            ns = rot[b]
            a, b = b, ns[(ns.index(a) + 1) % len(ns)]
        yield tuple(walk)


def _changed_darts(
    v: int, was: Sequence[int], now: Sequence[int],
    removed: Collection[int], inserted: Collection[int], darts: Darts,
) -> None:
    """Add to ``darts`` = (old, new) the darts (x, v) whose successor at v
    changed when v's rotation went from ``was`` to ``now`` by dropping the
    neighbors ``removed`` and adding ``inserted``.  A dart keeps its
    successor unless it, or its successor, was dropped or added; so the
    changed darts are those and their predecessors."""
    old, new = darts
    for u in removed:
        p = was[was.index(u) - 1]
        old += ((u, v), (p, v))
        if p not in removed:
            new.append((p, v))
    for u in inserted:
        p = now[now.index(u) - 1]
        new += ((u, v), (p, v))
        if p not in inserted:
            old.append((p, v))


def _triangles(
    rot: Mapping[int, Sequence[int]], darts: Iterable[tuple[int, int]]
) -> int | None:
    """The number of faces through ``darts`` if each is a triangle, else
    None.  A face is read as ``_walks`` reads it, so it raises as a trace
    would."""
    seen: set[tuple[int, int]] = set()
    for a, b in darts:
        if (a, b) in seen:
            continue
        rb = rot[b]
        c = rb[(rb.index(a) + 1) % len(rb)]
        rc, ra = rot[c], rot[a]
        if rc[(rc.index(b) + 1) % len(rc)] != a or ra[(ra.index(c) + 1) % len(ra)] != b:
            return None
        seen.update(((a, b), (b, c), (c, a)))
    return len(seen) // 3


def _local_faces(
    rot: Mapping[int, Sequence[int]],
    vs: Iterable[int],
    darts: Iterable[tuple[int, int]],
) -> tuple[int, list[tuple[int, ...]]]:
    """Count the faces through ``darts``, plus one for each isolated vertex
    of ``vs``, and list the non-triangular ones."""
    count = sum(1 for v in vs if not rot[v])
    holes = []
    for walk in _walks(rot, darts):
        count += 1
        if len(walk) != 3:
            holes.append(walk)
    return count, holes


def _canonical(rot: Mapping[int, Sequence[int]], walk: tuple[int, ...]) -> tuple[int, ...]:
    """The walk begun at its first dart in the fixed face order."""
    k = len(walk)
    keys = [(walk[i], rot[walk[i]].index(walk[(i + 1) % k])) for i in range(k)]
    i = keys.index(min(keys))
    return walk[i:] + walk[:i]


def _sorted_holes(rot: Mapping[int, Sequence[int]], holes) -> tuple[tuple[int, ...], ...]:
    """The walks canonical and in the fixed face order."""
    keyed = (_canonical(rot, h) for h in holes)
    return tuple(sorted(keyed, key=lambda h: (h[0], rot[h[0]].index(h[1]))))


# -- parsing ----------------------------------------------------------------


# A header ``n m`` and a vertex line ``id: u1 u2 ... ud``, in ASCII digits.
_HEADER = re.compile(r"([0-9]+)\s+([0-9]+)")
_VERTEX_LINE = re.compile(r"([0-9]+)\s*:([\s0-9]*)")


def parse_rotation_graph(text: str) -> EmbeddedGraph:
    """Parse a rotation-format document.

    Line 1 is ``n m``; then one line per vertex ``id: u1 u2 ... ud`` giving
    the clockwise rotation.  ``#`` starts a comment.  Ids are 1..n, and
    every number is plain ASCII digits.
    """
    rows = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((ln, line))
    if not rows:
        raise ParseError("empty document")
    ln, first = rows[0]
    head = _HEADER.fullmatch(first)
    if head is None:
        raise ParseError(f"line {ln}: expected 'n m' in digits")
    rot: dict[int, tuple[int, ...]] = {}
    try:
        n, m = int(head[1]), int(head[2])
        for ln, line in rows[1:]:
            row = _VERTEX_LINE.fullmatch(line)
            if row is None:
                raise ParseError(f"line {ln}: malformed vertex line")
            v = int(row[1])
            if v in rot:
                raise ParseError(f"line {ln}: duplicate vertex {v}")
            rot[v] = tuple(map(int, row[2].split()))
    except ParseError:
        raise
    except ValueError:  # more digits than int() converts
        raise ParseError(f"line {ln}: number too long") from None
    if len(rot) != n or sorted(rot) != list(range(1, n + 1)):
        raise ParseError(f"vertex ids must be exactly 1..{n}")
    try:
        g = EmbeddedGraph(rot)
    except EmbeddingError as exc:
        raise ParseError(str(exc)) from None
    if g.m != m:
        raise ParseError(f"header claims m={m} but rotations give m={g.m}")
    return g


# -- structure queries --------------------------------------------------------


def separating_triangles(g: EmbeddedGraph) -> list[tuple[int, int, int]]:
    """The triangles whose removal disconnects the triangulation ``g``,
    sorted: exactly its triangles that are not faces.

    By the Jordan curve theorem a triangle of a simple triangulation that
    is not a face has a vertex on each side, and a face has none on its
    face side.  A triangle uvw is a face iff w is an apex of uv.  The
    apexes of an edge are common neighbors of its ends (one vertex when
    n = 3), so an edge whose ends have at most two lies on no separating
    triangle; only the rare other edges are tested.

    The answer is kept on the graph, and an edit hands it on to its child
    with the vertices whose rotations the edit rewrote or removed, added to
    what the parent had pending.  A triangle whose three rotations are
    unchanged keeps its status, so an answer carried this way keeps the
    triangles that avoid the pending vertices and re-tests only the edges
    at those still here.  A graph built whole, or one whose pending set
    reached half its vertices, sweeps every edge.
    """
    if not g.is_triangulation():
        raise GraphError("separating triangles need a triangulation")
    known, stale = g._septris, g._stale
    if known is None:
        g._septris = tuple(sorted(_nonface_triangles(g, g._adj.keys())))
    elif stale:
        found = {t for t in known if stale.isdisjoint(t)}
        found |= _nonface_triangles(g, stale & g._adj.keys())
        g._septris = tuple(sorted(found))
    g._stale = None
    return list(g._septris)


def _nonface_triangles(
    g: EmbeddedGraph, at: Collection[int]
) -> set[tuple[int, int, int]]:
    """The triangles of ``g`` through an edge at a vertex of ``at`` that are
    not faces, as sorted triples; an edge with both ends in ``at`` is read
    from its smaller end."""
    adj = g._adj
    return {
        tuple(sorted((u, v, w)))
        for u in at for v in adj[u]
        if (v > u or v not in at) and len(common := adj[u] & adj[v]) > 2
        for w in common if w not in g.apexes(u, v)
    }


# -- triangulation -------------------------------------------------------------


def triangulate(
    g: EmbeddedGraph, drop: Iterable[int] = (), part: Iterable[int] = ()
) -> EmbeddedGraph:
    """Add chords until every face is a triangle.

    The result is a supergraph on the same vertex set, so any independent
    set of it is independent in ``g``.  Only the non-triangular faces are
    chorded, by the fan rule of ``_fill``, and only the rotations of chord
    ends are rewritten.

    With ``drop`` or ``part``, the graph chorded is ``g.contract_set(part,
    drop)[0]`` (``g.delete_set(drop)`` without ``part``), returned as it is
    if disconnected or under 3 vertices.  Either way it is one ``_edit`` of
    ``g``, whose child ``_fill`` chords in place.  ``g`` is left whole,
    unless the step walk owns it: then the child takes its maps over, and
    only ``g.m`` still reads.
    """
    gone, at, ncomp = g._contraction(part, drop) if part else (g._known(drop), None, None)
    if not gone and (g.n < 3 or not g.is_connected()):
        raise GraphError("triangulate needs a connected graph on at least 3 vertices")
    return g._edit(gone, at, ncomp, True)


def _add_chord(chords: defaultdict[int, set[int]], a: int, b: int) -> None:
    """Note the chord ab in ``chords``, each vertex's added neighbors."""
    chords[a].add(b)
    chords[b].add(a)


# -- fixture constructions ------------------------------------------------------


def embedded_from_faces(faces: Sequence[Sequence[int]]) -> EmbeddedGraph:
    """Build a rotation system from a face list of a 2-connected plane graph.

    Face orientations are made consistent by propagation across shared
    edges; each undirected edge must lie on exactly two faces.
    """
    fs = [tuple(f) for f in faces]
    by_edge: dict[frozenset[int], list[int]] = {}
    for i, f in enumerate(fs):
        for j in range(len(f)):
            by_edge.setdefault(frozenset((f[j], f[(j + 1) % len(f)])), []).append(i)
    if any(len(v) != 2 for v in by_edge.values()):
        raise GraphError("every edge must lie on exactly two faces")

    oriented: dict[int, tuple[int, ...]] = {0: fs[0]}
    queue = [0]
    while queue:
        i = queue.pop()
        f = oriented[i]
        darts = {(f[j], f[(j + 1) % len(f)]) for j in range(len(f))}
        for j in range(len(f)):
            e = frozenset((f[j], f[(j + 1) % len(f)]))
            for o in by_edge[e]:
                if o == i or o in oriented:
                    continue
                of = fs[o]
                odarts = {(of[x], of[(x + 1) % len(of)]) for x in range(len(of))}
                if odarts & darts:
                    of = tuple(reversed(of))
                oriented[o] = of
                queue.append(o)
    if len(oriented) != len(fs):
        raise GraphError("face adjacency is not connected")

    succ: dict[int, dict[int, int]] = {}
    for f in oriented.values():
        k = len(f)
        for j in range(k):
            x, y, z = f[j - 1], f[j], f[(j + 1) % k]
            succ.setdefault(y, {})[x] = z
    rot = {}
    for v, s in succ.items():
        start = min(s)
        cyc = [start]
        while True:
            nxt = s[cyc[-1]]
            if nxt == start:
                break
            cyc.append(nxt)
        if len(cyc) != len(s):
            raise GraphError(f"rotation at {v} is not a single cycle")
        rot[v] = tuple(cyc)
    return EmbeddedGraph(rot)


def icosahedron() -> EmbeddedGraph:
    u = [2, 3, 4, 5, 6]
    lo = [7, 8, 9, 10, 11]
    faces: list[tuple[int, int, int]] = []
    for k in range(5):
        k1 = (k + 1) % 5
        faces.append((1, u[k], u[k1]))
        faces.append((u[k], lo[k1], u[k1]))
        faces.append((lo[k], lo[k1], u[k]))
        faces.append((12, lo[k1], lo[k]))
    return embedded_from_faces(faces)
