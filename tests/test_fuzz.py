"""Hostile certificates through ``pig check-cert``, in-process.

Hypothesis mutates one location of a valid certificate: it swaps the value
for one of another type, nests it thousands of lists deep, puts in an
integer of thousands of digits, drops the key or adds one.  Whatever the
mutant, the command must end in an exit code of 0-3 and one short line,
never a traceback.
"""

import contextlib
import copy
import io
import json
import tempfile
import time
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import glued_pair
from pig.cli import main
from pig.extract import extract
from pig.graph import parse_rotation_graph

ROT = glued_pair(30, 30).serialize()  # split, triangulate, reduce and exact nodes
CERT = json.loads(extract(parse_rotation_graph(ROT), "3/13").to_json())
SLOT = "@@mutant@@"  # stands for text json.dumps cannot write


def _paths(value, path=()):
    """Every location in a parsed certificate, the whole document first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, sub in items:
        yield from _paths(sub, path + (key,))


PATHS = list(_paths(CERT))
REDUCE_S = next(p for p in PATHS if p[-2:] == ("plan", "S"))

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6,
)
MUTATIONS = st.one_of(
    st.tuples(st.just("swap"), JSON),
    st.tuples(st.just("deep"), st.sampled_from([50, 19_000, 30_000])),
    st.tuples(st.just("huge"), st.sampled_from([40, 4_300, 5_000])),
    st.tuples(st.just("drop"), st.none()),
    st.tuples(st.just("extra"), st.tuples(st.text(max_size=10), JSON)),
)


def _mutant(path, mutation) -> str:
    """The certificate's text with ``mutation`` made at ``path``."""
    kind, arg = mutation
    doc = copy.deepcopy(CERT)
    raw = {"deep": lambda: "[" * arg + "]" * arg, "huge": lambda: "9" * arg}
    new = SLOT if kind in raw else arg
    if kind == "extra":  # a key added to the innermost dict on the path
        at = cur = doc
        for key in path:
            cur = cur[key]
            at = cur if isinstance(cur, dict) else at
        at[arg[0]] = arg[1]
    elif not path:
        doc = new
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    text = json.dumps(doc)
    return text.replace(json.dumps(SLOT), raw[kind]()) if kind in raw else text


def _check_cert(files: Path, text: str) -> tuple[int, str]:
    (files / "g.rot").write_text(ROT)
    (files / "c.cert").write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-cert", str(files / "g.rot"), str(files / "c.cert")])
    return code, out.getvalue() + err.getvalue()


def test_mutants_are_well_formed():
    # the two inputs found by hand: a header n of 5,000 nines, which Python
    # refuses to convert, and a plan S nested 19,000 lists deep
    huge = _mutant(("n",), ("huge", 5000))
    assert '"n": ' + "9" * 5000 + "," in huge
    deep = json.loads(_mutant(REDUCE_S, ("deep", 3)))
    at = deep
    for key in REDUCE_S:
        at = at[key]
    assert at == [[[]]]
    assert json.loads(_mutant(REDUCE_S, ("swap", None))) != CERT
    with tempfile.TemporaryDirectory() as files:
        assert _check_cert(Path(files), json.dumps(CERT)) == (0, "ok: ok\n")


def test_mutated_certificates_end_in_one_line():
    with tempfile.TemporaryDirectory() as files:

        @settings(max_examples=120, deadline=None, derandomize=True, database=None)
        @given(path=st.sampled_from(PATHS), mutation=MUTATIONS)
        @example(path=("n",), mutation=("huge", 5000))
        @example(path=REDUCE_S, mutation=("deep", 19_000))
        def run(path, mutation):
            code, out = _check_cert(Path(files), _mutant(path, mutation))
            assert code in (0, 1, 2, 3)
            assert out.count("\n") == 1 and out.endswith("\n"), out
            assert len(out) < 300, out
            assert "Traceback" not in out

        start = time.perf_counter()
        run()
        assert time.perf_counter() - start < 5
