"""Golden corpus: the independent set and the whole certificate returned
for a fixed list of specs.

``data/golden_sets.json`` pins "same behaviour" across refactors: each
spec's independent set, and the sha256 of its ``Certificate.to_json()``, so
a change to the trace that leaves the final set alone still shows.  They
change only on purpose; to re-record them after such a change, run
``PYTHONPATH=src python tests/test_golden.py`` from the repo root: it
prints one line for each entry whose set or sha256 moved.  Say in the
change log why they moved.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pig.extract import extract
from pig.generate import GenSpec, generate

GOLDEN = Path(__file__).parent / "data" / "golden_sets.json"

SPECS = (
    {"family": "plain", "n": 40, "seed": 1, "ratio": "3/13"},
    {"family": "plain", "n": 80, "seed": 2, "ratio": "3/13"},
    {"family": "plain", "n": 120, "seed": 3, "ratio": "3/13"},
    {"family": "plain", "n": 100, "seed": 4, "ratio": "1/5"},
    {"family": "flagged", "n": 60, "seed": 0, "ratio": "3/13"},
    {"family": "flagged", "n": 90, "seed": 5, "ratio": "3/13"},
    {"family": "flagged", "n": 120, "seed": 7, "ratio": "3/13"},
    {"family": "flagged", "n": 70, "seed": 2, "ratio": "2/9"},
    {"family": "glued", "n1": 16, "n2": 14, "ratio": "3/13"},
    {"family": "drum", "rings": 8, "ratio": "3/13"},
    {"family": "geodesic", "levels": 1, "ratio": "3/13"},
    # many hub vertices: plain-large's input, and a larger geodesic sphere
    {"family": "plain", "n": 1000, "seed": 0, "ratio": "3/13"},
    {"family": "geodesic", "levels": 2, "ratio": "3/13"},
    # the flagged-mix inputs, and a plan whose first contraction leaves a hole
    {"family": "flagged", "n": 200, "seed": 3, "ratio": "3/13"},
    {"family": "geodesic", "levels": 3, "ratio": "3/13"},
    {"family": "drum", "rings": 20, "ratio": "3/13"},
    {"family": "drum", "rings": 60, "ratio": "3/13"},
    {"family": "glued", "n1": 110, "n2": 90, "seed1": 11, "seed2": 2, "ratio": "3/13"},
    {"family": "flagged", "n": 56, "seed": 2019, "ratio": "3/13"},
    # the split strategies no spec above takes: hub2, then edge-pairs
    {"family": "glued", "n1": 14, "n2": 16, "ratio": "3/13"},
    {"family": "glued", "n1": 15, "n2": 15, "ratio": "3/13"},
)


def spec_id(spec: dict) -> str:
    return "-".join(f"{k}={v}" for k, v in spec.items())


def build(spec: dict):
    from conftest import drum, glued_pair, subdivide
    from pig.graph import icosahedron

    family = spec["family"]
    if family in ("plain", "flagged"):
        flagged = family == "flagged"
        return generate(GenSpec(seed=spec["seed"], n=spec["n"],
                                min_degree5=flagged,
                                no_separating_triangle=flagged))
    if family == "glued":
        return glued_pair(spec["n1"], spec["n2"], spec.get("seed1", 3), spec.get("seed2", 8))
    if family == "geodesic":
        g = icosahedron()
        for _ in range(spec["levels"]):
            g = subdivide(g)
        return g
    return drum(spec["rings"])


def golden_entry(spec: dict) -> dict:
    cert = extract(build(spec), spec["ratio"])
    return {
        "id": spec_id(spec),
        "set": list(cert.independent_set),
        "sha256": hashlib.sha256(cert.to_json().encode()).hexdigest(),
    }


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_golden_set(spec):
    recorded = {e["id"]: e for e in json.loads(GOLDEN.read_text())}
    got = golden_entry(spec)
    assert got["set"] == recorded[spec_id(spec)]["set"]
    assert got["sha256"] == recorded[spec_id(spec)]["sha256"]


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    recorded = {e["id"]: e for e in json.loads(GOLDEN.read_text())}
    entries = [golden_entry(s) for s in SPECS]
    moved = 0
    for entry in entries:
        was = recorded.get(entry["id"], {})
        keys = [k for k in ("set", "sha256") if was.get(k) != entry[k]]
        if keys:
            moved += 1
            print(f"{entry['id']}: {' and '.join(keys)} moved, sha256 "
                  f"{was.get('sha256', 'none')[:12]} -> {entry['sha256'][:12]}")
    lines = [json.dumps(entry) for entry in entries]
    GOLDEN.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {len(lines)} golden entries to {GOLDEN}, {moved} moved")
