import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pig
from conftest import (
    ORACLE_EXACT_OPTIMA,
    cube,
    drum,
    embedded_cycle,
    glued_pair,
    octahedra,
    run_corpus,
    v1_document,
)
from pig.cli import main
from pig.extract import CERT_FORMAT, extract
from pig.generate import GenSpec, generate
from pig.graph import icosahedron, parse_rotation_graph
from pig.reduce import LiftError, PlanRejected


@pytest.fixture()
def rot_file(tmp_path):
    path = tmp_path / "g.rot"
    assert main(["gen", "--n", "30", "--seed", "5", "-o", str(path)]) == 0
    return path


@pytest.fixture()
def flagged_file(tmp_path):
    path = tmp_path / "f.rot"
    code = main(
        ["gen", "--n", "36", "--seed", "2", "--delta5", "--no-septri", "-o", str(path)]
    )
    assert code == 0
    return path


def test_gen_writes_parseable(rot_file, capsys):
    text = rot_file.read_text()
    assert text.splitlines()[0] == "30 84"


def test_alpha(tmp_path, capsys):
    path = tmp_path / "f60.rot"
    code = main(
        ["gen", "--n", "60", "--seed", "0", "--delta5", "--no-septri", "-o", str(path)]
    )
    assert code == 0
    capsys.readouterr()
    assert main(["alpha", str(path)]) == 0
    best = ORACLE_EXACT_OPTIMA[60, 0]
    assert capsys.readouterr().out.splitlines() == [
        f"alpha={len(best)}",
        "set: " + " ".join(map(str, best)),
    ]


def test_extract_verify_and_check_cert(rot_file, tmp_path, capsys):
    cert = tmp_path / "out.cert"
    code = main(
        ["extract", str(rot_file), "--ratio", "3/13", "--json", str(cert), "--verify"]
    )
    assert code == 0
    assert "verify: ok" in capsys.readouterr().out
    assert main(["check-cert", str(rot_file), str(cert)]) == 0


def test_check_cert_wrong_graph(rot_file, tmp_path, capsys):
    cert = tmp_path / "out.cert"
    main(["extract", str(rot_file), "--json", str(cert)])
    other = tmp_path / "ico.rot"
    other.write_text(icosahedron().serialize())
    assert main(["check-cert", str(other), str(cert)]) == 1


def test_discharge_json(flagged_file, capsys):
    assert main(["discharge", str(flagged_file), "--rules", "main", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules"] == "main"
    assert len(payload["phases"]) == 4
    totals = {p["total"] for p in payload["phases"]}
    assert totals == {"-12"}


def test_discharge_warmup(flagged_file, capsys):
    assert main(["discharge", str(flagged_file), "--rules", "warmup"]) == 0
    assert "total=-12" in capsys.readouterr().out


def test_discharge_rejects_low_degree(rot_file, capsys):
    assert main(["discharge", str(rot_file), "--rules", "warmup"]) == 2
    assert "input error" in capsys.readouterr().err


def test_config_lists_matches(flagged_file, capsys):
    assert main(["config", str(flagged_file), "--limit", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3
    assert out[0].split(":")[0] in {"apex_pair", "low_trio_star6"}


def test_reduce_step(flagged_file, capsys):
    assert main(["reduce", str(flagged_file), "--step"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["step"] in {"reduce", "split", "triangulate", "components"}


def test_reduce_step_triangulate(tmp_path, capsys):
    # more than BASE_EXACT_N vertices, so extraction triangulates first
    path = tmp_path / "cycle.rot"
    path.write_text(embedded_cycle(24).serialize())
    assert main(["reduce", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["step"] == "triangulate" and payload["count"] == 1


def _flagged(seed, n):
    return generate(
        GenSpec(seed=seed, n=n, min_degree5=True, no_separating_triangle=True)
    )


FIRST_STEP_GRAPHS = {
    "cube-n8": cube,
    **{
        f"flagged-s{seed}-n{60 + 10 * (seed % 4)}": (
            lambda seed=seed: _flagged(seed, 60 + 10 * (seed % 4))
        )
        for seed in range(12)
    },
    "glued-16-14": lambda: glued_pair(16, 14),
    "drum-8": lambda: drum(8),
}


@pytest.mark.parametrize("name", FIRST_STEP_GRAPHS)
def test_reduce_prints_the_first_step_of_extract(name, tmp_path, capsys):
    path = tmp_path / "g.rot"
    path.write_text(FIRST_STEP_GRAPHS[name]().serialize())
    assert main(["reduce", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    first = extract(parse_rotation_graph(path.read_text()), "3/13").steps[0]
    fields = {k: v for k, v in payload.items() if k not in ("step", "count")}
    assert payload["step"] == first["op"]
    assert fields == {k: first.get(k) for k in fields}
    if first["op"] == "reduce":
        assert payload["plan"] == first["plan"]


def test_reduce_step_split(tmp_path, capsys):
    from conftest import glued_pair

    g = glued_pair(16, 14)
    path = tmp_path / "glued.rot"
    path.write_text(g.serialize())
    assert main(["reduce", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["step"] == "split" and payload["count"] == 2  # hub1: ctr, full
    assert len(payload["triangle"]) == 3


def test_reduce_step_components(tmp_path, capsys):
    path = tmp_path / "two.rot"
    path.write_text("2 0\n1:\n2:\n")
    assert main(["reduce", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["step"] == "components" and payload["count"] == 2


def test_check_cert_malformed_exits_1(rot_file, tmp_path, capsys):
    cert = tmp_path / "out.cert"
    main(["extract", str(rot_file), "--json", str(cert)])
    payload = json.loads(cert.read_text())
    payload["steps"][0]["op"] = [payload["steps"][0]["op"]]
    cert.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["check-cert", str(rot_file), str(cert)]) == 1
    assert capsys.readouterr().out.startswith("FAIL: ")


def test_check_cert_oracle_budget_exits_1(flagged_file, tmp_path, capsys, monkeypatch):
    # a reduction of 16 vertices (the most a plan may have) in one part
    # makes all of them a window that replay must certify; deciding
    # alpha >= 5 there takes 7 oracle nodes, which the budget cannot afford
    cert = tmp_path / "out.cert"
    main(["extract", str(flagged_file), "--json", str(cert)])
    payload = json.loads(cert.read_text())
    s = [7, 9, 13, 15, 17, 18, 19, 21, 24, 25, 27, 29, 30, 31, 34, 36]
    payload["steps"] = [{"op": "reduce", "plan": {"S": s, "parts": [s]}},
                        {"op": "exact", "kids": 0}]
    cert.write_text(json.dumps(payload))
    monkeypatch.setenv("PIG_ORACLE_BUDGET", "3")
    capsys.readouterr()
    assert main(["check-cert", str(flagged_file), str(cert)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == ["FAIL: oracle budget exceeded: exceeded 3 nodes"]
    assert err == ""


def test_check_cert_format_1_exits_2(rot_file, tmp_path, capsys):
    g = parse_rotation_graph(rot_file.read_text())
    cert = tmp_path / "v1.cert"
    cert.write_text(v1_document(extract(g, "3/13")))
    assert main(["check-cert", str(rot_file), str(cert)]) == 2
    assert "unknown certificate format" in capsys.readouterr().err


def test_check_cert_format_4_exits_2_naming_both_formats(rot_file, tmp_path, capsys):
    g = parse_rotation_graph(rot_file.read_text())
    payload = json.loads(extract(g, "3/13").to_json())
    payload["format"] = "pig-certificate/4"
    cert = tmp_path / "v4.cert"
    cert.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["check-cert", str(rot_file), str(cert)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"input error: unknown certificate format 'pig-certificate/4', "
        f"expected {CERT_FORMAT!r}"
    ]


def test_check_cert_deep_document_exits_2(rot_file, tmp_path):
    # 95,000 nested lists overflowed the C stack in the JSON scanner
    # (exit 139) while the recursion limit stood at 100,000
    cert = tmp_path / "deep.cert"
    deep = "[" * 95_000 + "]" * 95_000
    cert.write_text(f'{{"format":"{CERT_FORMAT}","steps":{deep}}}')
    src = str(Path(pig.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "pig.cli", "check-cert", str(rot_file), str(cert)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert run.returncode == 2
    assert run.stderr.startswith("input error: ")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr


HOSTILE_STEPS = {  # an edit of a valid step list, and the index its line names
    "empty": (lambda s: [], None),
    "not-a-list": (lambda s: s[0], None),
    "entry-not-an-object": (lambda s: [s[0], "exact", *s[2:]], 1),
    "entry-holds-child": (lambda s: [s[0] | {"child": s[1]}, *s[1:]], 0),
    "entry-holds-children": (lambda s: [s[0] | {"children": s[1:]}, *s[1:]], 0),
    "kids-negative": (lambda s: [*s[:-1], s[-1] | {"kids": -1}], -1),
    "kids-bool": (lambda s: [*s[:-1], s[-1] | {"kids": False}], -1),
    "kids-string": (lambda s: [*s[:-1], s[-1] | {"kids": "0"}], -1),
    "kids-past-the-end": (lambda s: [s[0] | {"kids": len(s)}, *s[1:]], 0),
    "kids-one-written": (lambda s: [s[0] | {"kids": 1}, *s[1:]], 0),
    "kids-null": (lambda s: [s[0] | {"kids": None}, *s[1:]], 0),
    "last-entry-owes-a-sub-tree": (lambda s: [*s[:-1], {"op": s[-1]["op"]}], -1),
    "after-the-root-closed": (lambda s: [*s, {"op": "exact", "kids": 0}], -1),
}


@pytest.mark.parametrize("edit", sorted(HOSTILE_STEPS))
def test_check_cert_hostile_step_list_exits_2(edit, rot_file, tmp_path, capsys):
    forge, at = HOSTILE_STEPS[edit]
    payload = json.loads(extract(parse_rotation_graph(rot_file.read_text()), "3/13").to_json())
    assert len(payload["steps"]) > 2
    steps = payload["steps"] = forge(payload["steps"])
    cert = tmp_path / "c.cert"
    cert.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["check-cert", str(rot_file), str(cert)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err
    name = "steps is not a non-empty list" if at is None else f"step {at % len(steps)}: "
    assert err.startswith(f"input error: {name}"), err


def test_import_leaves_the_recursion_limit():
    code = ("import sys; before = sys.getrecursionlimit(); import pig, pig.cli; "
            "print(before, sys.getrecursionlimit())")
    src = str(Path(pig.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    before, after = run.stdout.split()
    assert before == after


def test_alpha_on_many_components_at_the_default_recursion_limit(tmp_path):
    # 400 disjoint octahedra: no vertex peels, and each component cost the
    # oracle three more frames while it recursed on the rest of the pool
    path = tmp_path / "octahedra.rot"
    path.write_text(octahedra(400).serialize())
    src = str(Path(pig.__file__).parents[1])
    run = subprocess.run([sys.executable, "-m", "pig.cli", "alpha", str(path)],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0 and run.stderr == "", run.stderr[-300:]
    assert run.stdout.splitlines()[0] == "alpha=800"


def test_check_cert_oversized_int_exits_2(rot_file, tmp_path, capsys):
    # past Python's 4,300-digit limit on int-string conversion
    cert = tmp_path / "out.cert"
    main(["extract", str(rot_file), "--json", str(cert)])
    cert.write_text(cert.read_text().replace('"n":30', '"n":' + "9" * 5000))
    capsys.readouterr()
    assert main(["check-cert", str(rot_file), str(cert)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: bad JSON: ")
    assert err.count("\n") == 1


def test_corpus_oracle_budget_exits_3(monkeypatch, capsys):
    # every instance fails on its own, and the run goes on to the next
    monkeypatch.setenv("PIG_ORACLE_BUDGET", "5")
    code, summary, lines = run_corpus(["--n", "40", "--count", "3"], capsys)
    assert code == 3
    assert summary == {"ratio": "3/13", "instances": 3, "successes": 0, "diagnostics": 3,
                       "min_achieved_ratio": None, "mean_achieved_ratio": None}
    assert lines == [f"diagnostic: seed={s} n=40: oracle budget exceeded: exceeded 5 nodes"
                     for s in range(3)]


def test_corpus(capsys):
    assert run_corpus(["--n", "24", "--count", "3", "--ratio", "3/13"], capsys) == (0, {
        "ratio": "3/13", "instances": 3, "successes": 3, "diagnostics": 0,
        "min_achieved_ratio": 0.3333, "mean_achieved_ratio": 0.375,
    }, [])
    # no triangulation of minimum degree 5 has 13 vertices: generation fails
    assert run_corpus(["--n", "13", "--count", "1", "--delta5"], capsys) == (3, {
        "ratio": "3/13", "instances": 1, "successes": 0, "diagnostics": 1,
        "min_achieved_ratio": None, "mean_achieved_ratio": None,
    }, ["diagnostic: seed=0 n=0: min degree 5 needs n = 12 or n >= 14"])


@pytest.mark.parametrize("name, error", [
    ("lift", LiftError), ("certify_plan", PlanRejected),
])
def test_engine_fault_exits_1(name, error, rot_file, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(importlib.import_module("pig.extract"), name, broken)
    capsys.readouterr()
    assert main(["extract", str(rot_file)]) == 1
    err = capsys.readouterr().err
    assert err == "engine fault: injected\n"


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.rot"
    bad.write_text("3 3\n1: 2 3\n2: 3\n3: 1 2\n")
    assert main(["extract", str(bad)]) == 2


@pytest.mark.parametrize("text", [
    "99999999999999999999 0\n",  # an n past a C ssize_t
    "2 1\n+1: 2\n2: 1\n",  # ids in ASCII digits only
    "2 1\n1: 2\n1_0: 1\n",
])
@pytest.mark.parametrize("command", ["extract", "alpha", "config", "reduce"])
def test_bad_numbers_exit_2(command, text, tmp_path, capsys):
    bad = tmp_path / "bad.rot"
    bad.write_text(text)
    assert main([command, str(bad)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert out == ""


def test_non_utf8_input_exits_2(rot_file, tmp_path, capsys):
    bad = tmp_path / "bad.rot"
    bad.write_bytes(rot_file.read_bytes() + b"# \xff\n")
    capsys.readouterr()
    assert main(["alpha", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot read {bad}") and err.count("\n") == 1
    cert = tmp_path / "bad.cert"
    main(["extract", str(rot_file), "--json", str(cert)])
    cert.write_bytes(b"\xff" + cert.read_bytes())
    capsys.readouterr()
    assert main(["check-cert", str(rot_file), str(cert)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot read {cert}") and err.count("\n") == 1


def test_missing_file(capsys):
    assert main(["alpha", "/nonexistent.rot"]) == 2
