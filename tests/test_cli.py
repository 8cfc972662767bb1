from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import strata
from strata import (
    GnSignature,
    boundary_complex,
    canonical_key,
    chain,
    key_to_hex,
    one_vertex,
    two_vertex_divisor,
)
from strata.cli import main
from helpers import to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- enumerate ------------------------------------------------------------------


def test_enumerate_text(capsys):
    code, out, err = run(capsys, "enumerate", "--g", "2", "--n", "2", "--k", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 4
    assert "total: 4" in err


def test_enumerate_json(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--g", "0", "--n", "4", "--k", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "stratumset/1"
    assert len(payload["graphs"]) == 3


def test_enumerate_invalid_signature(capsys):
    code, _, err = run(capsys, "enumerate", "--g", "0", "--n", "2", "--k", "1")
    assert code == 2
    assert "error" in err


def test_enumerate_invalid_signature_json_error(capsys):
    code, _, err = run(
        capsys, "enumerate", "--g", "0", "--n", "2", "--k", "1", "--format", "json"
    )
    assert code == 2
    assert json.loads(err)["error"]["code"] == "usage"


def test_enumerate_budget_overflow(capsys):
    code, _, err = run(
        capsys, "enumerate", "--g", "0", "--n", "5", "--k", "1", "--max-graphs", "3"
    )
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize(
    "fmt,expected",
    [
        ("text", "error: level (0,18) k=1 exceeds budget of 10 graphs\n"),
        (
            "json",
            '{"error":{"code":"budget","message":"level (0,18) k=1 exceeds budget of 10 graphs"}}\n',
        ),
    ],
)
def test_complex_divisor_budget_fails_fast(capsys, fmt, expected):
    """(0,18) has 131,053 divisors; the budget is checked before any is built."""
    start = time.perf_counter()
    result = run(
        capsys, "complex", "--g", "0", "--n", "18", "--max-graphs", "10", "--max-dim", "1",
        "--format", fmt,
    )
    assert time.perf_counter() - start < 1.0
    assert result == (3, "", expected)


@pytest.mark.parametrize(
    "fmt,expected",
    [
        ("text", "error: level (1,4) k=2 exceeds budget of 20 graphs\n"),
        (
            "json",
            '{"error":{"code":"budget","message":"level (1,4) k=2 exceeds budget of 20 graphs"}}\n',
        ),
    ],
)
def test_generated_level_budget_message(capsys, fmt, expected):
    result = run(
        capsys, "enumerate", "--g", "1", "--n", "4", "--k", "3", "--max-graphs", "20",
        "--format", fmt,
    )
    assert result == (3, "", expected)


@pytest.mark.parametrize(
    "fmt,template",
    [
        ("text", "error: level (1,4) k=2 in {} exceeds budget of 5 graphs\n"),
        (
            "json",
            '{{"error":{{"code":"budget","message":'
            '"level (1,4) k=2 in {} exceeds budget of 5 graphs"}}}}\n',
        ),
    ],
)
def test_loaded_level_budget_message(capsys, tmp_path, fmt, template):
    argv = ("flag-check", "--g", "1", "--n", "4", "--cache-dir", str(tmp_path))
    assert run(capsys, *argv)[0] == 0
    result = run(capsys, *argv, "--max-graphs", "5", "--format", fmt)
    assert result == (3, "", template.format(tmp_path / "g1n4" / "k2.json"))


def test_enumerate_deterministic_output(capsys):
    _, first, _ = run(
        capsys, "enumerate", "--g", "2", "--n", "2", "--k", "2", "--format", "json"
    )
    _, second, _ = run(
        capsys, "enumerate", "--g", "2", "--n", "2", "--k", "2", "--format", "json"
    )
    assert first == second


def test_enumerate_dot(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--g", "1", "--n", "1", "--k", "1", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("graph ")
    assert "--" in out


# -- intersect ------------------------------------------------------------------


def test_intersect_by_keys(capsys):
    a = key_to_hex(canonical_key(one_vertex(1, 3, loops=1)))
    b = key_to_hex(canonical_key(two_vertex_divisor(1, (1, 2), 1, (3,))))
    code, out, _ = run(
        capsys, "intersect", "--g", "2", "--n", "3", "--format", "json", a, b
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "ixreport/1"
    assert payload["nonempty"] is True
    assert len(payload["components"]) == 2


def test_intersect_dot(capsys):
    a = key_to_hex(canonical_key(one_vertex(1, 3, loops=1)))
    b = key_to_hex(canonical_key(two_vertex_divisor(1, (1, 2), 1, (3,))))
    code, out, _ = run(capsys, "intersect", "--g", "2", "--n", "3", "--format", "dot", a, b)
    assert code == 0
    assert out.count("graph ") == 2
    assert 'graph "component_1" {' in out


def test_intersect_empty_from_files(capsys, tmp_path):
    paths = []
    g, n = 3, 2
    graphs = [
        chain([(g - 1, ()), (1, (1, 2))]),
        chain([(g - 1, (1,)), (1, (2,))]),
        chain([(g - 1, (2,)), (1, (1,))]),
    ]
    for t, G in enumerate(graphs):
        p = tmp_path / f"d{t}.json"
        p.write_text(to_json(G))
        paths.append(str(p))
    code, out, _ = run(capsys, "intersect", *paths)
    assert code == 1
    assert "empty" in out


def test_intersect_single_divisor(capsys):
    key = key_to_hex(canonical_key(one_vertex(1, 2, loops=1)))
    code, out, _ = run(capsys, "intersect", "--g", "2", "--n", "2", key)
    assert code == 0
    assert "nonempty" in out


def test_intersect_mixed_signatures(capsys, tmp_path):
    a = tmp_path / "a.json"
    a.write_text(to_json(one_vertex(1, 2, loops=1)))
    b = tmp_path / "b.json"
    b.write_text(to_json(one_vertex(1, 3, loops=1)))
    code, _, err = run(capsys, "intersect", str(a), str(b))
    assert code == 2
    assert "mixed" in err


@pytest.mark.parametrize(
    "flags", [["--g", "7"], ["--n", "9"], ["--g", "3", "--n", "9"]], ids=["g", "n", "g-and-n"]
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_intersect_rejects_flags_other_than_files_signature(capsys, tmp_path, flags, fmt):
    paths = []
    for t, G in enumerate([one_vertex(1, 2, loops=1), two_vertex_divisor(1, (1,), 1, (2,))]):
        path = tmp_path / f"d{t}.json"
        path.write_text(to_json(G))
        paths.append(str(path))
    code, out, err = run(capsys, "intersect", *flags, "--format", fmt, *paths)
    assert code == 2
    assert out == ""
    message = json.loads(err)["error"]["message"] if fmt == "json" else err
    assert "inputs do not match the requested signature" in message
    code, _, _ = run(capsys, "intersect", flags[0], "2", *paths)  # the files are (2,2)
    assert code == 0


def test_intersect_requires_signature_for_bare_keys(capsys):
    key = key_to_hex(canonical_key(one_vertex(1, 2, loops=1)))
    code, _, err = run(capsys, "intersect", key)
    assert code == 2
    assert "--g" in err or "signature" in err


def test_intersect_rejects_non_divisor(capsys):
    key = key_to_hex(canonical_key(one_vertex(2, 2)))
    code, _, err = run(capsys, "intersect", "--g", "2", "--n", "2", key)
    assert code == 2
    assert "not a divisor" in err


def test_intersect_rejects_star_file_fast(capsys, tmp_path):
    """The 9-leaf star is no divisor, and is refused without keying it."""
    path = tmp_path / "star.json"
    path.write_text(json.dumps({
        "schema": "dualgraph/1",
        "genus": [0] + [1] * 9,
        "edges": [[0, v] for v in range(1, 10)],
        "legs": {},
    }))
    start = time.perf_counter()
    result = run(capsys, "intersect", str(path))
    assert time.perf_counter() - start < 1.0
    assert result == (
        2,
        "",
        "error: g=[0,1,1,1,1,1,1,1,1,1] E=[0-1,0-2,0-3,0-4,0-5,0-6,0-7,0-8,0-9] legs={}"
        " is not a divisor of (9,0)\n",
    )


@pytest.mark.parametrize(
    "graph",
    [
        {"schema": "dualgraph/1", "genus": [1], "legs": {"1": 0, "2": 0}},
        {"schema": "dualgraph/1", "genus": 5, "edges": [], "legs": {}},
        pytest.param("[" * 200_000, id="nested"),
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_intersect_malformed_graph_file_is_usage_error(capsys, tmp_path, graph, fmt):
    good = tmp_path / "good.json"
    good.write_text(to_json(one_vertex(1, 2, loops=1)))
    bad = tmp_path / "bad.json"
    bad.write_text(graph if isinstance(graph, str) else json.dumps(graph))
    code, out, err = run(capsys, "intersect", "--format", fmt, str(good), str(bad))
    assert code == 2
    assert out == ""
    if fmt == "json":
        assert json.loads(err)["error"]["code"] == "usage"
    else:
        assert err.startswith("error: ")


# -- complex / flag-check / witness ----------------------------------------------


def test_complex_json(capsys):
    code, out, _ = run(
        capsys, "complex", "--g", "2", "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "bcomplex/1"
    assert len(payload["vertices"]) == 4


def test_complex_dot(capsys):
    code, out, _ = run(capsys, "complex", "--g", "2", "--n", "2", "--format", "dot")
    assert code == 0
    assert out.count(" -- ") == 5


def test_complex_text(capsys):
    code, out, _ = run(capsys, "complex", "--g", "0", "--n", "5")
    assert code == 0
    assert "f-vector: (10, 15)" in out


def test_flag_check_positive(capsys):
    code, out, _ = run(capsys, "flag-check", "--g", "2", "--n", "2")
    assert code == 0
    assert "flag" in out


def test_flag_check_negative(capsys):
    code, out, _ = run(capsys, "flag-check", "--g", "2", "--n", "3", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["is_flag"] is False
    assert len(payload["witness"]["clique"]) == 3


def test_flag_check_negative_text_lists_witness(capsys):
    code, out, _ = run(capsys, "flag-check", "--g", "2", "--n", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "(2,3): not a flag complex"
    assert len(lines) == 4
    assert all(line.startswith("  witness divisor ") for line in lines[1:])


WITNESS_23 = (
    '["67312c313b65302d313b6c302c312c31","67312c313b65302d313b6c312c302c31",'
    '"67312c313b65302d313b6c312c312c30"]'
)
WITNESS_23_JSON = (
    '{"clique":' + WITNESS_23 + ',"components":[],"is_face":false,"pairwise_ok":true}'
)


@pytest.mark.parametrize(
    "command,expected_code,expected",
    [
        ("flag-check", 1, '{"g":2,"is_flag":false,"n":3,"witness":' + WITNESS_23_JSON + "}"),
        ("witness", 0, '{"g":2,"n":3,"witness":' + WITNESS_23_JSON + "}"),
        (
            "verify",
            0,
            '[{"agree":true,"computed":false,"g":2,"n":3,"predicted":false,'
            '"seconds":T,"skipped":false,"witness":' + WITNESS_23 + "}]",
        ),
    ],
    ids=["flag-check", "witness", "verify"],
)
def test_witness_json_bytes_at_2_3(capsys, command, expected_code, expected):
    code, out, err = run(capsys, command, "--g", "2", "--n", "3", "--format", "json")
    out = re.sub(r'"seconds":[0-9.]+', '"seconds":T', out)
    assert (code, out, err) == (expected_code, expected + "\n", "")


def test_witness_found(capsys):
    code, out, _ = run(capsys, "witness", "--g", "2", "--n", "3")
    assert code == 0
    assert "size 3" in out


def test_witness_absent(capsys):
    code, out, _ = run(capsys, "witness", "--g", "2", "--n", "2")
    assert code == 1
    assert "no witness" in out


@pytest.mark.parametrize("n,expected_code,size", [(3, 0, 3), (2, 1, None)], ids=["found", "absent"])
def test_witness_json(capsys, n, expected_code, size):
    code, out, _ = run(capsys, "witness", "--g", "2", "--n", str(n), "--format", "json")
    assert code == expected_code
    payload = json.loads(out)
    assert (payload["g"], payload["n"]) == (2, n)
    if size is None:
        assert payload["witness"] is None
    else:
        assert len(payload["witness"]["clique"]) == size
        assert payload["witness"]["is_face"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ("flag-check", "--g", "2", "--n", "2"),
        ("witness", "--g", "2", "--n", "2"),
        ("verify", "--g", "2", "--n", "2"),
        ("paper-suite",),
    ],
    ids=lambda argv: argv[0],
)
def test_dot_rejected_where_meaningless(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "dot")
    assert (code, out) == (2, "")
    assert err == f"error: --format dot is not supported by {argv[0]}\n"


# -- verify / paper-suite ---------------------------------------------------------


def test_verify_grid_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--g", "0:1", "--n", "0:4", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    signatures = {(r["g"], r["n"]) for r in rows}
    assert (0, 0) not in signatures
    assert (1, 0) not in signatures
    assert all(r["agree"] for r in rows)


def test_verify_budget_exit(capsys):
    """(0,4) fits a budget of 3 graphs and agrees; (0,5) is over it and skipped."""
    argv = ("verify", "--g", "0", "--n", "4:5", "--max-graphs", "3", "--format", "json")
    for extra, exit_code in (((), 3), (("--skip-over-budget",), 0)):
        code, out, _ = run(capsys, *argv, *extra)
        assert code == exit_code
        fits, over = json.loads(out)
        assert (fits["g"], fits["n"], over["g"], over["n"]) == (0, 4, 0, 5)
        assert fits["computed"] is True and fits["agree"] is True and fits["skipped"] is False
        assert over["computed"] is None and over["agree"] is None and over["witness"] is None
        assert over["skipped"] is True


def test_verify_negative_cells_report_witnesses(capsys):
    code, out, _ = run(capsys, "verify", "--g", "2", "--n", "3", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["predicted"] is False and row["computed"] is False
    assert len(row["witness"]) == 3


def test_verify_disagreement_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("strata.cli.predicted_flag", lambda sig: True)
    code, out, _ = run(capsys, "verify", "--g", "2", "--n", "2:3", "--format", "json")
    assert code == 1
    assert [row["agree"] for row in json.loads(out)] == [True, False]


@pytest.mark.parametrize("g,n", [("3:1", "2"), ("0", "0:2")], ids=["empty-range", "no-valid-cell"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_empty_grid_is_usage_error(capsys, g, n, fmt):
    code, out, err = run(capsys, "verify", "--g", g, "--n", n, "--format", fmt)
    assert code == 2
    assert out == ""
    if fmt == "json":
        assert json.loads(err)["error"]["code"] == "usage"
    else:
        assert err.startswith("error: ")


def test_paper_suite(capsys):
    code, out, _ = run(capsys, "paper-suite")
    assert code == 0
    assert "13/13 checks passed" in out
    assert "FAIL" not in out


def test_paper_suite_json(capsys):
    code, out, _ = run(capsys, "paper-suite", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 13
    assert all(row["passed"] for row in rows)
    assert {"name": "pinwheel family (2,3)", "passed": True, "detail": ""} in rows


def _pair_1_2_shows_pair_1_3(make):
    def wrong(*args):
        F = make(*args)
        return replace(F, pairs={**F.pairs, (1, 2): F.pairs[1, 3]})

    return wrong


@pytest.mark.parametrize(
    "name,family",
    [("pinwheel", "pinwheel family"), ("high_genus", "high-genus triple")],
    ids=["pinwheel", "high-genus"],
)
def test_paper_suite_family_mismatch_fails(capsys, monkeypatch, name, family):
    monkeypatch.setattr(f"strata.cli.{name}", _pair_1_2_shows_pair_1_3(getattr(strata, name)))
    code, out, _ = run(capsys, "paper-suite")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 2
    for line in fails:
        assert line.startswith(f"FAIL  {family} (")
        assert line.endswith("  (pair 1,2 mismatch)")
    assert "11/13 checks passed" in out


def test_cache_dir_used(capsys, tmp_path):
    code, _, _ = run(
        capsys,
        "enumerate", "--g", "1", "--n", "2", "--k", "2", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "g1n2" / "k2.json").is_file()


def test_enumerate_json_same_cold_and_warm(capsys, tmp_path):
    """Representatives come from the generator, never from cache state."""
    argv = ("enumerate", "--g", "1", "--n", "4", "--k", "3", "--format", "json")
    cold = run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert (tmp_path / "g1n4" / "k3.json").is_file()
    warm = run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert cold[0] == 0
    assert warm == cold


def test_tampered_cache_keeps_flag_verdict(capsys, tmp_path):
    argv = ("flag-check", "--g", "1", "--n", "4", "--cache-dir", str(tmp_path))
    assert run(capsys, *argv)[0] == 0
    path = tmp_path / "g1n4" / "k3.json"
    payload = json.loads(path.read_text())
    del payload["graphs"][0]
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "not a flag complex" not in out


def test_max_graphs_enforced_on_cached_levels(capsys, tmp_path):
    argv = ("flag-check", "--g", "1", "--n", "4", "--cache-dir", str(tmp_path))
    assert run(capsys, *argv, "--max-graphs", "5")[0] == 3
    assert run(capsys, *argv)[0] == 0
    code, _, err = run(capsys, *argv, "--max-graphs", "5")
    assert code == 3
    assert "budget" in err


def test_non_object_level_file_keeps_flag_verdict(capsys, tmp_path):
    argv = ("flag-check", "--g", "1", "--n", "4", "--format", "json", "--cache-dir", str(tmp_path))
    assert run(capsys, *argv)[0] == 0
    (tmp_path / "g1n4" / "k3.json").write_text("[]")
    (tmp_path / "g1n4" / "k2.json").write_text("null")
    (tmp_path / "g1n4" / "k1.json").write_text("[" * 200_000)
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["is_flag"] is True
    assert err == ""
    assert json.loads((tmp_path / "g1n4" / "k1.json").read_text())["k"] == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("blocked", ["g1n3", "g1n3/k1.json"])
def test_unwritable_cache_leaves_output_and_exit_code(capsys, tmp_path, blocked, fmt):
    """A file where the level directory goes, or a directory where a level file goes."""
    argv = ("flag-check", "--g", "1", "--n", "3", "--format", fmt)
    expected = run(capsys, *argv)
    if blocked.endswith(".json"):
        (tmp_path / blocked).mkdir(parents=True)
    else:
        (tmp_path / blocked).write_text("")
    assert run(capsys, *argv, "--cache-dir", str(tmp_path)) == expected
    assert expected[0] == 0
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_unreadable_cache_leaves_output_and_exit_code(capsys, tmp_path, fmt):
    """A cache path too long to stat (ENAMETOOLONG) is skipped on read as on write."""
    argv = ("flag-check", "--g", "1", "--n", "3", "--format", fmt)
    expected = run(capsys, *argv)
    assert run(capsys, *argv, "--cache-dir", str(tmp_path / ("x" * 300))) == expected
    assert expected[0] == 0


def test_bad_config_rejected(capsys):
    code, _, err = run(capsys, "enumerate", "--g", "1", "--n", "1", "--k", "1",
                       "--max-graphs", "0")
    assert code == 2
    assert "max-graphs" in err


def test_cache_dir_environment_variable_ignored(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("STRATA_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "enumerate", "--g", "1", "--n", "2", "--k", "2")
    assert code == 0
    assert not any(tmp_path.iterdir())


def test_threads_option_removed(capsys):
    try:
        main(["enumerate", "--g", "1", "--n", "1", "--k", "1", "--threads", "2"])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        raise AssertionError("--threads was accepted")
    assert "--threads" in capsys.readouterr().err


def test_max_graphs_error_is_json(capsys):
    code, out, err = run(capsys, "enumerate", "--g", "1", "--n", "1", "--k", "1",
                         "--max-graphs", "0", "--format", "json")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": {"code": "usage", "message": "--max-graphs must be positive"}
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--g", "1", "--n", "1", "--k", "1"],
        ["intersect", "--g", "2", "--n", "2", key_to_hex(canonical_key(one_vertex(1, 2, loops=1)))],
        ["flag-check", "--g", "2", "--n", "3"],
        ["witness", "--g", "2", "--n", "3"],
        ["verify", "--g", "2", "--n", "3"],
        ["paper-suite"],
    ],
    ids=lambda argv: argv[0],
)
def test_max_dim_only_on_complex(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--max-dim", "1"])
    assert exc.value.code == 2
    assert "--max-dim" in capsys.readouterr().err


def test_complex_max_dim(capsys, store):
    sig = GnSignature(2, 3)
    code, out, _ = run(
        capsys, "complex", "--g", "2", "--n", "3", "--max-dim", "2", "--format", "json"
    )
    assert code == 0
    C = boundary_complex(sig, store, max_dim=2)
    assert max(map(len, C.facets())) == 2
    assert json.loads(out) == C.to_json_obj()


def test_complex_max_dim_out_of_range_is_json_error(capsys):
    code, out, err = run(
        capsys, "complex", "--g", "2", "--n", "3", "--max-dim", "9", "--format", "json"
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "usage"
    assert "max_dim" in json.loads(err)["error"]["message"]


def test_console_entry_point():
    # Run the same checkout the suite imports, also when pytest's pythonpath put it there.
    src = str(Path(strata.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "strata.cli", "--version"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert "strata" in result.stdout
