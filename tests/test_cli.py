from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import strata
from strata import canonical_key, chain, key_to_hex, one_vertex, two_vertex_divisor
from strata.cli import main


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
        p.write_text(G.to_json())
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
    a.write_text(one_vertex(1, 2, loops=1).to_json())
    b = tmp_path / "b.json"
    b.write_text(one_vertex(1, 3, loops=1).to_json())
    code, _, err = run(capsys, "intersect", str(a), str(b))
    assert code == 2
    assert "mixed" in err


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


def test_witness_found(capsys):
    code, out, _ = run(capsys, "witness", "--g", "2", "--n", "3")
    assert code == 0
    assert "size 3" in out


def test_witness_absent(capsys):
    code, out, _ = run(capsys, "witness", "--g", "2", "--n", "2")
    assert code == 1
    assert "no witness" in out


def test_dot_rejected_where_meaningless(capsys):
    code, _, err = run(capsys, "flag-check", "--g", "2", "--n", "2", "--format", "dot")
    assert code == 2
    assert "dot" in err


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
    code, _, _ = run(capsys, "verify", "--g", "0", "--n", "5", "--max-graphs", "3")
    assert code == 3
    code, out, _ = run(
        capsys,
        "verify", "--g", "0", "--n", "5", "--max-graphs", "3", "--skip-over-budget",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)[0]["skipped"] is True


def test_verify_negative_cells_report_witnesses(capsys):
    code, out, _ = run(capsys, "verify", "--g", "2", "--n", "3", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["predicted"] is False and row["computed"] is False
    assert len(row["witness"]) == 3


def test_paper_suite(capsys):
    code, out, _ = run(capsys, "paper-suite")
    assert code == 0
    assert "13/13 checks passed" in out
    assert "FAIL" not in out


def test_cache_dir_used(capsys, tmp_path):
    code, _, _ = run(
        capsys,
        "enumerate", "--g", "1", "--n", "2", "--k", "2", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "g1n2" / "k2.json").is_file()


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


def test_bad_config_rejected(capsys):
    code, _, err = run(capsys, "enumerate", "--g", "1", "--n", "1", "--k", "1",
                       "--max-graphs", "0")
    assert code == 2
    assert "max-graphs" in err


def test_threads_option_removed(capsys):
    try:
        main(["enumerate", "--g", "1", "--n", "1", "--k", "1", "--threads", "2"])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        raise AssertionError("--threads was accepted")
    assert "--threads" in capsys.readouterr().err


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
