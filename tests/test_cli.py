"""Command-line surface: exit codes, JSON payload round-trips, kernel file
loading, enumeration budgets, and DOT output."""

import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from operad_forge.bv import bv_normalize, iota, raw_bv
from operad_forge.cells import UpsilonIndex, build_graph
from operad_forge import cells, cli
from operad_forge.cli import main
from operad_forge.mapping import assoc_reversal_eta, window_loop, xi
from operad_forge.operads import AssocOperad, identity_eta
from operad_forge.serialize import (
    bv_to_json,
    dumps,
    graph_to_json,
    upsilon_to_json,
    wb_to_json,
)
from operad_forge.trees import PlanarTree, corolla
from operad_forge.wb import raw_wb, wb_normalize

A = AssocOperad()


def run(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_normalize_bv_roundtrip(capsys, monkeypatch):
    shape = PlanarTree((PlanarTree((None, None)),))
    raw = raw_bv(A, shape, (A.unit(), (2, 1)), (F(1, 3),))
    code, out, _ = run(
        capsys, monkeypatch, ["normalize-bv"], dumps(bv_to_json(raw))
    )
    assert code == 0
    assert json.loads(out) == json.loads(dumps(bv_to_json(iota(A, (2, 1)))))


def test_normalize_bv_dot_format(capsys, monkeypatch):
    p = iota(A, (2, 1))
    code, out, _ = run(
        capsys,
        monkeypatch,
        ["--format", "dot", "normalize-bv"],
        dumps(bv_to_json(p)),
    )
    assert code == 0 and out.startswith("digraph")


def test_mu_and_mu_tilde_values(capsys, monkeypatch):
    p = iota(A, (3, 1, 2))
    code, out, _ = run(capsys, monkeypatch, ["mu"], dumps(bv_to_json(p)))
    assert code == 0 and json.loads(out)["value"] == [3, 1, 2]
    w = raw_wb(A, corolla(3), (p,), (F(1, 2),))
    code, out, _ = run(capsys, monkeypatch, ["mu-tilde"], dumps(wb_to_json(w)))
    assert code == 0 and json.loads(out)["value"] == [3, 1, 2]


def test_deloop_constant_kernel(capsys, monkeypatch):
    w = raw_wb(A, corolla(3), (iota(A, (1, 3, 2)),), (F(1, 2),))
    code, out, _ = run(capsys, monkeypatch, ["deloop"], dumps(wb_to_json(w)))
    assert code == 0 and json.loads(out)["value"] == [1, 3, 2]


def test_deloop_table_kernel_matches_function_kernel(
    capsys, monkeypatch, tmp_path
):
    # a key is read as the element it spells, spaced or compact
    rev = assoc_reversal_eta()
    w = wb_normalize(raw_wb(A, corolla(3), (iota(A, (1, 3, 2)),), (F(1, 2),)))
    want = xi(window_loop(identity_eta(A), rev))(w)
    for separators in (None, (",", ":")):
        table = {}
        for n in range(1, 5):
            for x in A.elements(n):
                y = rev(x)
                if y != x:
                    table[json.dumps(A.encode(x), separators=separators)] = A.encode(y)
        spec = tmp_path / "rev.json"
        spec.write_text(
            json.dumps({"window": ["1/3", "2/3"], "table": table}),
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys,
            monkeypatch,
            ["deloop", "--kernel", f"table:{spec}"],
            dumps(wb_to_json(w)),
        )
        assert code == 0
        assert json.loads(out)["value"] == A.encode(want)
        assert json.loads(out)["value"] != [1, 3, 2]


def test_cells_counts(capsys, monkeypatch):
    code, out, _ = run(
        capsys, monkeypatch, ["cells", "--k", "3", "--l", "2", "--nontrivial"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["census"] == 9
    assert sum(c["size"] for c in data["classes"]) == 9


def test_graph_counts_and_dot(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["graph", "--k", "4", "--l", "3"])
    assert code == 0
    data = json.loads(out)
    assert len(data["classes"]) == 63 and len(data["edges"]) == 41
    code, out, _ = run(
        capsys,
        monkeypatch,
        ["--format", "dot", "graph", "--k", "4", "--l", "3"],
    )
    assert code == 0 and out.count("->") == 41


def test_budget_flag_and_env(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        monkeypatch,
        ["--budget", "5", "graph", "--k", "4", "--l", "3"],
    )
    assert code == 1 and "exceeds budget" in json.loads(out)["error"]
    monkeypatch.setenv("OPERAD_FORGE_BUDGET", "5")
    code, out, _ = run(capsys, monkeypatch, ["graph", "--k", "4", "--l", "3"])
    assert code == 1
    monkeypatch.setenv("OPERAD_FORGE_BUDGET", "bogus")
    code, _, err = run(capsys, monkeypatch, ["graph", "--k", "4", "--l", "3"])
    assert code == 2 and "OPERAD_FORGE_BUDGET" in err


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("the budget check should have refused first")


def test_cells_budget_is_checked_before_enumerating(capsys, monkeypatch):
    monkeypatch.delenv("OPERAD_FORGE_BUDGET", raising=False)
    monkeypatch.setattr(cli, "generate_classes", _refuse_to_run)
    code, out, _ = run(capsys, monkeypatch, ["cells", "--k", "8", "--l", "8"])
    assert code == 1
    assert out == (
        '{"error":"census size 1998586240 exceeds budget 200000",'
        '"k":8,"l":8}\n'
    )


@pytest.mark.parametrize("command", ["graph", "reedy"])
def test_graph_budget_is_checked_before_contracting(
    capsys, monkeypatch, command
):
    monkeypatch.setattr(cli, "build_graph", _refuse_to_run)
    monkeypatch.setattr(cli, "graph_classes", _refuse_to_run)
    code, out, _ = run(
        capsys, monkeypatch, ["--budget", "10", command, "--k", "4", "--l", "3"]
    )
    assert code == 1
    assert out == '{"error":"class count 63 exceeds budget 10","k":4,"l":3}\n'


def test_export_dot_graph_is_under_the_budget(capsys, monkeypatch):
    monkeypatch.delenv("OPERAD_FORGE_BUDGET", raising=False)
    monkeypatch.setattr(cli, "build_graph", _refuse_to_run)
    monkeypatch.setattr(cli, "graph_classes", _refuse_to_run)
    argv = ["export-dot", "--kind", "graph"]
    code, out, _ = run(capsys, monkeypatch, ["--budget", "10", *argv], '{"k":4,"l":3}')
    assert code == 1
    assert out == '{"error":"class count 63 exceeds budget 10","k":4,"l":3}\n'
    code, out, err = run(capsys, monkeypatch, argv, '{"k":0,"l":3}')
    assert code == 2 and out == ""
    assert err.startswith("operad-forge: --k and --l must be >= 1")
    for payload in ('{"k":"x","l":3}', '{"k":1e400,"l":2}', '{"k":Infinity,"l":2}',
                    '{"k":2.7,"l":true}', '{"k":4,"l":3.0}', '{"k":"4","l":3}'):
        code, out, _ = run(capsys, monkeypatch, argv, payload)
        assert code == 1
        assert json.loads(out)["error"].startswith("invalid payload for kind 'graph'")


HUGE = 10**15


@pytest.mark.parametrize(
    "argv, stdin, l",
    [
        (["cells", "--k", str(HUGE), "--l", "2"], "", 2),
        (["cells", "--k", str(HUGE), "--l", "1"], "", 1),
        (["graph", "--k", str(HUGE), "--l", "1"], "", 1),
        (["reedy", "--k", str(HUGE), "--l", "2"], "", 2),
        (["export-dot", "--kind", "graph"], f'{{"k":{HUGE},"l":2}}', 2),
    ],
)
def test_huge_grades_are_refused_before_counting(
    capsys, monkeypatch, argv, stdin, l
):
    monkeypatch.delenv("OPERAD_FORGE_BUDGET", raising=False)
    for name in ("census_size", "class_count", "generate_classes", "graph_classes"):
        monkeypatch.setattr(cli, name, _refuse_to_run)
    start = time.perf_counter()
    code, out, err = run(capsys, monkeypatch, argv, stdin)
    assert time.perf_counter() - start < 1
    assert (code, err) == (1, "")
    assert out == f'{{"error":"k {HUGE} exceeds budget 200000","k":{HUGE},"l":{l}}}\n'


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["cells", "--k", "3", "--l", "1000000000"], ""),
        (["graph", "--k", "3", "--l", "1000000000"], ""),
        (["reedy", "--k", "3", "--l", "1000000000"], ""),
        (["export-dot", "--kind", "graph"], '{"k":3,"l":1000000000}'),
    ],
)
def test_huge_l_is_refused_before_counting(capsys, monkeypatch, argv, stdin):
    monkeypatch.delenv("OPERAD_FORGE_BUDGET", raising=False)
    for name in ("census_size", "class_count", "generate_classes", "graph_classes"):
        monkeypatch.setattr(cli, name, _refuse_to_run)
    code, out, err = run(capsys, monkeypatch, argv, stdin)
    assert (code, err) == (1, "")
    assert out == (
        '{"error":"l 1000000000 exceeds budget 200000: grade (3, 1000000000) '
        'has at least 2**1000000000 - 2 classes","k":3,"l":1000000000}\n'
    )


def test_l_is_refused_exactly_when_its_bound_exceeds_the_budget(
    capsys, monkeypatch
):
    # every grade has at least 2**l - 2 classes; a smaller bound passes on
    # to the exact count
    monkeypatch.setattr(cli, "census_size", lambda *args: 0)
    monkeypatch.setattr(cli, "generate_classes", lambda *args: [])
    for budget in (1, 2, 5, 6, 7, 14, 29, 30, 62, 200000):
        for l in range(1, 20):
            argv = ["--budget", str(budget), "cells", "--k", "1", "--l", str(l)]
            code, out, _ = run(capsys, monkeypatch, argv)
            assert code == (1 if 2**l - 2 > budget else 0)
            assert json.loads(out)["l"] == l


def _no_census(*args, **kwargs):
    raise AssertionError("the cell complex should be generated class by class")


@pytest.mark.parametrize(
    "argv, stdin, classes",
    [
        (["cells", "--k", "3", "--l", "2", "--nontrivial"], "", 4),
        (["graph", "--k", "4", "--l", "3"], "", 63),
        (["reedy", "--k", "4", "--l", "3"], "", None),
        (["export-dot", "--kind", "graph"], '{"k":4,"l":3}', None),
        (["graph", "--k", "300", "--l", "2"], "", 301),
        (["cells", "--k", "400", "--l", "2"], "", 802),
        (["cells", "--k", "900", "--l", "1"], "", 1),
        (["--budget", "300", "graph", "--k", "300", "--l", "3"], "", None),
        (["--budget", "10", "reedy", "--k", "4", "--l", "3"], "", None),
        (["graph", "--k", "4", "--l", "3", "--level", "5"], "", None),
        (["reedy", "--k", "0", "--l", "3"], "", None),
        (["export-dot", "--kind", "graph"], '{"k":4}', None),
    ],
)
def test_cell_complex_commands_build_no_census(
    capsys, monkeypatch, argv, stdin, classes
):
    monkeypatch.delenv("OPERAD_FORGE_BUDGET", raising=False)
    census_api = (cells.enumerate_upsilon, cells.classify)
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "operad_forge":
            for attr, value in list(vars(module).items()):
                if any(value is f for f in census_api):
                    monkeypatch.setattr(module, attr, _no_census)
    assert cells.enumerate_upsilon is cells.classify is _no_census
    code, out, err = run(capsys, monkeypatch, argv, stdin)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        if classes is not None:
            assert len(json.loads(out)["classes"]) == classes
    elif code == 1:
        assert "error" in json.loads(out) and err == ""
    else:
        assert code == 2 and out == "" and err.startswith("operad-forge: ")


def test_k_is_compared_with_the_budget_before_the_census(capsys, monkeypatch):
    # at l = 1 the census is 1, but its one index has k geometric inputs
    argv = ["cells", "--k", "5", "--l", "1"]
    code, out, _ = run(capsys, monkeypatch, ["--budget", "5", *argv])
    assert code == 0 and json.loads(out)["census"] == 1
    code, out, _ = run(capsys, monkeypatch, ["--budget", "4", *argv])
    assert code == 1
    assert out == '{"error":"k 5 exceeds budget 4","k":5,"l":1}\n'


@pytest.mark.parametrize(
    "argv",
    [
        ["cells", "--k", "0", "--l", "3"],
        ["graph", "--k", "3", "--l", "0"],
        ["reedy", "--k", "-1", "--l", "2"],
    ],
)
def test_exit_code_2_on_non_positive_grading(capsys, monkeypatch, argv):
    code, out, err = run(capsys, monkeypatch, argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("operad-forge: --k and --l must be >= 1")


class _ShortWrites(io.RawIOBase):
    """A binary stream that takes at most 4,096 bytes per write, as a pipe
    write interrupted by a signal may."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        n = min(len(b), 4096)
        self.data += bytes(b[:n])
        return n


def test_stdout_is_written_in_full_through_short_writes(monkeypatch):
    raw = _ShortWrites()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8"))
    assert main(["graph", "--k", "4", "--l", "3"]) == 0
    assert raw.data.decode() == dumps(graph_to_json(build_graph(4, 3))) + "\n"


def test_homotopy_h_hand_value(capsys, monkeypatch):
    # single corolla main trees are rejected: the deformation needs a
    # non-corolla index
    cor = UpsilonIndex(corolla(2), (corolla(2),))
    payload = {
        "index": upsilon_to_json(cor),
        "heights": ["1/2"],
        "auxParams": [[]],
    }
    code, out, _ = run(
        capsys, monkeypatch, ["homotopy-h", "--u", "1/4"], dumps(payload)
    )
    assert code == 1
    path2 = UpsilonIndex(
        PlanarTree((PlanarTree((None,)),)), (corolla(1), corolla(1))
    )
    payload = {
        "index": upsilon_to_json(path2),
        "heights": ["0", "1/2"],
        "auxParams": [[], []],
    }
    code, out, _ = run(
        capsys, monkeypatch, ["homotopy-h", "--u", "1/4"], dumps(payload)
    )
    assert code == 0
    data = json.loads(out)
    assert data["heights"] == ["0", "3/4"]
    assert data["membership"]["H"] is True


def test_exit_code_2_on_bad_input(capsys, monkeypatch, tmp_path):
    code, _, err = run(capsys, monkeypatch, ["normalize-bv"], "{not json")
    assert code == 2 and "JSON" in err
    # an unknown operad, a free generator named ``l`` (the leaf marker of
    # the encoding), and one named twice
    for name in ("nonsense", "free:l=2:3", "free:a=2,a=3:3"):
        code, out, err = run(
            capsys, monkeypatch, ["--operad", name, "normalize-bv"], "{}"
        )
        assert code == 2 and out == "" and err.startswith("operad-forge: ")
    w = raw_wb(A, corolla(2), (iota(A, (2, 1)),), (F(1, 2),))
    code, _, err = run(
        capsys,
        monkeypatch,
        ["deloop", "--kernel", "warp"],
        dumps(wb_to_json(w)),
    )
    assert code == 2 and "unknown kernel" in err
    # a reversed window, a table that is not an object, a key or an image
    # that is no element, an image of the wrong arity, and two images for
    # one element
    for name, spec in [("reversed", {"window": ["2/3", "1/3"], "table": {}}),
                       ("list", {"table": []}),
                       ("bad-key", {"table": {"[1, 1]": [1, 2]}}),
                       ("no-json-key", {"table": {"[1, 2": [2, 1]}}),
                       ("bad-image", {"table": {"[1, 2]": [2, 2]}}),
                       ("arity", {"table": {"[1, 3, 2]": [1, 2]}}),
                       ("two-images", {"table": {"[1, 2]": [2, 1], "[1,2]": [1, 2]}})]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(
            capsys, monkeypatch, ["deloop", "--kernel", f"table:{path}"],
            dumps(wb_to_json(w)),
        )
        assert code == 2 and out == "" and err.startswith("operad-forge: ")
        assert "Traceback" not in err
    # argparse grammar errors also exit 2, a non-finite scale among them
    assert main(["no-such-command"]) == 2
    for scale in ("nan", "inf", "1e309"):
        assert main(["selftest", "--scale", scale]) == 2
    capsys.readouterr()


def _bv_with_edge_param(text):
    shape = PlanarTree((PlanarTree((None, None)),))
    data = bv_to_json(raw_bv(A, shape, ((1,), (2, 1)), (F(1, 3),)))
    data["edgeParams"]["1"] = text
    return data


_PATH2 = UpsilonIndex(PlanarTree((PlanarTree((None,)),)), (corolla(1), corolla(1)))
_POINT = wb_to_json(raw_wb(A, corolla(2), (iota(A, (2, 1)),), (F(1, 2),)))


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["normalize-bv"], _bv_with_edge_param("1/0")),
        (["act"], {"cubes": [["0", "1/0"]], "point": _POINT}),
        (["homotopy-h", "--u", "1/0"],
         {"index": upsilon_to_json(_PATH2), "heights": ["0", "1/2"],
          "auxParams": [[], []]}),
        (["normalize-bv"], _bv_with_edge_param("1e10000000")),
    ],
    ids=["edge-param-1/0", "act-cube-1/0", "homotopy-u-1/0", "exponent"],
)
def test_bad_rationals_exit_cleanly_and_fast(capsys, monkeypatch, argv, payload):
    start = time.perf_counter()
    code, out, err = run(capsys, monkeypatch, argv, dumps(payload))
    assert time.perf_counter() - start < 1.0
    assert code in (1, 2)
    assert "Traceback" not in out + err


def test_exit_code_2_on_deeply_nested_input():
    # a chain of 500 unary vertices: too deep for the JSON decoder
    depth = 500
    tree = '{"leaf": 1}'
    for _ in range(depth):
        tree = '{"node": {"children": [%s]}}' % tree
    payload = '{"tree": %s, "labels": %s, "edgeParams": %s}' % (
        tree,
        json.dumps([[1]] * depth),
        json.dumps({str(v): "1/2" for v in range(1, depth)}),
    )
    src = Path(__file__).resolve().parent.parent / "src"
    p = subprocess.run(
        [sys.executable, "-m", "operad_forge.cli", "--operad", "assoc",
         "normalize-bv"],
        input=payload, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert p.returncode == 2
    assert p.stdout == ""
    assert "Traceback" not in p.stderr
    assert p.stderr.strip() == "operad-forge: input nested too deeply"


def test_exit_code_1_with_witness_on_invalid_point(capsys, monkeypatch):
    # a label or a leaf word that the operad or the tree cannot decode
    for operad, label, sigma in [
        ("assoc", [1, 2, 3], [1, 2]),  # arity mismatch with the 2-leaf corolla
        ("assoc", [1, 1], [1, 2]),
        ("assoc", [1.7, 2], [1, 2]),
        ("assoc", [True, 2], [1, 2]),
        ("assoc", [2, 1], [2.9, True]),
        ("com", 2.5, [1, 2]),
        ("com", -3, [1, 2]),
        ("end:2", [2, [0, 1]], [1, 2]),
        ("end:2", [2, [0, 1, 1, 5]], [1, 2]),
        ("free:m=2:3", ["zz", ["l", 1], ["l", 2]], [1, 2]),
        ("free:m=2:3", ["m", ["l", 1], ["l", 1]], [1, 2]),
    ]:
        bad = bv_to_json(iota(A, (2, 1)))
        bad["labels"] = [label]
        bad["tree"]["sigma"] = sigma
        code, out, _ = run(
            capsys, monkeypatch, ["--operad", operad, "normalize-bv"], json.dumps(bad)
        )
        assert code == 1
        assert json.loads(out)["error"].startswith("invalid resolution point")


def test_compose_bv_command(capsys, monkeypatch):
    x = iota(A, (2, 1))
    y = iota(A, (1, 2))
    payload = {"x": bv_to_json(x), "y": bv_to_json(y)}
    code, out, _ = run(
        capsys, monkeypatch, ["compose-bv", "--slot", "1"], dumps(payload)
    )
    assert code == 0
    want = bv_normalize(
        raw_bv(
            A,
            PlanarTree((PlanarTree((None, None)), None)),
            ((2, 1), (1, 2)),
            (F(1),),
        )
    )
    assert json.loads(out) == json.loads(dumps(bv_to_json(want)))
    code, out, _ = run(
        capsys, monkeypatch, ["compose-bv", "--slot", "9"], dumps(payload)
    )
    assert code == 1 and json.loads(out)["slot"] == 9


def test_selftest_scale_comes_from_the_flag_only(capsys, monkeypatch):
    scales = []

    def fake_run_acceptance(seed, scale, report):
        scales.append(scale)
        return []

    monkeypatch.setattr("operad_forge.selftest.run_acceptance", fake_run_acceptance)
    assert main(["--budget", "10", "selftest"]) == 0
    assert main(["--budget", "10", "selftest", "--scale", "0.5"]) == 0
    assert scales == [1.0, 0.5]


def test_selftest_scaled_down(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["selftest", "--scale", "0.02"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert len(lines) == 9 and all(ln.startswith("[PASS]") for ln in lines)
