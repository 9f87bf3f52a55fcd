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

from operad_forge.bv import bv_compose, bv_normalize, iota, raw_bv
from operad_forge.cells import UpsilonIndex, build_graph
from operad_forge import cells, cli
from operad_forge.cli import main
from operad_forge.mapping import assoc_reversal_eta, window_loop, xi
from operad_forge.operads import AssocOperad, EndOperad, identity_eta, operad_by_name
from operad_forge.serialize import (
    bv_from_json,
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
        ["normalize-bv", "--format", "dot"],
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
        ["graph", "--k", "4", "--l", "3", "--format", "dot"],
    )
    assert code == 0 and out.count("->") == 41


def test_budget_flag(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        monkeypatch,
        ["--budget", "5", "graph", "--k", "4", "--l", "3"],
    )
    assert code == 1 and "exceeds budget" in json.loads(out)["error"]


def test_each_option_is_on_the_commands_that_read_it(capsys, monkeypatch):
    # the top level takes --operad and --budget only; --format is an option
    # of normalize-bv, normalize-wb and graph, export-dot renders a tree,
    # and no environment variable sets the budget
    def options(parser):
        return {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}

    top = cli._build_parser()
    assert options(top) == {"--operad", "--budget"}
    commands = next(a for a in top._actions if a.dest == "command").choices
    for option, readers in (("--format", {"normalize-bv", "normalize-wb", "graph"}),
                            ("--seed", {"selftest"}), ("--kind", {"prime", "filtration"})):
        assert {name for name, p in commands.items() if option in options(p)} == readers
    for argv in (["cells", "--k", "3", "--l", "2", "--format", "dot"],
                 ["--format", "dot", "graph", "--k", "3", "--l", "2"],
                 ["--seed", "7", "cells", "--k", "3", "--l", "2"],
                 ["export-dot", "--kind", "graph"]):
        code, out, err = run(capsys, monkeypatch, argv, '{"k":3,"l":2}')
        assert (code, out) == (2, "") and "\noperad-forge: error: " in err
    monkeypatch.setenv("OPERAD_FORGE_BUDGET", "5")
    code, out, err = run(capsys, monkeypatch, ["graph", "--k", "4", "--l", "3"])
    assert (code, err) == (0, "") and len(json.loads(out)["classes"]) == 63


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("the budget check should have refused first")


# The counting and building functions that each grade command's path calls,
# by the names that the refusal tests patch in ``cli``, and a request of
# each command under the budget.
GRADE_WORK = {
    "cells": {"census_size", "generate_classes"},
    "graph": {"class_count", "graph_classes", "build_graph"},
    "reedy": {"class_count", "graph_classes", "build_graph"},
}
UNDER_BUDGET = {
    "cells": (["cells", "--k", "3", "--l", "2"], ""),
    "graph": (["graph", "--k", "3", "--l", "3"], ""),
    "reedy": (["reedy", "--k", "3", "--l", "3"], ""),
}


def _refuse_to_run_in(capsys, monkeypatch, argv, names):
    """Patch each of ``names`` in ``cli`` to fail if called, after a positive
    control: the command of ``argv`` at a grade under the budget calls every
    one of them that its path uses, and there is one.  So a refusal test
    cannot pass because the grade path stopped calling what it patches."""
    command = next(a for a in argv if a in GRADE_WORK)
    used = GRADE_WORK[command] & set(names)
    reached = set()
    for name in names:
        def recorded(*args, _name=name, _original=getattr(cli, name), **kwargs):
            reached.add(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, recorded)
    small, stdin = UNDER_BUDGET[command]
    code, _, _ = run(capsys, monkeypatch, ["--budget", "1000", *small], stdin)
    assert code == 0 and used and reached == used
    for name in names:
        monkeypatch.setattr(cli, name, _refuse_to_run)


def test_cells_budget_is_checked_before_enumerating(capsys, monkeypatch):
    argv = ["cells", "--k", "8", "--l", "8"]
    _refuse_to_run_in(capsys, monkeypatch, argv, ["generate_classes"])
    code, out, _ = run(capsys, monkeypatch, argv)
    assert code == 1
    assert out == (
        '{"error":"census size 1998586240 exceeds budget 200000",'
        '"k":8,"l":8}\n'
    )


@pytest.mark.parametrize("command", ["graph", "reedy"])
def test_graph_budget_is_checked_before_contracting(
    capsys, monkeypatch, command
):
    argv = ["--budget", "10", command, "--k", "4", "--l", "3"]
    _refuse_to_run_in(capsys, monkeypatch, argv, ["build_graph", "graph_classes"])
    code, out, _ = run(capsys, monkeypatch, argv)
    assert code == 1
    assert out == '{"error":"class count at least 28 exceeds budget 10","k":4,"l":3}\n'


HUGE = 10**15


@pytest.mark.parametrize(
    "argv, stdin, l",
    [
        (["cells", "--k", str(HUGE), "--l", "2"], "", 2),
        (["cells", "--k", str(HUGE), "--l", "1"], "", 1),
        (["graph", "--k", str(HUGE), "--l", "1"], "", 1),
        (["reedy", "--k", str(HUGE), "--l", "2"], "", 2),
    ],
)
def test_huge_grades_are_refused_before_counting(
    capsys, monkeypatch, argv, stdin, l
):
    _refuse_to_run_in(capsys, monkeypatch, argv,
                      ["census_size", "class_count", "generate_classes", "graph_classes"])
    start = time.perf_counter()
    code, out, err = run(capsys, monkeypatch, argv, stdin)
    assert time.perf_counter() - start < 1
    assert (code, err) == (1, "")
    assert out == f'{{"error":"k {HUGE} exceeds budget 200000","k":{HUGE},"l":{l}}}\n'


@pytest.mark.parametrize(
    "argv, witness",
    [
        (["cells", "--k", "200000", "--l", "2"], "census size 40000600000"),
        (["cells", "--k", "8000", "--l", "2"], "census size 64024000"),
        (["cells", "--k", "5000", "--l", "3"], "census size at least 166766680000"),
        (
            ["cells", "--k", "5000", "--l", "3", "--nontrivial"],
            "census size at least 125075010000",
        ),
    ],
)
def test_huge_census_is_refused_before_counting(capsys, monkeypatch, argv, witness):
    # k passes its own check, and the closed-form census bound refuses
    _refuse_to_run_in(capsys, monkeypatch, argv, ["census_size", "generate_classes"])
    start = time.perf_counter()
    code, out, err = run(capsys, monkeypatch, argv)
    assert time.perf_counter() - start < 1
    assert (code, err) == (1, "")
    k, l = int(argv[2]), int(argv[4])
    assert out == f'{{"error":"{witness} exceeds budget 200000","k":{k},"l":{l}}}\n'


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["graph", "--k", "200000", "--l", "2"], ""),
        (["reedy", "--k", "200000", "--l", "2"], ""),
    ],
)
def test_huge_class_count_is_refused_before_counting(capsys, monkeypatch, argv, stdin):
    # k passes its own check, and at l = 2 the closed form k + 1 refuses
    _refuse_to_run_in(capsys, monkeypatch, argv, ["class_count", "graph_classes", "build_graph"])
    start = time.perf_counter()
    code, out, err = run(capsys, monkeypatch, argv, stdin)
    assert time.perf_counter() - start < 1
    assert (code, err) == (1, "")
    assert out == (
        '{"error":"class count 200001 exceeds budget 200000","k":200000,"l":2}\n'
    )


@pytest.mark.parametrize("k, l, bound", [(4000, 3, 16012000), (500, 4, 84335000)])
@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["graph"], ""),
        (["reedy"], ""),
    ],
)
def test_class_bound_refuses_before_counting_at_l_3_and_above(
    capsys, monkeypatch, argv, stdin, k, l, bound
):
    # the exact count at (4000, 3) took seconds; the path bound refuses first
    _refuse_to_run_in(capsys, monkeypatch, argv, ["class_count", "graph_classes", "build_graph"])
    if not stdin:
        argv = [*argv, "--k", str(k), "--l", str(l)]
    start = time.perf_counter()
    code, out, err = run(capsys, monkeypatch, argv, stdin.format(k=k, l=l))
    assert time.perf_counter() - start < 1
    assert (code, err) == (1, "")
    assert out == (
        f'{{"error":"class count at least {bound} exceeds budget 200000",'
        f'"k":{k},"l":{l}}}\n'
    )


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["cells", "--k", "3", "--l", "1000000000"], ""),
        (["graph", "--k", "3", "--l", "1000000000"], ""),
        (["reedy", "--k", "3", "--l", "1000000000"], ""),
    ],
)
def test_huge_l_is_refused_before_counting(capsys, monkeypatch, argv, stdin):
    _refuse_to_run_in(capsys, monkeypatch, argv,
                      ["census_size", "class_count", "generate_classes", "graph_classes"])
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
    # to the census bound and the exact count, both stubbed to 0 here
    monkeypatch.setattr(cli, "census_lower_bound", lambda *args: 0)
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
        (["graph", "--k", "4", "--l", "3", "--format", "dot"], "", None),
        (["graph", "--k", "300", "--l", "2"], "", 301),
        (["cells", "--k", "400", "--l", "2"], "", 802),
        (["cells", "--k", "900", "--l", "1"], "", 1),
        (["--budget", "300", "graph", "--k", "300", "--l", "3"], "", None),
        (["--budget", "10", "reedy", "--k", "4", "--l", "3"], "", None),
        (["graph", "--k", "4", "--l", "3", "--level", "5"], "", None),
        (["reedy", "--k", "0", "--l", "3"], "", None),
    ],
)
def test_cell_complex_commands_build_no_census(
    capsys, monkeypatch, argv, stdin, classes
):
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
    """A binary stream that takes at most ``limit`` bytes per write, as a
    pipe write interrupted by a signal may."""

    def __init__(self, limit=4096):
        self.data = bytearray()
        self.limit = limit

    def writable(self):
        return True

    def write(self, b):
        n = min(len(b), self.limit)
        self.data += bytes(b[:n])
        return n


def test_stdout_is_written_in_full_through_short_writes(monkeypatch):
    raw = _ShortWrites()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8"))
    assert main(["graph", "--k", "4", "--l", "3"]) == 0
    assert raw.data.decode() == dumps(graph_to_json(build_graph(4, 3))) + "\n"


def _nested_too_deeply(*args):
    raise RecursionError


@pytest.mark.parametrize(
    "argv, message",
    [
        (["graph", "--k", "0", "--l", "2"],
         "operad-forge: --k and --l must be >= 1, got --k 0 --l 2\n"),
        (["cells", "--k", "3", "--l", "2"], "operad-forge: input nested too deeply\n"),
    ],
)
def test_stderr_is_written_in_full_through_one_byte_writes(monkeypatch, argv, message):
    # the exit-2 messages take the same full-write loop as stdout
    monkeypatch.setattr(cli, "census_size", _nested_too_deeply)
    raw = _ShortWrites(limit=1)
    monkeypatch.setattr(sys, "stderr", io.TextIOWrapper(raw, encoding="utf-8"))
    assert main(argv) == 2
    assert raw.data.decode() == message


@pytest.mark.parametrize(
    "argv, stream, code",
    [(["--help"], "stdout", 0), (["graph", "--k"], "stderr", 2)],
)
def test_argparse_output_is_written_in_full_through_one_byte_writes(
    monkeypatch, argv, stream, code
):
    # argparse's help, usage and grammar errors take the full-write loop
    # too; an in-memory stream takes each write whole and gives the text
    whole = io.StringIO()
    monkeypatch.setattr(sys, stream, whole)
    assert main(argv) == code
    raw = _ShortWrites(limit=1)
    monkeypatch.setattr(sys, stream, io.TextIOWrapper(raw, encoding="utf-8"))
    assert main(argv) == code
    getattr(sys, stream).flush()
    assert raw.data.decode() == whole.getvalue()
    assert whole.getvalue().startswith("usage: operad-forge")
    assert len(whole.getvalue()) > (1000 if code == 0 else 100)


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
    # free names off the grammar: an empty generator name, a bound below the
    # unit's arity, a part too many or too few, a generator with no arity
    for name in ("free:a=2,=3:4", "free:a=2:0", "free:a=2:-1", "free:a=2:4:5",
                 "free:", "free:a:4"):
        code, out, err = run(
            capsys, monkeypatch, ["--operad", name, "normalize-bv"], "{}"
        )
        assert code == 2 and out == ""
        assert err == (f"operad-forge: operad {name!r} is not free:<name>=<arity>,"
                       "...:<max arity> with non-empty names, integer arities and "
                       "max arity >= 1\n")
    # end names off the grammar: no size, a size that is not a decimal
    # integer, a signed one, and one with a part too many
    for name in ("end:", "end:x", "end:2.5", "end:-1", "end:+2", "end: 2", "end:2_0",
                 "end:2:3"):
        code, out, err = run(
            capsys, monkeypatch, ["--operad", name, "normalize-bv"], "{}"
        )
        assert code == 2 and out == ""
        assert err == f"operad-forge: operad {name!r} is not end:<size> with an integer size\n"
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
        # no element of arity 4 under the bound 3
        ("free:a=2:3", ["a", ["a", ["l", 1], ["l", 2]], ["a", ["l", 3], ["l", 4]]],
         [1, 2, 3, 4]),
    ]:
        bad = bv_to_json(iota(A, tuple(range(len(sigma), 0, -1))))
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


def _com_comb(n: int):
    """The normal form of the ``com`` comb with ``n`` vertices, each with a
    leaf and then the next vertex, every edge of length 1/2."""
    shape = PlanarTree((None, None))
    for _ in range(n - 1):
        shape = PlanarTree((None, shape))
    return bv_normalize(raw_bv(operad_by_name("com"), shape, (2,) * n, (F(1, 2),) * (n - 1)))


def test_compose_bv_writes_an_answer_deeper_than_its_input(capsys, monkeypatch):
    # each input is 200 vertices deep, which the JSON decoder reads at the
    # default recursion limit; the 400-vertex composite is written with
    # its own stack, not refused as input nested too deeply
    limit = sys.getrecursionlimit()
    x = _com_comb(200)
    payload = dumps({"x": bv_to_json(x), "y": bv_to_json(x)})
    sys.setrecursionlimit(1000)
    try:
        code, out, err = run(capsys, monkeypatch,
                             ["--operad", "com", "compose-bv", "--slot", "201"], payload)
    finally:
        sys.setrecursionlimit(limit)
    assert (code, err) == (0, "")
    sys.setrecursionlimit(10000)
    try:
        doc = json.loads(out)
    finally:
        sys.setrecursionlimit(limit)
    z = bv_from_json(doc)
    assert z.n_vertices == 400 and z.arity == 401
    assert z == bv_compose(x, 201, x)


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


def test_point_commands_call_the_module_bindings(capsys, monkeypatch):
    # the benchmark's tracer rebinds module attributes by identity, so each
    # point command looks its functions up on ``cli`` when it runs
    calls = []
    for name in ("bv_normalize", "wb_normalize", "mu", "mu_tilde"):
        def counted(*args, _name=name, _original=getattr(cli, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(cli, name, counted)
    bv = dumps(bv_to_json(iota(A, (2, 1))))
    wb = dumps(wb_to_json(raw_wb(A, corolla(2), (iota(A, (2, 1)),), (F(1, 2),))))
    for argv, stdin, want in [
        (["normalize-bv"], bv, ["bv_normalize"]),
        (["normalize-wb"], wb, ["wb_normalize"]),
        (["mu"], bv, ["bv_normalize", "mu"]),
        (["mu-tilde"], wb, ["wb_normalize", "mu_tilde"]),
    ]:
        calls.clear()
        assert run(capsys, monkeypatch, argv, stdin)[0] == 0
        assert calls == want


def test_an_image_over_the_truncation_is_refused(capsys, monkeypatch):
    # a valid point of the free operad truncated at arity 4 with 5 inputs:
    # its image does not exist, and the command exits 1 with a witness
    op = operad_by_name("free:a=2,b=3:4")
    a, b = (op.decode(["a", ["l", 1], ["l", 2]]),
            op.decode(["b", ["l", 1], ["l", 2], ["l", 3]]))
    shape = PlanarTree((PlanarTree((None, None)), None, PlanarTree((None, None))))
    x = raw_bv(op, shape, (b, a, a), (F(1, 2), F(1, 2)))
    w = raw_wb(op, corolla(5), (x,), (F(1, 2),))
    for argv, payload in ((["mu"], bv_to_json(x)), (["mu-tilde"], wb_to_json(w))):
        code, out, err = run(
            capsys, monkeypatch, ["--operad", op.name, *argv], dumps(payload)
        )
        assert (code, err) == (1, "")
        assert out == '{"error":"composition arity 5 exceeds bound 4"}\n'


def _end_point(size: int) -> dict:
    """A bimodule point over ``end:size`` whose one label is a constant."""
    op = operad_by_name(f"end:{size}")
    x = raw_bv(op, corolla(0), ((0, (size - 1,)),), ())
    return wb_to_json(raw_wb(op, corolla(0), (x,), (F(1, 2),)))


END_COMMANDS = [
    (["act"], lambda p: {"cubes": [["0", "1/2"]], "point": p}),
    (["prime", "--kind", "wb"], lambda p: p),
    (["filtration", "--kind", "wb", "--k", "1"], lambda p: p),
]


@pytest.mark.parametrize("argv, payload", END_COMMANDS)
def test_end_operad_over_the_budget_is_refused_before_it_is_built(
    capsys, monkeypatch, argv, payload
):
    # end:N's unit lists N values; N is compared with the budget first
    monkeypatch.setattr(EndOperad, "unit", _refuse_to_run)
    name = "end:1000000000000"
    start = time.perf_counter()
    code, out, err = run(
        capsys, monkeypatch, ["--operad", name, *argv], dumps(payload(_end_point(2)))
    )
    assert time.perf_counter() - start < 1
    assert (code, err) == (1, "")
    assert out == (
        '{"error":"operad size 1000000000000 exceeds budget 200000",'
        f'"operad":"{name}"}}\n'
    )


@pytest.mark.parametrize("argv, payload", END_COMMANDS)
@pytest.mark.parametrize("size", [2, 200000])
def test_end_operad_within_the_budget_runs(capsys, monkeypatch, argv, payload, size):
    code, out, err = run(
        capsys, monkeypatch, ["--operad", f"end:{size}", *argv],
        dumps(payload(_end_point(size))),
    )
    assert (code, err) == (0, "") and json.loads(out)
