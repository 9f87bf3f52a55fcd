"""The command line's bytes over a fixed corpus of about 330 requests through
``cli.main``: every point command on both resolutions, fed valid, malformed
and invalid payloads, with kernel files, cubes, ``homotopy-h`` and a few
small grades.  The exit codes, stdout and stderr of each command's requests
fold into one SHA-256, compared with the digest recorded when the corpus was
made, so a change to the CLI that moves a byte fails here and names the
command.  Refusals that depend on the class bound at ``l >= 3`` or on the
size of an ``end`` operad are pinned by their own tests in ``test_cli.py``.
The benchmark's grade requests have their own stdout SHA-256s, and
``reedy`` a count of the indices it decodes and contracts: none."""

import hashlib
import io
import json
import sys
from random import Random

import pytest

from operad_forge import cells
from operad_forge.cells import UpsilonIndex, build_graph
from operad_forge.cli import main
from operad_forge.mapping import assoc_reversal_eta
from operad_forge.operads import operad_by_name
from operad_forge.sampling import random_bv, random_cubes, random_wb
from operad_forge.serialize import (
    bv_to_json,
    cubes_to_json,
    dumps,
    upsilon_to_json,
    wb_to_json,
)
from operad_forge.trees import PlanarTree, corolla

OPERADS = ("assoc", "com", "end:2", "free:a=2,b=3:4")


def _kernel_files(path):
    """Good and bad kernel files for ``act`` and ``deloop``, in ``path``."""
    rev = assoc_reversal_eta()
    A = operad_by_name("assoc")
    table = {json.dumps(A.encode(x)): A.encode(rev(x))
             for n in range(1, 5) for x in A.elements(n) if rev(x) != x}
    files = {
        "id.json": {"window": ["1/4", "3/4"], "table": {}},
        "rev.json": {"window": ["1/3", "2/3"], "table": table},
        "reversed-window.json": {"window": ["2/3", "1/3"], "table": {}},
        "bad-key.json": {"table": {"[1, 1]": [1, 2]}},
    }
    for name, spec in files.items():
        (path / name).write_text(json.dumps(spec), encoding="utf-8")
    (path / "not-json.json").write_text("{", encoding="utf-8")


def _copy(doc):
    return json.loads(json.dumps(doc))


def _broken(doc, labels: str) -> list[str]:
    """Malformed and invalid versions of a point payload: not JSON, not an
    object, each key deleted, a label that is no element, a leaf word that
    is no permutation, and a parameter that is no rational in range."""
    out = ["{not json", "[]"]
    for key in sorted(doc):
        d = _copy(doc)
        del d[key]
        out.append(dumps(d))
    if doc[labels]:
        d = _copy(doc)
        d[labels][0] = "zz"
        out.append(dumps(d))
    if len(doc["tree"]["sigma"]) >= 2:
        d = _copy(doc)
        d["tree"]["sigma"] = [1] * len(d["tree"]["sigma"])
        out.append(dumps(d))
    d = _copy(doc)
    if labels == "labels" and d["edgeParams"]:
        d["edgeParams"][sorted(d["edgeParams"])[0]] = "1/0"
        out.append(dumps(d))
    elif labels == "vertices" and d["vertices"]:
        d["vertices"][0]["t"] = "3/2"
        out.append(dumps(d))
    return out


_PATH2 = UpsilonIndex(PlanarTree((PlanarTree((None,)),)), (corolla(1), corolla(1)))
_COROLLA = UpsilonIndex(corolla(2), (corolla(2),))


def _homotopy_requests() -> list[tuple[str, list[str], str]]:
    good = {"index": upsilon_to_json(_PATH2), "heights": ["0", "1/2"],
            "auxParams": [[], []]}
    out = [("homotopy-h", ["homotopy-h", "--u", u], dumps(good))
           for u in ("0", "1/4", "1/2", "1", "2", "1/0", "x")]
    cor = {"index": upsilon_to_json(_COROLLA), "heights": ["1/2"], "auxParams": [[]]}
    out.append(("homotopy-h", ["homotopy-h", "--u", "1/4"], dumps(cor)))
    for key in sorted(good):
        d = _copy(good)
        del d[key]
        out.append(("homotopy-h", ["homotopy-h", "--u", "1/4"], dumps(d)))
    d = _copy(good)
    d["heights"] = ["1/2"]
    out.append(("homotopy-h", ["homotopy-h", "--u", "1/4"], dumps(d)))
    out.append(("homotopy-h", ["homotopy-h", "--u", "1/4"], "{not json"))
    return out


def _kernel_requests() -> list[tuple[str, list[str], str]]:
    """``deloop`` and ``act`` under kernel files, good and bad."""
    A = operad_by_name("assoc")
    w = wb_to_json(random_wb(Random("cli-bytes:kernels"), A, 3))
    cubes = cubes_to_json(random_cubes(Random(1), len(w["tree"]["sigma"])))["cubes"]
    out = [("kernel", ["act", "--kernel", "table:rev.json"], dumps({"cubes": cubes, "point": w}))]
    for kernel in ("table:rev.json", "warp", "table:missing.json",
                   "table:reversed-window.json", "table:not-json.json",
                   "table:bad-key.json"):
        out.append(("kernel", ["deloop", "--kernel", kernel], dumps(w)))
    return out


def _grade_requests() -> list[tuple[str, list[str], str]]:
    """Small grades and refusals that no bound at ``l >= 3`` decides."""
    argvs = [
        ["cells", "--k", "3", "--l", "2"],
        ["cells", "--k", "3", "--l", "2", "--nontrivial"],
        ["--budget", "10", "cells", "--k", "4", "--l", "3"],
        ["graph", "--k", "3", "--l", "2"],
        ["graph", "--k", "3", "--l", "2", "--format", "dot"],
        ["graph", "--k", "3", "--l", "2", "--level", "1"],
        ["graph", "--k", "3", "--l", "2", "--level", "9"],
        ["reedy", "--k", "3", "--l", "2"],
        ["--budget", "3", "graph", "--k", "4", "--l", "2"],
        ["--budget", "3", "reedy", "--k", "4", "--l", "2"],
        ["graph", "--k", "0", "--l", "2"],
    ]
    return [("grade", argv, "") for argv in argvs]


def _points(rng, op, draw, low) -> list:
    """Two raw points with at least two vertices and two to four leaves
    each, whose image the free operad truncated at arity 4 has."""
    out = []
    while len(out) < 2:
        p = draw(rng, op, 3, min_arity=low)
        if p.tree.shape.n_vertices >= 2 and 2 <= p.tree.shape.n_leaves <= 4:
            out.append(p)
    return out


def _point_requests(i: int, name: str) -> list[tuple[str, list[str], str]]:
    op = operad_by_name(name)
    rng = Random(f"cli-bytes:{name}")
    low = 0 if op.elements(0) else 1  # the free operad has no constants
    bv = [bv_to_json(p) for p in _points(rng, op, random_bv, low)]
    wb = [wb_to_json(p) for p in _points(rng, op, random_wb, low)]
    a2 = op.encode(op.elements(2)[0])
    kind = {"bv": bv, "wb": wb}
    labels = {"bv": "labels", "wb": "vertices"}
    base = ["--operad", name]
    out = []

    def add(group, argv, stdin):
        out.append((group, base + argv, stdin if isinstance(stdin, str) else dumps(stdin)))

    for side in ("bv", "wb"):
        pts = kind[side]
        broken = _broken(pts[i % 2], labels[side])
        image = "mu" if side == "bv" else "mu-tilde"
        for p in pts + broken:
            add(f"normalize-{side}", [f"normalize-{side}"], p)
        for p in (pts[1], broken[-2]):
            add(f"normalize-{side}", [f"normalize-{side}", "--format", "dot"], p)
        for p in pts + broken[-2:]:
            add(image, [image], p)
        for p in pts + broken[1::5]:
            add(f"prime {side}", ["prime", "--kind", side], p)
        for k, l in ((3, 2), (1, None)):
            opts = ["--k", str(k)] + ([] if l is None else ["--l", str(l)])
            add(f"filtration {side}", ["filtration", "--kind", side, *opts], pts[i % 2])
        add(f"filtration {side}", ["filtration", "--kind", side, "--k", "2"], broken[-1])
    add("export-dot", ["export-dot"], bv[0]["tree"])
    add("export-dot", ["export-dot"], {"node": 3})

    for slot in ("1", "0", "9"):
        add("compose-bv", ["compose-bv", "--slot", slot], {"x": bv[0], "y": bv[1]})
    add("compose-bv", ["compose-bv", "--slot", "1"], {"x": bv[0]})
    add("compose-bv", ["compose-bv", "--slot", "1"], {"x": bv[0], "y": "zz"})

    add("bimod-left", ["bimod-left"], {"a": a2, "args": wb})
    add("bimod-left", ["bimod-left"], {"a": a2, "args": wb[:1]})
    add("bimod-left", ["bimod-left"], {"a": "zz", "args": wb})
    add("bimod-left", ["bimod-left"], {"a": a2, "args": [wb[0], {"tree": 1}]})
    for slot in ("1", "0", "9"):
        add("bimod-right", ["bimod-right", "--slot", slot], {"x": wb[1], "a": a2})
    add("bimod-right", ["bimod-right", "--slot", "1"], {"x": wb[1], "a": [[]]})

    p = wb[i % 2]
    cubes = cubes_to_json(random_cubes(rng, len(p["tree"]["sigma"])))["cubes"]
    add("act", ["act"], {"cubes": cubes, "point": p})
    add("act", ["act", "--kernel", "table:id.json"], {"cubes": cubes, "point": p})
    add("act", ["act"], {"cubes": cubes + [["0", "1"]], "point": p})
    add("act", ["act", "--kernel", "constant", "--kernel", "constant",
                "--kernel", "constant"], {"cubes": cubes[:2], "point": p})
    add("act", ["act"], {"cubes": [["0", "1/0"]], "point": p})
    add("act", ["act"], {"cubes": [["1/2", "1/3"]], "point": p})
    add("act", ["act"], {"point": p})

    for p in wb:
        add("deloop", ["deloop"], p)
    add("deloop", ["deloop", "--kernel", "table:id.json"], wb[1])
    add("deloop", ["deloop"], _broken(wb[0], "vertices")[-1])
    return out


def corpus() -> list[tuple[str, list[str], str]]:
    """``(group, argv, stdin)`` for every request, in a fixed order."""
    out = []
    for i, name in enumerate(OPERADS):
        out += _point_requests(i, name)
    for name in ("nonsense", "end:0", "free:l=2:3"):
        out.append(("operad", ["--operad", name, "normalize-bv"], "{}"))
    out += _kernel_requests()
    return out + _homotopy_requests() + _grade_requests()


def _digests(requests) -> dict[str, str]:
    hashes: dict = {}
    for group, argv, stdin in requests:
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
        try:
            code = main(argv)
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        record = json.dumps([argv, stdin, code, out.getvalue(), err.getvalue()])
        hashes.setdefault(group, hashlib.sha256()).update(record.encode() + b"\n")
    return {group: h.hexdigest() for group, h in hashes.items()}


# Recorded before the CLI was routed through one request path.  The
# ``export-dot``, ``grade``, ``normalize-bv`` and ``normalize-wb`` digests
# were recorded again when each request got one spelling (a record holds
# the argv): each request gave the bytes of its old spelling, but for a
# refusal that ``export-dot`` prefixed ``invalid payload for kind ...: ``.
RECORDED = {
    "act": "94b3c8086a31bfcc59cfc7caeae77abd26a56779912a628e053caa889d0e030b",
    "bimod-left": "42b89d8bb0a1508b50ae6c52c8307b2017add6b71279bd06c5edec7d1572d0e2",
    "bimod-right": "4fa5c0781dd4beb154d5d800ea11e734ac60767a61c9fcdb85bf9d5160e0740b",
    "compose-bv": "4f4ae4026c07d8f957052a194f970aa376eedbc49972c6277199550c6e6b6da4",
    "deloop": "9cfa59a009b54c17d8241516dc98aab4f601851699f1077d4fc0ca506d888eb6",
    "export-dot": "59bb66c0efd899dbdcca6b485e49c85582897b2d93eb5a5348e776314c806bfa",
    "filtration bv": "00f654560afaabafda5f67568551af9b02afaeae86fba9d21070d6d63232062b",
    "filtration wb": "b1b26c80d81b7ea0eb6d40fc851cc07b7e512e19cc3b476ced68fadfe3108289",
    "grade": "23d55374bc9435556d9bf4203dd5ea9d4c79ab259d22da784b1823543f6a434e",
    "homotopy-h": "3a14b2cbfdfdab247db88cf5acbfd2de8b8b950c003b3dc698a0fa1c618aec17",
    "kernel": "fad86824892e78667f8a24e4d5e3274144b93caf80dc3d82fc7165c32ed20e74",
    "mu": "0e592ba59ab109c64436264c3d4e5075978e31e3b9aa89a6bdf18d573cf1996c",
    "mu-tilde": "e2385faf020ec2536362809056b53851eb2d3ae1ee0bb350d4b8a44f7e9f513b",
    "normalize-bv": "2d87a347ff6f183c9d2901cd20629d7ae3d2626b04a1e1aca9f38e1615ae0aed",
    "normalize-wb": "b5d79ce4d0cbe063943b27a9823053ae20c68e3350cd9364aeccaf19f24d2aca",
    "operad": "71652b32e07e422ee497aaa2ae0415b0e4209d1683be909ff6453e2dbd8a6478",
    "prime bv": "e4369ddeae96b890ca15d569805c1ca51d20b41c2960e3c38723c4b56e0d09e2",
    "prime wb": "9a367b4a6e7ec5238f4361a6921472f7a944b4ef84e1477f0167088858663994",
}


def test_cli_bytes_match_the_recorded_digests(monkeypatch, tmp_path):
    _kernel_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    requests = corpus()
    assert 300 <= len(requests) <= 360
    got = _digests(requests)
    changed = sorted(g for g in got.keys() | RECORDED.keys() if got.get(g) != RECORDED.get(g))
    assert changed == []


def _stdout(argv) -> str:
    out, saved = io.StringIO(), sys.stdout
    sys.stdout = out
    try:
        assert main(argv) == 0
    finally:
        sys.stdout = saved
    return out.getvalue()


# The stdout SHA-256 of the benchmark's three grade requests and of
# ``reedy --k 5 --l 4``, recorded before the contraction graph was computed
# on the class keys.
GRADE_PINS = {
    "graph --k 5 --l 3": "33d22616168ac121b257257b357a8b5a2fb8f0b4fed598176374b0163374ce31",
    "cells --k 6 --l 3 --nontrivial":
        "700563fa3efe4ff65511d87c563e784310981c84e3571f53e4f36c44cf3779c9",
    "reedy --k 4 --l 4": "9b06101ee7501a44762cc9e83cb35c0e9468b3a62d0ef95a40b23854850ced31",
    "reedy --k 5 --l 4": "ce4efb4ce4b79c5366469dc58b41cdecb80cc7f062332d7a60dd45bb4c9995c2",
}


@pytest.mark.parametrize("command", sorted(GRADE_PINS))
def test_grade_outputs_keep_their_bytes(monkeypatch, command):
    got = hashlib.sha256(_stdout(command.split()).encode()).hexdigest()
    assert got == GRADE_PINS[command]


def test_reedy_decodes_and_contracts_no_index(monkeypatch):
    # the graph is built on the class keys, and reedy writes no
    # representative; cells, which writes every one, is the control
    calls = {"_decode": 0, "contract_main_edge": 0}
    for name in calls:
        original = getattr(cells, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cells, name, counted)
    _stdout(["reedy", "--k", "4", "--l", "4"])
    assert len(build_graph(5, 4).edges) == 1111
    assert calls == {"_decode": 0, "contract_main_edge": 0}
    _stdout(["cells", "--k", "4", "--l", "3", "--nontrivial"])
    assert calls["_decode"] > 0
