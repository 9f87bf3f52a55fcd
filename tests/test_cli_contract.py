"""The CLI contract on mutated input: every command that reads stdin, fed a
valid payload with a few parts replaced, deleted, duplicated or swapped,
exits 0, or 1 with a JSON object on stdout, or 2 with an ``operad-forge:``
message on stderr and nothing on stdout; ``main`` never raises.

The inputs are bounded so that every example is quick: points come from
small seeded samples (vertex widths at most 6), and replaced integers are
small or far over the budget."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from operad_forge.bv import bv_normalize
from operad_forge.cells import UpsilonIndex
from operad_forge.cli import main
from operad_forge.operads import operad_by_name
from operad_forge.sampling import random_bv, random_wb
from operad_forge.serialize import bv_to_json, upsilon_to_json, wb_to_json
from operad_forge.trees import PlanarTree, corolla
from operad_forge.wb import wb_normalize

OPERADS = ("assoc", "com", "end:2", "free:a=2,b=3:4")
HUGE = 10**15

_PATH2 = UpsilonIndex(PlanarTree((PlanarTree((None,)),)), (corolla(1), corolla(1)))


def _bases(name: str, seed: int) -> list[tuple[list[str], object]]:
    """``(argv, payload)`` for every stdin-reading command, all valid."""
    op = operad_by_name(name)
    rng = Random(seed)
    low = 0 if op.elements(0) else 1  # the free operad has no constants
    bv = [bv_to_json(bv_normalize(random_bv(rng, op, 3, min_arity=low)))
          for _ in range(2)]
    wb = [wb_to_json(wb_normalize(random_wb(rng, op, 3, min_arity=low)))
          for _ in range(2)]
    a2 = op.encode(op.elements(2)[0])
    return [
        (["normalize-bv"], bv[0]),
        (["normalize-wb"], wb[0]),
        (["compose-bv", "--slot", "1"], {"x": bv[0], "y": bv[1]}),
        (["bimod-left"], {"a": a2, "args": wb}),
        (["bimod-right", "--slot", "1"], {"x": wb[0], "a": a2}),
        (["mu"], bv[0]),
        (["mu-tilde"], wb[0]),
        (["prime", "--kind", "bv"], bv[1]),
        (["prime", "--kind", "wb"], wb[1]),
        (["filtration", "--kind", "bv", "--k", "3", "--l", "2"], bv[0]),
        (["filtration", "--kind", "wb", "--k", "3", "--l", "2"], wb[0]),
        (["act"], {"cubes": [["0", "1/3"], ["1/2", "1"]], "point": wb[0]}),
        (["deloop"], wb[1]),
        (["homotopy-h", "--u", "1/4"],
         {"index": upsilon_to_json(_PATH2), "heights": ["0", "1/2"],
          "auxParams": [[], []]}),
        (["export-dot"], bv[0]["tree"]),
        (["normalize-bv", "--format", "dot"], bv[1]),
        (["normalize-wb", "--format", "dot"], wb[1]),
    ]


CASES = [(name, argv, payload) for i, name in enumerate(OPERADS)
         for argv, payload in _bases(name, i)]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.sampled_from([HUGE, -HUGE]),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(["0", "1", "1/2", "-1/3", "1/0", "2/1", "l", "unit", "node", "leaf"]),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["node", "children", "leaf", "sigma", "t",
                                       "bv", "x"]) | st.text(max_size=3),
                      inner, max_size=3),
    max_leaves=8,
)


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, path + (i,))


def _mutate(data, doc):
    """One replacement, deletion, duplication or swap at a drawn place."""
    paths = list(_paths(doc))
    path = data.draw(st.sampled_from(paths))
    kind = data.draw(st.sampled_from(["replace", "delete", "duplicate", "swap"]))
    if kind == "replace" or not path:
        value = data.draw(values)
    elif kind == "swap":
        value = json.loads(json.dumps(_get(doc, data.draw(st.sampled_from(paths)))))
    else:
        value = None
    if not path:
        return value
    parent, last = _get(doc, path[:-1]), path[-1]
    if kind == "delete":
        del parent[last]
    elif kind == "duplicate" and isinstance(parent, list):
        parent.insert(last, json.loads(json.dumps(parent[last])))
    else:
        parent[last] = value
    return doc


def _get(doc, path):
    for part in path:
        doc = doc[part]
    return doc


def _run(argv, stdin: str):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name, argv, payload", CASES,
                         ids=[f"{n}:{' '.join(a)}" for n, a, _ in CASES])
@settings(derandomize=True, database=None, max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_payloads_keep_the_contract(name, argv, payload, data):
    doc = json.loads(json.dumps(payload))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    code, out, err = _run(["--operad", name, *argv], json.dumps(doc))
    if code == 0:
        assert out and err == ""
    elif code == 1:
        assert isinstance(json.loads(out), dict) and err == ""
    else:
        assert code == 2 and out == "" and err.startswith("operad-forge: ")


STDIN_COMMANDS = [argv for argv, _ in _bases("assoc", 0)]


@pytest.mark.parametrize("argv", STDIN_COMMANDS, ids=" ".join)
def test_an_integer_past_the_string_limit_is_unreadable_json(argv):
    # ``json.loads`` refuses an integer literal longer than the interpreter's
    # integer-string limit (4,300 digits) with a plain ``ValueError``, not a
    # ``JSONDecodeError``; every command reads it as unreadable stdin
    code, out, err = _run(argv, "1" * 5000)
    assert (code, out) == (2, "")
    assert err.startswith("operad-forge: stdin is not valid JSON: ")
