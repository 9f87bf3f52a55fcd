"""The engine's value classes: their ``repr``, equality and hashing.

The reprs below are pinned strings: a witness of a failed law or a
``selftest`` message prints them, so they must not change.  Memory
addresses inside a repr (an operad or a kernel has the default one) are
masked before the comparison.
"""

import hashlib
import json
import re
from fractions import Fraction as F

import pytest

from operad_forge.bv import BVPoint, bv_decompose, bv_normalize, iota, raw_bv
from operad_forge.cells import (
    TreeClass,
    UpsilonIndex,
    _key_vertex,
    build_graph,
    classify,
    reedy_of,
)
from operad_forge.mapping import (
    BimodMapElement,
    LoopElement,
    assoc_reversal_eta,
    mutant_bimod,
    mutant_multiplicative_loop,
    validate_bimodule_map,
    validate_loop,
)
from operad_forge.operads import (
    AssocOperad,
    ComOperad,
    CubeConfig,
    OperadMapEta,
    ValidationReport,
    Violation,
    identity_eta,
)
from operad_forge.selftest import CriterionResult
from operad_forge.trees import Decomposition, PlanarTree, Tree, corolla
from operad_forge.wb import (
    WBPoint,
    raw_wb,
    wb_decompose,
    wb_normalize,
)

A = AssocOperad()
C = ComOperad()
CHERRY = PlanarTree((None, PlanarTree((None, None))))


def _bv():
    return bv_normalize(raw_bv(A, CHERRY, ((2, 1), (1, 2)), (F(1),), (3, 1, 2)))


def _wb():
    labels = (iota(A, (1, 2)), iota(A, (2, 1)))
    return wb_normalize(raw_wb(A, CHERRY, labels, (F(0), F(1, 2)), (2, 3, 1)))


def _reverse(x):
    return tuple(reversed(x))


def _instances() -> dict:
    """One instance of each value class, built the same way every time; a
    ``Decomposition`` has one of each resolution."""
    graph = build_graph(3, 2)
    eta = identity_eta(A)
    report = ValidationReport("demo", 2)
    report.add("unit", point=iota(A, (1,)), t=F(1, 3), got=(1,))
    return {
        "Tree": Tree(CHERRY, (3, 1, 2)),
        "BVPoint": _bv(),
        "BVDecomposition": bv_decompose(_bv()),
        "WBPoint": _wb(),
        "WBDecomposition": wb_decompose(_wb()),
        "UpsilonIndex": UpsilonIndex(corolla(2), (corolla(2),)),
        "TreeClass": classify([UpsilonIndex(corolla(2), (corolla(2),))])[0],
        "_KeyVertex": _key_vertex(0, []),
        "ContractionGraph": graph,
        "ReedyData": reedy_of(graph),
        "LoopElement": LoopElement(eta, max, "loop-max", 2),
        "BimodMapElement": BimodMapElement(eta, min, "bimod-min"),
        "OperadMapEta": OperadMapEta(A, A, _reverse, "rev"),
        "Violation": Violation("unit", {"t": F(1, 2)}),
        "ValidationReport": report,
        "CubeConfig": CubeConfig(((F(1, 4), F(1, 2)), (F(0), F(1, 8)))),
        "CriterionResult": CriterionResult(3, "round trip", True, 12, "ok"),
    }


def _mutant_reports() -> list[ValidationReport]:
    """Two reports with violations: a loop twisted only on single-vertex
    points, and a bimodule map twisted at interior heights."""
    eta, rev = identity_eta(A), assoc_reversal_eta()
    points = [iota(A, w) for w in ((2, 1), (1, 3, 2), (2, 3, 1), (1, 2), (3, 1, 2))]
    loop = validate_loop(mutant_multiplicative_loop(eta, rev), points)
    bimod = validate_bimodule_map(mutant_bimod(eta, rev), [_wb(), _wb()])
    return [loop, bimod]


def _masked(text: str) -> str:
    return re.sub(r" at 0x[0-9a-f]+", " at 0x", text)


# Recorded from the dataclass-based classes these replace; the two
# decompositions from ``trees.Decomposition``, which holds either
# resolution's.
REPRS = {
    "Tree": "Tree(shape=(.(..)), labels=(3, 1, 2))",
    "BVPoint": "BVPoint(assoc, (.(..)), labels=((2, 1), (1, 2)), word=(3, 1, 2), params=('1',))",
    "BVDecomposition": "Decomposition(shape=(.(..)), components=(BVPoint(assoc, (..), labels=((2, 1),), word=(1, 2), params=()), BVPoint(assoc, (..), labels=((1, 2),), word=(1, 2), params=())), word=(3, 1, 2))",
    "WBPoint": "WBPoint(assoc, (.(..)), heights=('0', '1/2'), labels=(BVPoint(assoc, (..), labels=((1, 2),), word=(1, 2), params=()), BVPoint(assoc, (..), labels=((1, 2),), word=(1, 2), params=())), word=(2, 1, 3))",
    "WBDecomposition": "Decomposition(shape=(.(..)), components=(WBPoint(assoc, (..), heights=('0',), labels=(BVPoint(assoc, (..), labels=((1, 2),), word=(1, 2), params=()),), word=(1, 2)), WBPoint(assoc, (..), heights=('1/2',), labels=(BVPoint(assoc, (..), labels=((1, 2),), word=(1, 2), params=()),), word=(1, 2))), word=(2, 1, 3))",
    "UpsilonIndex": "UpsilonIndex(main=(..), aux=((..),))",
    "TreeClass": "TreeClass(representative=UpsilonIndex(main=(..), aux=((..),)))",
    "_KeyVertex": "_KeyVertex(key=(1, ()), kids=(), leaves=0, aux=1, mains=0, main_leaves=0, e=(), b=(), o=(), x=())",
    "ContractionGraph": "ContractionGraph(k=3, l=2, classes=(TreeClass(representative=UpsilonIndex(main=(..()), aux=((...), ()))), TreeClass(representative=UpsilonIndex(main=(..(.)), aux=((...), (.)))), TreeClass(representative=UpsilonIndex(main=(.(..)), aux=((..), (..)))), TreeClass(representative=UpsilonIndex(main=((...)), aux=((.), (...))))), edges=(), components=((0,), (1,), (2,), (3,)), initials=(0, 1, 2, 3))",
    "ReedyData": "ReedyData(vertex_objects=(('vertex', 0), ('vertex', 1), ('vertex', 2), ('vertex', 3)), pair_objects=())",
    "LoopElement": "LoopElement(eta=OperadMapEta(source=<operad_forge.operads.AssocOperad object at 0x>, target=<operad_forge.operads.AssocOperad object at 0x>, fn=<function identity_eta.<locals>.<lambda> at 0x>, name='id'), kernel=<built-in function max>, name='loop-max', truncation=2)",
    "BimodMapElement": "BimodMapElement(eta=OperadMapEta(source=<operad_forge.operads.AssocOperad object at 0x>, target=<operad_forge.operads.AssocOperad object at 0x>, fn=<function identity_eta.<locals>.<lambda> at 0x>, name='id'), kernel=<built-in function min>, name='bimod-min', truncation=None)",
    "OperadMapEta": "OperadMapEta(source=<operad_forge.operads.AssocOperad object at 0x>, target=<operad_forge.operads.AssocOperad object at 0x>, fn=<function _reverse at 0x>, name='rev')",
    "Violation": "Violation(law='unit', witness={'t': Fraction(1, 2)})",
    "ValidationReport": "ValidationReport(subject='demo', checked=2, violations=[Violation(law='unit', witness={'point': BVPoint(assoc, (.), labels=((1,),), word=(1,), params=()), 't': Fraction(1, 3), 'got': (1,)})])",
    "CubeConfig": "CubeConfig(intervals=((Fraction(1, 4), Fraction(1, 2)), (Fraction(0, 1), Fraction(1, 8))))",
    "CriterionResult": "CriterionResult(number=3, name='round trip', ok=True, checked=12, detail='ok')",
}


@pytest.mark.parametrize("name", sorted(REPRS))
def test_reprs_are_pinned(name):
    assert _masked(repr(_instances()[name])) == REPRS[name]


# Recorded from the dataclass-based classes these replace: the JSON of
# each report of ``_mutant_reports``, its length and SHA-256.
MUTANT_JSON = [
    (351, "6e3f3e49b516476f66793ab54bf0018fda24d490b6096fa3f81dc7d6a8c0f52e"),
    (1161, "fa16687468853538367ddfb7d28f3ffd81596db59b3d296a546eadefdafdaf90"),
]


def test_mutant_reports_keep_their_bytes():
    reports = _mutant_reports()
    assert [len(r.violations) for r in reports] == [1, 3]
    assert not any(r.ok for r in reports)
    got = [json.dumps(r.to_json(), sort_keys=True).encode() for r in reports]
    assert [(len(b), hashlib.sha256(b).hexdigest()) for b in got] == MUTANT_JSON


def _equal_pairs() -> list[tuple]:
    """Pairs of separately built equal values of each hashable class; in
    each pair the fields kept out of equality differ."""
    eta = identity_eta(A)
    other_assoc = AssocOperad()  # a second operad object with the same name
    bv, wb = _bv(), _wb()
    idx = UpsilonIndex(corolla(2), (corolla(2),))
    cls = classify([idx])[0]
    return [
        (Tree(CHERRY, (3, 1, 2)), Tree(PlanarTree((None, corolla(2))), (3, 1, 2))),
        (bv, BVPoint(other_assoc, "assoc", bv.tree, bv.labels, bv.params, False)),
        (wb, WBPoint(other_assoc, "assoc", wb.tree, wb.heights, wb.labels, False)),
        (bv_decompose(bv), bv_decompose(_bv())),
        (idx, UpsilonIndex(corolla(2), (PlanarTree((None, None)),))),
        (cls, TreeClass(idx, ("another key",))),
        (build_graph(3, 2), build_graph(3, 2)),
        (reedy_of(build_graph(3, 2)), reedy_of(build_graph(3, 2))),
        (LoopElement(eta, max, "g", 2), LoopElement(eta, min, "g", 2)),
        (BimodMapElement(eta, max, "f"), BimodMapElement(eta, min, "f")),
        (OperadMapEta(A, A, _reverse, "rev"), OperadMapEta(A, A, _reverse, "rev")),
        (CubeConfig(((F(0), F(1, 2)),)), CubeConfig(((F(0), F(2, 4)),))),
    ]


@pytest.mark.parametrize("pair", _equal_pairs(), ids=lambda p: type(p[0]).__name__)
def test_equal_values_hash_equal(pair):
    a, b = pair
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_equality_reads_only_the_compared_fields():
    bv, wb = _bv(), _wb()
    # ``operad`` and ``canonical`` are not compared; ``operad_name`` is
    assert bv == BVPoint(C, "assoc", bv.tree, bv.labels, bv.params, False)
    assert bv != BVPoint(bv.operad, "com", bv.tree, bv.labels, bv.params, True)
    assert wb == WBPoint(C, "assoc", wb.tree, wb.heights, wb.labels, False)
    assert wb != WBPoint(wb.operad, "assoc", wb.tree, wb.heights[::-1], wb.labels, True)
    # a decomposition compares its cut tree, components and word
    d = wb_decompose(wb)
    assert d == Decomposition(d.shape, d.components, d.word)
    assert d == wb_decompose(_wb()) and hash(d) == hash(wb_decompose(_wb()))
    assert d != Decomposition(d.shape, d.components[::-1], d.word)
    # the loop's ``kernel`` is not compared; its ``name`` and ``truncation`` are
    eta = identity_eta(A)
    g = LoopElement(eta, max, "g")
    assert g != LoopElement(eta, max, "h")
    assert g != LoopElement(eta, max, "g", 3)
    # values of different classes with equal fields are not equal
    assert Tree(CHERRY, (1, 2, 3)) != UpsilonIndex(CHERRY, (corolla(2), corolla(2)))
    assert bv != "BVPoint"


def test_key_vertices_are_equal_only_to_themselves():
    a, b = _key_vertex(0, []), _key_vertex(0, [])
    assert repr(a) == repr(b)
    assert a == a and a != b
    assert len({a, b}) == 2


def test_reports_and_results_stay_mutable_and_unhashable():
    report = ValidationReport("demo")
    report.checked += 2
    report.add("unit", t=F(1))
    assert report == ValidationReport("demo", 2, [Violation("unit", {"t": F(1)})])
    assert report.violations[0].witness == {"t": F(1)}
    report.violations[0].law = "boundary"
    result = CriterionResult(1, "laws", True, 0)
    result.ok, result.detail = False, "broken"
    assert result.line == "[FAIL] criterion 1: laws (0 checks) — broken"
    for value in (report, report.violations[0], result):
        with pytest.raises(TypeError):
            hash(value)


def test_constructors_check_what_they_checked():
    with pytest.raises(ValueError, match="not a permutation"):
        Tree(CHERRY, (1, 2, 2))
    with pytest.raises(ValueError, match="auxiliary trees"):
        UpsilonIndex(CHERRY, (corolla(2),))
    with pytest.raises(ValueError, match="overlap"):
        CubeConfig(((F(0), F(1, 2)), (F(1, 4), F(1))))
