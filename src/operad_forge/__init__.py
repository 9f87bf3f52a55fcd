"""Exact symbolic engine for operadic tree resolutions, interval-algebra
actions, and an explicit delooping of operad-map loops into bimodule maps.

Layers, bottom up:

- :mod:`operad_forge.trees` — planar rooted trees, grafting, enumeration,
  the labeled encoding and canonical forms of non-planar isomorphism
  classes, and the mutable working form ``Node`` on which ``bv``, ``wb``
  and ``mapping`` do their tree surgery (it needs only the permutation
  helpers of ``operads``).
- :mod:`operad_forge.operads` — finite-data operads (one-operation,
  symmetric-groups, endomorphism, free truncated), interval configurations,
  law validators.
- :mod:`operad_forge.bv` — the cofibrant operad resolution: trees with
  operad labels and rational edge lengths, rewriting to canonical form.
- :mod:`operad_forge.wb` — the bimodule resolution: main trees with
  monotone heights and resolution labels, bimodule structure, prime
  decomposition, filtrations.
- :mod:`operad_forge.mapping` — loops of resolution maps, the interval
  algebra action, the delooping map, mutants and validators.
- :mod:`operad_forge.cells` — cell indices, isomorphism classes,
  contraction graphs, Reedy index data, height polytopes, the
  straightening homotopy.
- :mod:`operad_forge.serialize` / :mod:`operad_forge.cli` — JSON/DOT
  formats and the command-line surface.
"""

from .bv import (
    BVDecomposition,
    BVPoint,
    bv_act,
    bv_compose,
    bv_decompose,
    bv_filtration,
    bv_is_prime,
    bv_normalize,
    bv_prime_components,
    bv_reassemble,
    bv_unit,
    iota,
    mu,
    raw_bv,
    x_cell_membership,
)
from .cells import (
    ContractionGraph,
    ReedyData,
    TreeClass,
    UpsilonIndex,
    build_graph,
    census_size,
    class_count,
    class_key,
    classify,
    contract_main_edge,
    enumerate_upsilon,
    generate_classes,
    h_membership,
    homotopy_H,
    latching_index,
    max_vertices,
    reedy_of,
    stab,
    subgraph_i,
)
from .mapping import (
    BimodMapElement,
    LoopElement,
    TruncationError,
    alpha,
    constant_loop,
    eta_mu_tilde,
    loop_alpha,
    validate_bimodule_map,
    validate_loop,
    window_loop,
    xi,
    xi_k,
)
from .operads import (
    AssocOperad,
    ComOperad,
    CubeConfig,
    EndOperad,
    FreeTruncOperad,
    Operad,
    OperadMapEta,
    ValidationReport,
    act_cubes,
    compose_cubes,
    identity_eta,
    operad_by_name,
    unit_cube,
    validate_eta,
    validate_operad,
)
from .trees import (
    PlanarTree,
    Tree,
    canonical_form,
    corolla,
    enumerate_trees,
    graft,
    planar_trees,
)
from .wb import (
    WBDecomposition,
    WBPoint,
    mu_tilde,
    raw_wb,
    wb_act,
    wb_decompose,
    wb_filtration,
    wb_gamma0,
    wb_is_prime,
    wb_left,
    wb_normalize,
    wb_prime_components,
    wb_reassemble,
    wb_right,
    y_cell_membership,
)

__version__ = "0.1.0"
