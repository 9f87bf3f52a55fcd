"""Exact symbolic engine for operadic tree resolutions, interval-algebra
actions, and an explicit delooping of operad-map loops into bimodule maps.

Layers, bottom up:

- :mod:`operad_forge.trees` — planar rooted trees, grafting, enumeration,
  canonical forms of non-planar isomorphism classes, and the mutable
  working form ``Node`` on which ``bv``, ``wb`` and ``mapping`` work (it
  needs only the permutation helpers of ``operads``).
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

# Nothing is re-exported: import a name from its layer.  The layers are
# loaded because the benchmark reads ``sys.modules`` right after
# ``import operad_forge``: ``bench/workloads.py`` (``Laws``) takes
# ``operad_forge.mapping`` from it, and ``bench/tracer.py`` every layer.
from . import bv, cells, mapping, operads, trees, wb  # noqa: F401

__version__ = "0.1.0"
