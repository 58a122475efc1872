"""Engine/reference pairing manifest for REPRO110 (engine-parity).

A vectorized engine that keeps a scalar twin in the library is pinned
to it by equivalence tests (``docs/PERFORMANCE.md``); this manifest
makes the *API* side of that contract static.  One pair is left,
``Bin``↔``BinArray`` (``Bin`` backs ``improve_placement``); every other
stage has one engine, pinned to its oracle in ``tests/reference/`` by
the equivalence suites instead.  REPRO110 reads it (and
any other analyzed module defining a ``PARITY_MANIFEST``) and reports
when a declared pair's public methods or signatures drift apart —
catching the "changed the engine, forgot the reference" edit before the
equivalence suite does, and in code the suite cannot see (new
parameters with defaults, renamed keywords).

Manifest entries are plain literals (the rule parses them from the AST
without importing anything):

``reference`` / ``engine``
    ``module.path:Symbol`` or ``module.path:Symbol.method`` specs.  A
    pair of classes compares every same-named public method plus the
    explicit ``methods`` correspondences; a pair of callables compares
    just those signatures.  Pairs whose modules are not part of the
    analyzed set are skipped, so subset lints stay quiet.
``methods``
    Optional mapping of reference method name → list of engine method
    names for renamed counterparts (``fits`` → ``fits_mask``/``fits_one``).
``engine_extra``
    Parameter names the engine side adds (bin indices); they are
    removed from the engine signature before comparison.
``renames``
    Reference parameter name → engine parameter name, for batched
    variants that pluralize (``vm_id`` → ``vm_ids``).

Return annotations are deliberately *not* compared: scalar/matrix
twins legitimately return ``float`` vs ``np.ndarray``.
"""

from __future__ import annotations

__all__ = ["PARITY_MANIFEST"]

PARITY_MANIFEST = (
    # Bin-at-a-time packing state ↔ array-backed bin state.  The array
    # engine addresses bins by index, hence the extra index parameters.
    {
        "reference": "repro.placement.binpacking:Bin",
        "engine": "repro.placement.arraybins:BinArray",
        "methods": {
            "fits": ["fits_mask", "fits_one"],
            "residual": ["residuals"],
        },
        "engine_extra": ["index", "indices"],
    },
)
