"""REPRO109: keep the demand kernels vectorized.

The emulator replay and bin-packing hot paths went columnar (PR:
vectorized demand kernels): demand matrices come from the cached
:class:`~repro.workloads.store.TraceStore` and per-segment accumulation
is a scatter-add, not a per-VM Python loop.  With the planning layer
vectorized too (batched prediction/sizing tables, array-backed repack
and vacate sweeps), this rule guards that floor inside
:mod:`repro.emulator`, :mod:`repro.placement`, :mod:`repro.core`,
:mod:`repro.sizing`, and the sharded scale-out path
(:mod:`repro.sharding` — blockwise demand tables and numpy reconcile
prefilters sit on the same hot path):

* no ``np.vstack`` / ``numpy.vstack`` calls — stacking per-trace arrays
  rebuilds the matrix the store already caches, one allocation per call;
* no ``for`` loops whose iterable mentions a trace collection
  (``traces``, ``trace_set``, ``_traces``) — per-trace Python iteration
  is exactly the O(n_servers) interpreter overhead the columnar kernels
  removed.

The workload *generation* pipeline (PR: store-first array engine) is in
scope too — :mod:`repro.workloads`'s generator/models/presets/chunked
modules — so a new per-trace loop upstream of the store can't quietly
reintroduce the scalar stage the engine removed.

No library module is exempt.  The scalar references the kernels are
checked against — the planners, the packing scan, the emulator loop
and the per-VM generator — live in ``tests/reference/``, outside the
rule's scope.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.context import Module, Project
from repro.devtools.findings import Finding
from repro.devtools.registry import Rule, register

_SCOPED_PACKAGES = ("emulator", "placement", "core", "sizing", "sharding")
#: The workloads package is generator + storage + presets; only its
#: generation pipeline is hot-path columnar (the array engine), so the
#: rule scopes to those modules by name rather than the whole package.
_SCOPED_WORKLOAD_MODULES = frozenset(
    {
        "generator.py",
        "models.py",
        "datacenters.py",
        "chunked.py",
        "appmodel.py",
        "store.py",
    }
)
_TRACE_COLLECTION_NAMES = frozenset({"traces", "trace_set", "_traces"})


def _is_vstack_call(node: ast.Call) -> bool:
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "vstack"
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    )


def _trace_identifiers(expression: ast.expr) -> Iterator[str]:
    """Identifiers in an iterable expression that name trace collections."""
    for node in ast.walk(expression):
        if isinstance(node, ast.Name) and node.id in _TRACE_COLLECTION_NAMES:
            yield node.id
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in _TRACE_COLLECTION_NAMES
        ):
            yield node.attr


@register
class VectorizedKernelRule(Rule):
    rule_id = "REPRO109"
    name = "vectorize-kernels"
    rationale = (
        "emulator, placement, core, sizing, and sharding hot paths are "
        "columnar: per-trace Python loops and np.vstack reassembly undo "
        "the scatter-add/TraceStore kernels"
    )

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        in_workloads_generator = (
            module.in_package("workloads")
            and module.basename in _SCOPED_WORKLOAD_MODULES
        )
        if not (module.in_package(*_SCOPED_PACKAGES) or in_workloads_generator):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and _is_vstack_call(node):
                yield self.finding(
                    module,
                    node,
                    "np.vstack in a demand kernel; read the cached "
                    "TraceStore matrix instead of restacking per-trace "
                    "arrays",
                )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for identifier in _trace_identifiers(node.iter):
                    yield self.finding(
                        module,
                        node,
                        f"Python loop over {identifier!r} in a demand "
                        "kernel; use the columnar TraceStore matrices and "
                        "array ops (scatter-add, masks) instead",
                    )
                    break
