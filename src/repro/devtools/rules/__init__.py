"""Built-in rule set for :mod:`repro.devtools`.

Importing this package registers every built-in rule.  Each module
holds one rule so new rules are additive: drop a module here, import it
below, and the registry, CLI, pragma, and baseline machinery pick it up
unchanged.
"""

from repro.devtools.rules import (  # noqa: F401  (imported for registration)
    annotations,
    bare_except,
    cache_purity,
    dataclass_validation,
    dead_api,
    determinism,
    float_compare,
    mutable_defaults,
    no_print,
    unit_flow,
    unit_suffix,
    vectorization,
)
