"""Exact-arithmetic cochain complexes of words under permutation actions."""

from .cubical import (
    BettiTable,
    CochainComplex,
    DimensionCapExceeded,
    cubical_complex,
    full_complex,
)
from .harrison import harrison_complex
from .modules import (
    BUILTIN_KINDS,
    ModuleSpec,
    SubgroupModule,
    builtin,
    induce,
    load_module,
    restrict,
    serialize_module,
    sgn_coinvariants_dim,
)
from .perm import (
    Permutation,
    PermutationGroup,
    cyclic_group,
    symmetric_group,
    young_subgroup,
)
from .realizations import direct_complex
from .suites import run_suite

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "CochainComplex",
    "DimensionCapExceeded",
    "cubical_complex",
    "full_complex",
    "harrison_complex",
    "BUILTIN_KINDS",
    "ModuleSpec",
    "SubgroupModule",
    "builtin",
    "induce",
    "load_module",
    "restrict",
    "serialize_module",
    "sgn_coinvariants_dim",
    "Permutation",
    "PermutationGroup",
    "cyclic_group",
    "symmetric_group",
    "young_subgroup",
    "direct_complex",
    "run_suite",
    "__version__",
]
