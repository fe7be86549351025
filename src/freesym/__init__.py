"""Cumulant calculus over noncrossing partitions and quantum-symmetry checks.

Subpackage map:

- ``partitions``: set/noncrossing partitions, star patterns, decorated filters
- ``easy``: the easy-category table of the nine families, their classes,
  both lattices and the meet that closes a satisfied set
- ``cumulants``: moment/cumulant tables and conversions, scalar and matrix
- ``distributions``: distribution classification from cumulant data
- ``qgroups``: matrix models of easy-style quantum groups and their relations
- ``invariance``: distributional invariance checks against a matrix model
- ``serialize``: JSON encodings for tables, specs, and models
- ``fixtures``: small hand-checked witnesses used in tests and demos
- ``cli``: the ``freesym`` command-line entry point
"""

from .errors import (
    BudgetError,
    CrossingPartitionError,
    IncompleteTableError,
    InputMismatchError,
    OrderBoundError,
    SchemaError,
    SizeLimitError,
    UnsupportedAlgebraError,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CrossingPartitionError",
    "IncompleteTableError",
    "InputMismatchError",
    "OrderBoundError",
    "SchemaError",
    "SizeLimitError",
    "UnsupportedAlgebraError",
    "__version__",
]
