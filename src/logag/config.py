"""Desk-scale capacity limits.

The engine targets hand-sized knowledge bases. Rather than degrading into
minute-long runs on oversized inputs, operations raise
:class:`logag.errors.CapacityError` when one of these limits is exceeded.
"""

from .records import record


@record
class Limits:
    atom_cap: int = 24      # distinct boolean atoms per entailment query
    kernel_cap: int = 20    # conflict-relevant members per kernel search component
    depth_cap: int = 16     # argument tree height during enumeration
    subset_cap: int = 4096  # subsets enumerated (indexings, structure seeds, rule subsets)
    level_cap: int = 64     # telescoping levels per run


DEFAULT_LIMITS = Limits()
