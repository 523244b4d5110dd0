"""Exact combinatorics of independent sets of path and cycle powers.

The library builds the h-powers of paths and cycles, enumerates their
independent sets as gap-constrained bit strings, assembles the inclusion
diagrams (Fibonacci/Lucas cubes and their higher-gap generalizations), and
computes every count three-to-four independent ways: closed form, delayed
recurrence, sequence convolution, and exhaustive enumeration.  The verify
module cross-checks all of those routes against each other.
"""

from .counting import (
    HSequence,
    binom,
    convolve,
    cycle_count,
    cycle_count_k,
    cycle_count_rec,
    cycle_edges,
    cycle_edges_closed,
    cycle_edges_conv,
    extended_fib,
    extended_lucas,
    h_fibonacci,
    h_lucas,
    max_subset_size,
    path_count,
    path_count_k,
    path_count_rec,
    path_edges,
    path_edges_conv,
    t_count,
)
from .cube import CubeGraph, build_cube, cover_count
from .enumeration import (
    DEFAULT_CAP,
    CapacityError,
    VertexMask,
    avoids_substrings,
    bijection_f,
    bijection_f_inv,
    count_by_size,
    enumerate_independent,
    gap_check,
    is_independent,
    iter_masks,
)
from .graphs import CYCLE, PATH, GapGraph
from .verify import IdentityReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "binom",
    "path_count_k",
    "path_count",
    "path_count_rec",
    "cycle_count_k",
    "cycle_count",
    "cycle_count_rec",
    "h_fibonacci",
    "h_lucas",
    "extended_fib",
    "extended_lucas",
    "HSequence",
    "convolve",
    "path_edges",
    "path_edges_conv",
    "cycle_edges",
    "cycle_edges_closed",
    "cycle_edges_conv",
    "t_count",
    "max_subset_size",
    "PATH",
    "CYCLE",
    "GapGraph",
    "VertexMask",
    "CapacityError",
    "DEFAULT_CAP",
    "is_independent",
    "gap_check",
    "iter_masks",
    "enumerate_independent",
    "count_by_size",
    "bijection_f",
    "bijection_f_inv",
    "avoids_substrings",
    "CubeGraph",
    "build_cube",
    "cover_count",
    "IdentityReport",
    "run_suite",
]
