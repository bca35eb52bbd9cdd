"""Desk-scale decomposition toolkit.

Checks divisibility and balance conditions for hypergraph, coloured and
directed decomposition problems, encodes the classical design equivalences,
finds and counts decompositions by exact-cover search, and simulates the
random greedy matching process with its counting bounds.
"""

import logging

from .core import (
    ColouredMultidigraph,
    ColouredMultigraph,
    Digraph,
    Hypergraph,
    Partition,
    blowup,
    host_degree_vector,
    index_set,
    pattern_degree_vector,
)
from .complexes import LabelledComplex, PermGroup
from .divisibility import (
    DivisibilityReport,
    canonical_family_check,
    coloured_balanced,
    coloured_divisible,
    digraph_divisible,
    h_balanced,
    h_divisible,
    hp_divisible,
    master_divisible,
    shift_regular,
    steiner_divisible,
    tridivisible,
)
from .encodings import (
    DesignCertificate,
    LatinSquare,
    SudokuGrid,
    large_set_instance,
    latin_decode,
    latin_encode,
    lift_edge,
    rainbow_family,
    resolvable_sts_instance,
    sudoku_decode,
    sudoku_encode,
    tight_cycle,
)
from .intlattice import hermite_normal_form, span_membership
from .nibble import build_auxiliary, counting_bounds, random_greedy
from .solver import (
    Certificate,
    count_decompositions,
    enumerate_copies,
    find_decomposition,
    integral_decomposition_exists,
    verify_certificate,
)
from .weights import (
    WeightSystem,
    coloured_weight_system,
    digraph_weight_system,
    is_elementary,
    lattice_membership,
    master_weight_system,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
