"""Exact enumeration of three-step lattice paths in a bounded table.

Paths advance one column per step and move up, flat or down one row;
they may be confined to a table with a fixed number of rows.  The
package provides a column-marching engine for every counting family,
closed-form evaluators, a brute-force oracle, a differential identity
verifier and a command line front end.
"""

from .core import (
    LETTERS,
    STEP_RISE,
    Cell,
    CountMatrix,
    LatticeWord,
    TableDims,
    row_trace,
)
from .dp import (
    a_table,
    bounded_pair_count,
    d1_bottom_row,
    d_table,
    di_table,
    free_count,
    h_table,
    hss_values,
    imn,
    imn_sequence,
)
from .formulas import (
    a_closed,
    binomial,
    catalan_number,
    d1_closed,
    d1_split,
    d1_via_a,
    d_boundary,
    d_boundary_printed,
    h_via_square,
    i_inner,
    motzkin_number,
    s2_closed,
    s_free_closed,
    s_free_printed,
)
from .oracle import (
    DEFAULT_CAP,
    CapExceededError,
    WordFilter,
    brute_free,
    brute_imn,
    brute_pair_count,
    enumerate_words,
)
from .verify import (
    IDENTITY_IDS,
    CalibrationResult,
    Counterexample,
    IdentityReport,
    IdentitySpec,
    calibrate_domain,
    default_spec,
    default_suite,
    reports_to_json,
    run_identity,
    run_suite,
    verdict_as_expected,
)

__version__ = "0.1.0"
