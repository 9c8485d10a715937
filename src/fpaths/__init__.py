"""Bijections, statistics and exact counting for F-paths and six
equinumerous combinatorial families.

The hub object is the *F-path*: a sequence of steps from
``{(a, b) : a >= 1, b <= 1} ∪ {(0, 1)}`` whose prefixes keep
``sum(dx) <= sum(dy)``.  Six families biject with it, each carrying the
same joint statistic ``StatTriple(h, l, a1)``:

    Schröder paths without triple descents     (phi_P / psi_P)
    bicolored Dyck paths in run form           (phi_B / psi_B)
    (2341, 2431, 3241)-avoiding permutations   (phi_S / psi_S)
    (101, 102)-avoiding inversion sequences    (phi_I / psi_I)
    (101, 021)-avoiding inversion sequences    (phi_J / psi_J)
    weighted ordered trees                     (phi_T / psi_T)

``counting`` holds the exact closed forms, ``verify_harness`` checks
every claim exhaustively, and the ``fpaths`` console script exposes it
all on the command line.
"""

from .counting import (
    a_joint,
    a_marginal,
    a_total,
    f_refined,
    multinomial,
    sequence,
    series_coeff,
)
from .errors import (
    BelowAxis,
    FormViolation,
    FpathsError,
    GuardExceeded,
    InexactDivision,
    NotAvoider,
    NotClosed,
    ParseError,
    PrefixViolation,
    RunFormViolation,
    StepNotInF,
    TripleDescent,
    WeightOnLeafOrRoot,
    WeightOutOfRange,
)
from .families import FAMILIES, TAGS, parse_object
from .fpath_core import (
    FPath,
    FStep,
    StatTriple,
    fpath_decompose,
    fpath_direct_sum,
    fpath_stats,
    gen_fpaths,
    involution_phi_F,
    validate_fpath,
)
from .verify_harness import VerifyReport, run_all

__version__ = "0.1.0"

__all__ = [
    "a_joint", "a_marginal", "a_total", "f_refined", "multinomial",
    "sequence", "series_coeff",
    "BelowAxis", "FormViolation", "FpathsError", "GuardExceeded",
    "InexactDivision", "NotAvoider", "NotClosed", "ParseError",
    "PrefixViolation", "RunFormViolation", "StepNotInF", "TripleDescent",
    "WeightOnLeafOrRoot", "WeightOutOfRange",
    "FAMILIES", "TAGS", "parse_object",
    "FPath", "FStep", "StatTriple", "fpath_decompose", "fpath_direct_sum",
    "fpath_stats", "gen_fpaths", "involution_phi_F", "validate_fpath",
    "VerifyReport", "run_all",
    "__version__",
]
