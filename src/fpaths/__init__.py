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
all on the command line.  ``import fpaths`` loads no submodule: each
one is imported when one of its names is first used.
"""

from importlib import import_module

#: The home submodule of each export, in ``__all__`` order.
_HOME = {name: module for module, names in (
    ("counting", "a_joint a_marginal a_total f_refined multinomial sequence "
                 "series_coeff"),
    ("errors", "BelowAxis FormViolation FpathsError GuardExceeded "
               "InexactDivision NotAvoider NotClosed ParseError "
               "PrefixViolation RunFormViolation StepNotInF TripleDescent "
               "WeightOnLeafOrRoot WeightOutOfRange"),
    ("families", "FAMILIES TAGS parse_object"),
    ("fpath_core", "FPath FStep StatTriple fpath_decompose fpath_direct_sum "
                   "fpath_stats gen_fpaths involution_phi_F validate_fpath"),
    ("verify_harness", "VerifyReport run_all"),
) for name in names.split()}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    """Import an export's home submodule on its first use and bind the
    value here, so later lookups skip this hook.  Any other identifier
    is tried as a submodule, so ``fpaths.counting`` resolves after a
    bare ``import fpaths``."""
    if name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    if name.isidentifier():
        try:
            return import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
