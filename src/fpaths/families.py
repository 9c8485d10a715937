"""A uniform registry for the seven object families, and the text forms
of F-paths and of the two path words; every other family's text form
lives next to its checker, in its own module.

Family tags (used by the CLI and the verification harness):

    fpath      F-paths            "0,1 3,-1"      ("-" when empty)
    schroder   Schröder words     "uhd"           ("-" when empty)
    bicolored  bicolored words    "uurbur"
    perm       permutations       "2 3 1"
    inv-i      (101,102)-avoiders "0,1,0"
    inv-j      (101,021)-avoiders "0,1,0"
    tree       weighted trees     "[(1 L L)]"

Every family is described by a :class:`FamilyInfo` with parse / render /
generate (at common index n) / to_fpath / from_fpath / stats /
direct_sum / phi / psi / stats_core, and the method ``decompose``.
``generate`` yields canonical order; objects of common index n biject
with F-paths of length n.

Validation happens in these fields, once: ``parse`` checks text and object in one
pass per family, ``generate`` checks n with
:func:`fpath_core.common_index` and then runs the family's trusted
generator, and ``to_fpath`` / ``stats`` check an object and
``from_fpath`` an F-path, then run the trusted core ``phi`` /
``stats_core`` / ``psi``.  These checking fields raise an
``FpathsError`` for any argument, of any type, that they refuse.
``render``, ``direct_sum`` and ``decompose`` trust their arguments like
the cores.  ``decompose`` undoes the ``direct_sum`` fold through the
hub with the entry's own ``phi`` and ``psi``, one rule for every
family, so an entry made with other cores decomposes with them.
Callers holding values already checked call the cores directly:
``fpaths map`` checks each line once, at ``parse``, and then runs only
``phi``, ``psi`` and ``render``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import (
    bicolored_dyck,
    fpath_core,
    inversion_seqs,
    pattern_perms,
    schroder_paths,
    weighted_trees,
)
from .errors import ParseError, int_text
from .fpath_core import FPath, FStep, StatTriple, require_str

# ------------------------------------------------------------- text forms


def render_fpath(q) -> str:
    if not q:
        return "-"
    return " ".join(f"{a},{b}" for a, b in q)


def parse_fpath(text: str) -> FPath:
    text = require_str(text).strip()
    if text == "-":
        return ()
    return fpath_core.validate_fpath(_read_steps(text))


def _read_steps(text: str) -> list[FStep]:
    """The tokens of ``text`` as int pairs; a ParseError names the first
    bad one."""
    steps = []
    for at, token in enumerate(text.split()):
        parts = token.split(",")
        try:
            a, b = parts
            steps.append((int(a), int(b)))
        except ValueError:
            why = ("non-integer step" if len(parts) == 2
                   else "expected 'a,b', got")
            # splitting ``at`` times leaves the text from token ``at`` on
            pos = len(text) - len(text.split(None, at)[-1])
            raise ParseError(pos, f"{why} {token!r}") from None
    return steps


def _parse_word(text: str, validate) -> str:
    """Strip, read "-" as the empty word, and let ``validate`` check the
    letters (a ParseError at the first foreign one) and the path."""
    text = require_str(text).strip()
    return validate("" if text == "-" else text)


def render_word(w: str) -> str:
    return w if w else "-"


# --------------------------------------------------------------- registry


@dataclass(frozen=True)
class FamilyInfo:
    tag: str
    parse: Callable[[str], object]          # checked
    render: Callable[[object], str]         # trusted: members only
    generate: Callable[[int], tuple]        # common index n, checked
    to_fpath: Callable[[object], FPath]     # validate, then phi
    from_fpath: Callable[[FPath], object]   # validate_fpath, then psi
    stats: Callable[[object], StatTriple]   # validate, then stats_core
    direct_sum: Callable[[object, object], object]  # trusted: members only
    phi: Callable[[object], FPath]          # trusted: members only
    psi: Callable[[FPath], object]          # trusted: F-paths only
    stats_core: Callable[[object], StatTriple]  # trusted: members only

    def decompose(self, obj) -> list:
        """The height-0 summands that ``direct_sum`` folds back to
        ``obj``: ``psi`` is a homomorphism, so they are ``psi`` of the
        components of ``phi(obj)``; ``obj`` of height 0 is its own."""
        parts = fpath_core.fpath_decompose(self.phi(obj))
        return [obj] if len(parts) == 1 else [self.psi(c) for c in parts]


def _family(tag, parse, render, generate, validate, phi, psi, stats,
            direct_sum) -> FamilyInfo:
    """An entry whose generate checks n with ``common_index``, to_fpath /
    stats check with ``validate`` and from_fpath with ``validate_fpath``,
    then run the trusted ``generate`` / ``phi`` / ``stats`` / ``psi``."""
    return FamilyInfo(
        tag, parse, render,
        lambda n: generate(fpath_core.common_index(n)),
        lambda obj: phi(validate(obj)),
        lambda q: psi(fpath_core.validate_fpath(q)),
        lambda obj: stats(validate(obj)),
        direct_sum, phi, psi, stats,
    )


def _identity(q: FPath) -> FPath:
    return q


FAMILIES: dict[str, FamilyInfo] = {info.tag: info for info in (
    _family(
        "fpath",
        parse_fpath,
        render_fpath,
        fpath_core.gen_fpaths,
        fpath_core.validate_fpath,
        _identity, _identity,
        lambda q: fpath_core.fpath_stats(q)[0], fpath_core.fpath_direct_sum,
    ),
    _family(
        "schroder",
        lambda t: _parse_word(t, schroder_paths.validate_schroder),
        render_word,
        schroder_paths.gen_schroder,
        schroder_paths.validate_schroder,
        schroder_paths.phi_P, schroder_paths.psi_P,
        schroder_paths.schroder_stats, schroder_paths.schroder_direct_sum,
    ),
    _family(
        "bicolored",
        lambda t: _parse_word(t, bicolored_dyck.validate_bicolored),
        render_word,
        lambda n: bicolored_dyck.gen_bicolored(n + 1),
        bicolored_dyck.validate_bicolored,
        bicolored_dyck.phi_B, bicolored_dyck.psi_B,
        bicolored_dyck.bicolored_stats, bicolored_dyck.bicolored_direct_sum,
    ),
    _family(
        "perm",
        pattern_perms.parse_perm,
        pattern_perms.render_perm,
        lambda n: pattern_perms.gen_avoiders(n + 1),
        pattern_perms.validate_avoider,
        pattern_perms.phi_S, pattern_perms.psi_S,
        pattern_perms.perm_stats, pattern_perms.perm_direct_sum,
    ),
    _family(
        "inv-i",
        lambda t: inversion_seqs.parse_invseq(t, inversion_seqs.FAMILY_I),
        inversion_seqs.render_invseq,
        lambda n: inversion_seqs.gen_invseq(n + 1, inversion_seqs.FAMILY_I),
        lambda e: inversion_seqs.validate_invseq(e, inversion_seqs.FAMILY_I),
        inversion_seqs.phi_I, inversion_seqs.psi_I,
        inversion_seqs.stats_I, inversion_seqs.dsum_I,
    ),
    _family(
        "inv-j",
        lambda t: inversion_seqs.parse_invseq(t, inversion_seqs.FAMILY_J),
        inversion_seqs.render_invseq,
        lambda n: inversion_seqs.gen_invseq(n + 1, inversion_seqs.FAMILY_J),
        lambda e: inversion_seqs.validate_invseq(e, inversion_seqs.FAMILY_J),
        inversion_seqs.phi_J, inversion_seqs.psi_J,
        inversion_seqs.stats_J, inversion_seqs.dsum_J,
    ),
    _family(
        "tree",
        weighted_trees.parse_wtree,
        weighted_trees.render_wtree,
        lambda n: weighted_trees.gen_wtrees(n + 1),
        weighted_trees.validate_wtree,
        weighted_trees.phi_T, weighted_trees.psi_T,
        weighted_trees.wtree_stats, weighted_trees.wtree_direct_sum,
    ),
)}

TAGS = tuple(FAMILIES)


def parse_object(family: str, text: str):
    """Parse and fully validate one object of the given family."""
    if not isinstance(family, str) or family not in FAMILIES:
        raise ParseError(0, f"unknown family {int_text(family, repr)}")
    return FAMILIES[family].parse(text)
