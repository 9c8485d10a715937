"""Command line behaviour, exercised through cmd_dispatch.

stdout/stderr go through redirect_* because the suite runs with -s;
stdin is swapped by hand for the same reason.  A few tests run real
subprocesses instead, to check what cmd_dispatch alone cannot reach.
"""
import ast
import collections
import contextlib
import glob
import hashlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
from decimal import Decimal

import pytest

import fpaths
from fpaths import cli, fpath_core
from fpaths.cli import cmd_dispatch
from fpaths.counting import MAX_COUNT_N, a_total
from fpaths.errors import FormViolation
from fpaths.families import FAMILIES, TAGS
from fpaths.verify_harness import run_all


def run_cli(*argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    try:
        if stdin is not None:
            sys.stdin = io.StringIO(stdin)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cmd_dispatch(list(argv))
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


# ------------------------------------------------------------- enumerate


def test_enumerate_fpaths():
    code, out, _ = run_cli("enumerate", "--family", "fpath", "--n", "2")
    assert code == 0
    assert out.splitlines() == [
        "0,1 0,1",
        "0,1 1,1",
        "0,1 1,0",
        "0,1 2,1",
        "1,1 0,1",
        "1,1 1,1",
    ]


def test_enumerate_trees_with_stats():
    code, out, _ = run_cli("enumerate", "--family", "tree", "--n", "2", "--stats")
    assert code == 0
    assert out.splitlines() == [
        "[L L L]\t2,2,0",
        "[L (1 L)]\t1,1,1",
        "[(1 L) L]\t1,1,1",
        "[(1 L L)]\t0,1,1",
        "[(2 L L)]\t0,1,0",
        "[(1 (1 L))]\t0,0,2",
    ]


@pytest.mark.parametrize("tag", TAGS)
def test_enumerate_negative_index_is_usage_error(tag):
    with pytest.raises(FormViolation):
        FAMILIES[tag].generate(-1)
    code, out, err = run_cli("enumerate", "--family", tag, "--n", "-1")
    assert code == 2
    assert out == ""
    assert err == "fpaths enumerate: n must be >= 0, got -1\n"


# ------------------------------------------------------------- map, stats


def test_map_perm_to_invseq():
    code, out, _ = run_cli(
        "map", "--from", "perm", "--to", "inv-j", stdin="2 3 1\n\n1 2 3\n"
    )
    assert code == 0
    assert out.splitlines() == ["0,1,1", "0,0,0"]


def test_map_empty_path_convention():
    code, out, _ = run_cli("map", "--from", "fpath", "--to", "fpath", stdin="-\n")
    assert code == 0
    assert out == "-\n"


def test_map_parse_error_exits_2():
    code, out, err = run_cli("map", "--from", "perm", "--to", "fpath", stdin="1 3\n")
    assert code == 2
    assert out == ""
    assert "fpaths map:" in err


def test_map_names_the_rejected_line():
    code, out, err = run_cli(
        "map", "--from", "schroder", "--to", "fpath", stdin="uhd\nxx\n"
    )
    assert code == 2
    assert out == "0,1 2,1\n"
    assert err == (
        "fpaths map: line 2: parse error at offset 0: letter 'x' not in 'udh'\n"
    )


@pytest.mark.parametrize(
    "src, dst, stdin, out, err",
    [
        ("fpath", "tree", "0,1 1,1\n2,1 x\n", "[(1 L) L]\n",
         "line 2: parse error at offset 4: expected 'a,b', got 'x'"),
        ("fpath", "inv-i", "0,1 1,2\n", "",
         "line 1: step (1, 2) at position 1 is not in F"),
        ("inv-i", "perm", "0\n0,1,0,1,9\n", "1\n",
         "line 2: entry 9 at position 5 outside 0..4"),
        ("inv-j", "fpath", "0,1\n\n0,0,2,1,0,2\n", "1,1\n",
         "line 3: contains pattern (1, 0, 1)"),
        ("perm", "schroder", "2 1\n3 2 5 4 1\n", "ud\n",
         "line 2: contains pattern (2, 4, 3, 1)"),
        ("tree", "inv-j", "[L L]\n[(1-2 L)]\n", "0,0\n",
         "line 2: parse error at offset 2: bad weight '1-2'"),
        ("tree", "fpath", "[(3 L L)]\n", "",
         "line 1: vertex 1 has weight 3, expected 1..2"),
    ],
)
def test_map_rejection_lines_are_pinned(src, dst, stdin, out, err):
    code, got_out, got_err = run_cli("map", "--from", src, "--to", dst,
                                     stdin=stdin)
    assert (code, got_out, got_err) == (2, out, f"fpaths map: {err}\n")


def test_map_checks_each_line_once(monkeypatch):
    """``map`` checks a line where ``parse`` reads it and nowhere else:
    no F-path check after φ and no second read of the entries."""
    calls = collections.Counter()
    for name in ("validate_fpath", "int_entries"):
        real = getattr(fpath_core, name)

        def spy(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("fpaths")
                    and getattr(mod, name, None) is real):
                monkeypatch.setattr(mod, name, spy)
    code, out, _ = run_cli("map", "--from", "perm", "--to", "tree",
                           stdin="2 3 1\n\n1 2 3\n3 1 2 4\n")
    assert (code, out) == (0, "[(2 L L)]\n[L L L]\n[L (1 L L)]\n")
    assert calls == {}
    code, out, _ = run_cli("map", "--from", "fpath", "--to", "inv-i",
                           stdin="0,1 2,1\n0,1\n1,1 0,1 1,0\n")
    assert (code, out) == (0, "0,0,2\n0,0\n0,1,2,1\n")
    assert calls == {"validate_fpath": 3}
    FAMILIES["perm"].to_fpath((2, 3, 1))  # the public entry still checks
    FAMILIES["tree"].from_fpath(((0, 1),))
    assert calls == {"validate_fpath": 4, "int_entries": 1}


def test_stats_names_the_rejected_line():
    # Blank lines are skipped but still counted.
    code, out, err = run_cli(
        "stats", "--family", "schroder", stdin="uhhd\n\nuuddh\nud d\n"
    )
    assert code == 2
    assert out.splitlines() == ["0,2,0", "1,2,1"]
    assert err.startswith("fpaths stats: line 4: ")
    assert err.count("\n") == 1


def test_stats_reads_stdin():
    code, out, _ = run_cli(
        "stats", "--family", "schroder", stdin="uhhd\nuuddh\n"
    )
    assert code == 0
    assert out.splitlines() == ["0,2,0", "1,2,1"]


def test_map_tree_round_trips_a_deep_path(random_fpath):
    """A seeded F-path of length 3000 goes fpath -> tree -> fpath byte for
    byte: the tree's parse, render and both maps keep no recursion."""
    line = FAMILIES["fpath"].render(random_fpath(random.Random(8), 3000))
    code, tree, err = run_cli("map", "--from", "fpath", "--to", "tree",
                              stdin=line + "\n")
    assert (code, err) == (0, "")
    code, back, err = run_cli("map", "--from", "tree", "--to", "fpath",
                              stdin=tree)
    assert (code, err) == (0, "")
    assert back == line + "\n"


# ------------------------------------------------------------------ count


def test_count_total():
    assert run_cli("count", "--n", "2")[:2] == (0, "6\n")


def test_count_marginal_and_joint():
    assert run_cli("count", "--n", "5", "--h", "2")[:2] == (0, "110\n")
    code, out, _ = run_cli(
        "count", "--n", "2", "--h", "1", "--l", "1", "--m", "1"
    )
    assert (code, out) == (0, "2\n")


def test_count_out_of_range_is_zero():
    for flag in ("--h", "--l", "--m"):
        for v in ("-2", "5"):
            assert run_cli("count", "--n", "4", flag, v)[:2] == (0, "0\n")
    assert run_cli("count", "--n", "-1")[:2] == (0, "0\n")


def test_count_refuses_an_n_past_the_ceiling_at_once():
    """It used to run for minutes; now it exits 2 naming the ceiling."""
    start = time.perf_counter()
    assert run_cli("count", "--n", "100000000000000000000", "--h", "1") == (
        2, "", f"fpaths count: n must be <= {MAX_COUNT_N}, "
               "got 100000000000000000000\n")
    assert time.perf_counter() - start < 5


def test_count_refined():
    code, out, _ = run_cli("count", "--n", "2", "--refined", "1,0,0,1,1")
    assert (code, out) == (0, "2\n")


def test_count_refined_conflicts_with_marginals():
    assert run_cli("count", "--n", "2", "--refined", "1,0,0,1,1",
                   "--h", "0") == \
        (2, "", "fpaths count: --refined excludes --h/--l/--m\n")


def test_count_refined_malformed():
    assert run_cli("count", "--n", "2", "--refined", "1,2") == \
        (2, "", "fpaths count: --refined wants five integers i,j,k,l,m\n")
    assert run_cli("count", "--n", "2", "--refined", "a,b,c,d,e") == \
        (2, "", "fpaths count: bad --refined value 'a,b,c,d,e'\n")


# --------------------------------------------------------- table, sequence


def test_table_h():
    code, out, _ = run_cli("table", "--which", "h")
    assert code == 0
    assert out.splitlines() == [
        "1",
        "1 1",
        "2 3 1",
        "5 9 6 1",
        "13 30 26 10 1",
        "36 100 110 60 15 1",
    ]


def test_table_l():
    code, out, _ = run_cli("table", "--which", "l")
    assert code == 0
    assert out.splitlines() == [
        "1",
        "1 1",
        "1 4 1",
        "1 9 10 1",
        "1 16 42 20 1",
        "1 25 120 140 35 1",
    ]


def test_sequence_plain_and_bfile():
    code, out, _ = run_cli("sequence", "--max-n", "6")
    assert (code, out) == (0, "1 2 6 21 80 322 1347\n")
    code, out, _ = run_cli("sequence", "--max-n", "3", "--bfile")
    assert (code, out) == (0, "0 1\n1 2\n2 6\n3 21\n")
    # Below -1 the sequence is empty too, not sliced from the end.
    assert run_cli("sequence", "--max-n", "-2") == (0, "\n", "")
    assert run_cli("sequence", "--max-n", "-2", "--bfile") == (0, "", "")


# a(6000) is the first total past CPython's 4300-digit int-to-str limit.
# The printed digits are compared through Decimal, which applies no such
# limit to the text it reads.


def test_count_prints_a_value_past_the_digit_limit():
    code, out, err = run_cli("count", "--n", "6000")
    assert (code, err) == (0, "")
    assert len(out) == 4301 + 1
    assert Decimal(out) == Decimal(a_total(6000))


def test_sequence_prints_values_past_the_digit_limit():
    want = Decimal(a_total(6001))
    code, out, err = run_cli("sequence", "--max-n", "6001")
    assert (code, err) == (0, "")
    assert Decimal(out.split()[-1]) == want
    code, out, err = run_cli("sequence", "--max-n", "6001", "--bfile")
    assert (code, err) == (0, "")
    n, value = out.splitlines()[-1].split()
    assert (n, Decimal(value)) == ("6001", want)


#: n values of the pinned count grid, from the empty path to n = 1000.
COUNT_NS = (0, 1, 2, 5, 13, 40, 150, 318, 1000)


def count_grid():
    """Seeded ``count`` argument lists: every subset of --h/--l/--m with
    values from -1 to n+1, and two --refined signatures i,j,k,l,m with
    m mostly in the signature's range, per n."""
    rng = random.Random(5)
    for n in COUNT_NS:
        for flags in itertools.product((False, True), repeat=3):
            argv = ["count", "--n", str(n)]
            for flag, on in zip(("--h", "--l", "--m"), flags):
                if on:
                    argv += [flag, str(rng.randint(-1, n + 1))]
            yield argv
        for _ in range(2):
            i, j, k = (rng.randint(0, n // 6) for _ in range(3))
            rest = n - i - j - k                # l + n'
            l = rest - rng.randint(0, rest // 4)
            s = 2 * (rest - l) + j + k          # the height a path needs
            m = rng.randint(0, max(l - s, 0) + 1)
            yield ["count", "--n", str(n), "--refined", f"{i},{j},{k},{l},{m}"]


#: sha256 of the concatenated stdout of ``sequence --max-n 60``,
#: ``table --which h``, ``table --which l`` and the ``count_grid`` calls.
COUNT_OUTPUT_SHA256 = (
    "d563b179f812c2a60fbf11eefc1e69e3558bcb02c0d0668fa62d67037c9c28d0")


def test_counting_output_is_pinned():
    calls = [["sequence", "--max-n", "60"], ["table", "--which", "h"],
             ["table", "--which", "l"], *count_grid()]
    out = []
    for argv in calls:
        code, text, err = run_cli(*argv)
        assert (code, err) == (0, ""), argv
        out.append(text)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == \
        COUNT_OUTPUT_SHA256


# ----------------------------------------------------------------- verify


def test_verify_passes(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli("verify", "--max-n", "1", "--json", str(target))
    assert code == 0
    assert "passed, 0 failed" in out
    data = json.loads(target.read_text())
    assert data["ok"] is True
    assert data["failed"] == 0


def test_verify_unwritable_json_path_is_refused_before_any_check(
        tmp_path, monkeypatch):
    def no_run(max_n):
        raise AssertionError("run_all ran before the path was refused")

    monkeypatch.setattr("fpaths.verify_harness.run_all", no_run)
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli("verify", "--max-n", "5", "--json", str(target))
    assert (code, out) == (2, "")
    assert err == f"fpaths verify: [Errno 2] No such file or directory: " \
        f"{str(target)!r}\n"


def test_verify_empty_json_path_is_refused_before_any_check(monkeypatch):
    """An empty ``--json`` path is a path that cannot be opened, not an
    absent option."""
    def no_run(max_n):
        raise AssertionError("run_all ran before the path was refused")

    monkeypatch.setattr("fpaths.verify_harness.run_all", no_run)
    code, out, err = run_cli("verify", "--max-n", "1", "--json", "")
    assert (code, out) == (2, "")
    assert err == "fpaths verify: [Errno 2] No such file or directory: ''\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_verify_on_a_full_disk_is_a_one_line_error():
    """A JSON file that cannot be written is an error of the command,
    exit status 2, not a failed verification."""
    src = os.path.dirname(os.path.dirname(fpaths.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "fpaths.cli", "verify", "--max-n", "1",
         "--json", "/dev/full"],
        capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert proc.stdout.endswith("\n135 passed, 0 failed, 135 total\n")
    assert proc.stderr == \
        "fpaths verify: [Errno 28] No space left on device\n"


def test_verify_bad_max_n_leaves_the_json_file_untouched(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("kept\n")
    code, out, err = run_cli("verify", "--max-n", "-1", "--json", str(target))
    assert (code, out) == (2, "")
    assert err == "fpaths verify: n must be >= 0, got -1\n"
    assert target.read_text() == "kept\n"


def test_verify_negative_max_n_is_usage_error():
    with pytest.raises(FormViolation):
        run_all(-1)
    code, out, err = run_cli("verify", "--max-n", "-1")
    assert code == 2
    assert out == ""
    assert err == "fpaths verify: n must be >= 0, got -1\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--max-n", "11"),
    ("enumerate", "--family", "perm", "--n", "11"),
])
def test_index_above_max_n_is_refused_before_building(argv):
    """Refused by the common index check, before any size is built."""
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert err == f"fpaths {argv[0]}: n must be <= 10, got 11\n"


# ------------------------------------------------------------ bad usage


def test_unknown_family_is_usage_error():
    code, _, err = run_cli("enumerate", "--family", "nope", "--n", "1")
    assert code == 2
    assert "invalid choice" in err


def test_missing_subcommand_is_usage_error():
    assert run_cli()[0] == 2


def test_a_broken_pipe_ends_a_command_with_status_0(monkeypatch):
    """A reader that closes the pipe early stops the output; it is not
    an error."""
    def broken(*args, **kwargs):
        raise BrokenPipeError

    monkeypatch.setattr(cli, "print", broken, raising=False)
    assert run_cli("sequence", "--max-n", "3") == (0, "", "")


TOP_HELP = """\
usage: fpaths [-h] {enumerate,map,stats,count,table,sequence,verify} ...

Bijections, statistics and exact counts for F-paths and six equinumerous
families.

positional arguments:
  {enumerate,map,stats,count,table,sequence,verify}
    enumerate           list all objects of a family
    map                 map stdin objects between families
    stats               statistics of stdin objects
    count               closed-form counts
    table               triangle of a marginal, n = 0..5
    sequence            total counts a(0..max-n)
    verify              run the cross-verification harness

options:
  -h, --help            show this help message and exit
"""

MAP_HELP = """\
usage: fpaths map [-h] --from {fpath,schroder,bicolored,perm,inv-i,inv-j,tree}
                  --to {fpath,schroder,bicolored,perm,inv-i,inv-j,tree}

options:
  -h, --help            show this help message and exit
  --from {fpath,schroder,bicolored,perm,inv-i,inv-j,tree}
  --to {fpath,schroder,bicolored,perm,inv-i,inv-j,tree}
"""


def test_help_text_is_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli("--help") == (0, TOP_HELP, "")
    assert run_cli("map", "--help") == (0, MAP_HELP, "")


#: One process runs these in order through the one module-level parser.
REUSE_CALLS = (
    (("count", "--n", "5", "--h", "2"), None),
    (("count", "--n", "5"), None),
    (("map", "--from", "perm"), None),
    (("map", "--from", "fpath", "--to", "perm"), "0,1 1,1\n-\n1,0\n"),
    (("verify", "--max-n", "2"), None),
)

_FIRST_CALL = """\
import contextlib, io, json, sys
from fpaths import fpath_core
from fpaths.cli import cmd_dispatch
argv, stdin = json.loads(sys.argv[1])
sys.stdin = io.StringIO(stdin or "")
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cmd_dispatch(argv)
sys.__stdout__.write(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


def test_parser_reuse_leaks_nothing_between_calls(monkeypatch):
    """Each call of a sequence made in one process, through the one
    parser, prints and returns what the same call prints and returns as
    the first call of a fresh interpreter: no option value, default or
    error state carries over from one call to the next."""
    src = os.path.dirname(os.path.dirname(fpaths.__file__))
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    fresh = []
    for argv, stdin in REUSE_CALLS:
        proc = subprocess.run(
            [sys.executable, "-c", _FIRST_CALL, json.dumps([argv, stdin])],
            capture_output=True, text=True, env=env, check=True,
        )
        fresh.append(tuple(json.loads(proc.stdout)))
    assert fresh[0] == (0, "110\n", "")
    assert fresh[2][0] == 2
    assert fresh[2][2].endswith("the following arguments are required: "
                                "--to\n")
    monkeypatch.setenv("COLUMNS", "80")
    in_process = [run_cli(*argv, stdin=stdin) for argv, stdin in REUSE_CALLS]
    assert in_process == fresh


def test_console_script_is_installed():
    """The declared ``fpaths`` console script runs the CLI as a process
    of its own, reads its arguments from sys.argv and passes the exit
    status on.

    The first leg always runs: it reads ``[project.scripts] fpaths`` from
    the repository's pyproject.toml and runs, in a fresh interpreter, the
    body an installer's wrapper runs (import the named callable, set
    argv[0], exit with what it returns).  The second leg runs only where
    an installed ``fpaths`` script is found on PATH, and checks that
    script the same way.
    """
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["fpaths"]
    module, attr = entry.split(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'fpaths'\n"
        f"sys.exit({attr}())\n"
    )
    commands = [[sys.executable, "-c", wrapper]]
    installed = shutil.which("fpaths")
    if installed is not None:
        commands.append([installed])
    src = os.path.dirname(os.path.dirname(fpaths.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for command in commands:
        proc = subprocess.run(
            command + ["sequence", "--max-n", "4"],
            capture_output=True,
            text=True,
            env=env,
            check=False,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1 2 6 21 80\n"


def test_sources_parse_at_the_declared_python_floor():
    """Every module of the package parses with the grammar of the oldest
    Python that pyproject.toml's ``requires-python`` admits."""
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        spec = tomllib.load(fh)["project"]["requires-python"]
    assert spec.startswith(">=")
    floor = tuple(int(part) for part in spec[2:].split("."))
    paths = sorted(glob.glob(os.path.join(root, "src", "fpaths", "*.py")))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), filename=path, feature_version=floor)


def test_membership_checks_survive_optimised_mode():
    """With asserts stripped (python -O) every public ``to_fpath`` still
    rejects a non-avoider with NotAvoider, every public ``from_fpath``
    rejects the non-F-path ((2, 1),) with a typed error, and every
    ``generate`` refuses n = 11 and n = -1."""
    script = (
        "from fpaths.errors import (FormViolation, GuardExceeded,\n"
        "    NotAvoider, PrefixViolation, StepNotInF)\n"
        "from fpaths.families import FAMILIES, TAGS\n"
        "for tag in TAGS:\n"
        "    for n, error in ((11, GuardExceeded), (-1, FormViolation)):\n"
        "        try:\n"
        "            FAMILIES[tag].generate(n)\n"
        "        except error:\n"
        "            continue\n"
        "        raise SystemExit(f'{tag} generate accepted {n}')\n"
        "for tag, obj in (('perm', (2, 3, 4, 1)), ('inv-i', (0, 1, 0, 1)),\n"
        "                 ('inv-j', (0, 0, 1, 3, 2))):\n"
        "    try:\n"
        "        FAMILIES[tag].to_fpath(obj)\n"
        "    except NotAvoider:\n"
        "        continue\n"
        "    raise SystemExit(f'{tag} to_fpath accepted {obj}')\n"
        "for tag in TAGS:\n"
        "    try:\n"
        "        FAMILIES[tag].from_fpath(((2, 1),))\n"
        "    except (StepNotInF, PrefixViolation):\n"
        "        continue\n"
        "    raise SystemExit(f'{tag} from_fpath accepted ((2, 1),)')\n"
    )
    src = os.path.dirname(os.path.dirname(fpaths.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
