"""CLI integration: problem files, output files, exit codes, membership."""

import io
import os
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncpoly import (Alphabet, MonomialOrdering, ParseError, Polynomial, Term,
                    divide, mora, parse_polynomial, reduce_basis)
from ncpoly.cli import (EXIT_CAP, EXIT_OK, EXIT_USAGE, ProblemFileError,
                        _parse_generators, _write_output, main,
                        membership_repl, parse_problem_file)

from conftest import P


S3_FILE = """\
# monoid presentation of S3
vars: Y > X > y > x
ordering: deglex
x^3 - 1
y^2 - 1
x*y*x*y - 1
X*x - 1
x*X - 1
Y*y - 1
y*Y - 1
"""

WALK_FILE = """\
vars: x > y
2*x*y + y^2 + 5
x^2 + y^2 + 8
"""

MORA_FILE = """\
vars: x > y > z
ordering: deglex
x*y - z
y*z + 2*x + z   # generators may carry trailing comments
y*z + x
"""


def write(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body)
    return path


def read_output(path):
    lines = path.read_text().splitlines()
    polys = [l for l in lines if not l.startswith(("vars:", "ordering:", "#"))]
    stats = [l for l in lines if l.startswith("# stats:")]
    return polys, stats


# ---------------------------------------------------------------------------
# problem file parsing
# ---------------------------------------------------------------------------

def test_parse_problem_file(tmp_path):
    path = write(tmp_path, "mora.txt", MORA_FILE)
    alphabet, gens, ordering = parse_problem_file(str(path))
    assert alphabet == Alphabet(["x", "y", "z"])
    assert ordering == "deglex"
    assert [text for _, text in gens] == [
        "x*y - z", "y*z + 2*x + z", "y*z + x"]


def test_problem_file_errors(tmp_path, capsys):
    cases = {       # file name: (body, what follows "path:" in the error)
        "novars.txt": (b"x*y - z\n", "1: "),
        "nogens.txt": (b"vars: x > y\n", " "),
        "badvars.txt": (b"vars: x > > y\nx\n", "1: "),
        "comments.txt": (b"# no directive at all\n\n", " "),
        "dup.txt": (b"# twice\rvars: x > x\rx\r", "2: "),
        "digit.txt": (b"vars: 1 > x\nx\n", "1: "),
        "noorder.txt": (b"vars: x > y\nordering:\nx\n", "2: "),
        "byte.txt": (b"vars: x > y\r\nx*y \xff- 1\n", "2: "),
        # a repeated directive is refused at its own line, even one that
        # would have been accepted alone
        "twoorders.txt": (b"vars: x > y\nordering: lex\nx*y - 1\n"
                          b"ordering: deglex\n", "4: a second 'ordering:' line"),
        "twovars.txt": (b"vars: x > y\nx*y - 1\nvars: x > y > z\n",
                        "3: a second 'vars:' line"),
    }
    for name, (body, where) in cases.items():
        path = tmp_path / name
        path.write_bytes(body)
        assert main([str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {path}:{where}")


_FILE_TOKENS = (b"x", b"y", b"xy", b"y z", "\u00e9".encode(), b"1v", b"+w",
                b" ", b">", b"*", b"-", b"^2", b"3", b"/", b"#", b"deglex",
                b"vars:", b"ordering:", b"\xff", b"\xc3", b"\x00")
# a well-formed first line, so that some files get as far as their generators
_HEADER = "vars: x > xy > y z > \u00e9\n".encode()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from((b"", b"vars: ", b"ordering: ", b"# ", _HEADER)),
    st.lists(st.sampled_from(_FILE_TOKENS), max_size=6).map(b"".join),
    st.sampled_from((b"\n", b"\r\n", b"\r", b""))), max_size=6))
@example([(b"vars: ", b"x > y", b"\n"), (b"", b"x*y - 1", b"\n")])
def test_problem_files_parse_or_refuse_with_the_path(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.txt")
        with open(path, "wb") as handle:
            handle.write(b"".join(b"".join(line) for line in lines))
        try:
            alphabet, texts, _ = parse_problem_file(path)
            _parse_generators(path, alphabet,
                              MonomialOrdering("deglex", alphabet), texts)
        except ProblemFileError as exc:
            assert str(exc).startswith(path + ":")


def test_generator_parse_error_exits_usage(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "vars: x > y\nx*q + 1\n")
    assert main([str(path)]) == EXIT_USAGE
    # an exponent past the index size is a positioned error, not a crash
    path = write(tmp_path, "huge.txt", "vars: x > y\nx^99999999999999999999\n")
    capsys.readouterr()
    assert main([str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: {path}:2:2: exponent too large (at position 2)\n")


# ---------------------------------------------------------------------------
# algorithm runs and output files
# ---------------------------------------------------------------------------

def test_groebner_run_writes_output(tmp_path):
    path = write(tmp_path, "mora.txt", MORA_FILE)
    assert main([str(path), "--algorithm", "groebner"]) == EXIT_OK
    out = tmp_path / "mora.deg.gb"
    assert out.exists()
    polys, stats = read_output(out)
    assert polys == ["x*y - z", "y*z + 2*x + z", "y*z + x",
                     "x + z", "-z*y - z", "2*z^2"]
    assert any("status=complete" in l for l in stats)
    assert any("basis_size=6" in l for l in stats)
    assert any("wall_time=" in l for l in stats)
    # a dot-file keeps its whole name: two of them would otherwise both
    # write .deg.gb
    hidden = write(tmp_path, ".mora", MORA_FILE)
    assert main([str(hidden), "--algorithm", "groebner"]) == EXIT_OK
    assert read_output(tmp_path / ".mora.deg.gb")[0] == polys
    assert not (tmp_path / ".deg.gb").exists()


def test_s3_involutive_run(tmp_path):
    path = write(tmp_path, "s3.txt", S3_FILE)
    assert main([str(path), "--algorithm", "involutive",
                 "--division", "1"]) == EXIT_OK
    polys, stats = read_output(tmp_path / "s3.deg.inv")
    assert len(polys) == 19
    assert any("basis_changes=" in l for l in stats)


def test_strong_left_overlap_thick_run(tmp_path):
    body = ("vars: x > y\nordering: deglex\n"
            "x^2*y^2 - 2*x*y^2 + x^2\nx^2*y - 2*x*y\n")
    path = write(tmp_path, "pair.txt", body)
    assert main([str(path), "--algorithm", "involutive", "--division", "4",
                 "--divisors", "thick"]) == EXIT_OK
    polys, _ = read_output(tmp_path / "pair.deg.inv")
    assert len(polys) == 5


def test_cap_hit_exit_code(tmp_path, capsys):
    body = ("vars: x > y > z\nordering: deglex\n"
            "x*y - z\nx + z\ny*z - z\nx*z\nz*y + z\nz^2\n")
    path = write(tmp_path, "loop.txt", body)
    args = [str(path), "--algorithm", "involutive", "--division", "1",
            "--max-degree", "8"]
    assert main(args) == EXIT_CAP
    _, stats = read_output(tmp_path / "loop.deg.inv")
    assert any("status=degree_cap_hit" in l for l in stats)
    # no membership loop over an incomplete basis
    capsys.readouterr()
    assert main(args + ["--membership"]) == EXIT_CAP
    assert capsys.readouterr() == ("", "membership loop skipped: basis incomplete\n")


def test_walk_runs(tmp_path):
    path = write(tmp_path, "walk.txt", WALK_FILE)
    assert main([str(path), "--algorithm", "gwalk", "--source-ordering",
                 "degrevlex", "--ordering", "deglex"]) == EXIT_OK
    polys, _ = read_output(tmp_path / "walk.deg.gwk")
    assert len(polys) == 4
    assert main([str(path), "--algorithm", "iwalk", "--source-ordering",
                 "deglex", "--ordering", "degrevlex", "--division", "1"]) \
        == EXIT_OK
    polys, _ = read_output(tmp_path / "walk.drl.iwk")
    assert len(polys) == 5


def test_walk_to_its_own_ordering_is_refused(tmp_path, capsys):
    # WALK_FILE names no ordering, so source and target both default to
    # degrevlex
    path = write(tmp_path, "walk.txt", WALK_FILE)
    for flags in (["--algorithm", "gwalk"], ["--algorithm", "iwalk"],
                  ["--algorithm", "gwalk", "--source-ordering", "deglex",
                   "--ordering", "deglex"]):
        assert main([str(path), *flags]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--source-ordering" in err and "--ordering" in err
    assert list(tmp_path.iterdir()) == [path]


def test_unwritable_output_exits_usage(tmp_path, capsys, monkeypatch):
    # a directory holds the output's name: one error line, no traceback,
    # and the membership loop never reads a query
    path = write(tmp_path, "s3.txt", S3_FILE)
    (tmp_path / "s3.deg.gb").mkdir()
    monkeypatch.setattr("sys.stdin", io.StringIO("x^3 - 1\nquit\n"))
    assert main([str(path), "--membership"]) == EXIT_USAGE
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot write {tmp_path / 's3.deg.gb'}: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_walk_footer_lists_walk_counters(tmp_path):
    path = write(tmp_path, "walk.txt", WALK_FILE)
    assert main([str(path), "--algorithm", "gwalk", "--ordering",
                 "deglex"]) == EXIT_OK
    _, stats = read_output(tmp_path / "walk.deg.gwk")
    keys = [l.split()[2].split("=")[0] for l in stats]
    assert keys[:2] == ["status", "basis_size"]
    assert keys[-1] == "wall_time"
    assert "iterations" in keys and "walk_iterations" in keys


def test_capped_walk_source_run_names_its_ordering(tmp_path):
    # the source run stops at the cap: its degrevlex basis is the answer
    path = write(tmp_path, "walk.txt", WALK_FILE)
    assert main([str(path), "--algorithm", "gwalk", "--ordering", "deglex",
                 "--max-iterations", "2"]) == EXIT_CAP
    out = tmp_path / "walk.deg.gwk"
    assert "ordering: degrevlex" in out.read_text().splitlines()
    _, stats = read_output(out)
    assert "# stats: status=iteration_cap_hit" in stats
    assert not any("walk_" in l for l in stats)
    # the file reads back with its terms in the order they were written
    alphabet, gens, kind = parse_problem_file(str(out))
    o = MonomialOrdering(kind, alphabet)
    assert [repr(parse_polynomial(text, alphabet, o)) for _, text in gens] \
        == [text for _, text in gens]


def test_output_round_trip(tmp_path):
    path = write(tmp_path, "mora.txt", MORA_FILE)
    main([str(path), "--algorithm", "groebner"])
    alphabet, gens, kind = parse_problem_file(str(tmp_path / "mora.deg.gb"))
    o = MonomialOrdering(kind, alphabet)
    basis = [parse_polynomial(text, alphabet, o) for _, text in gens]
    assert reduce_basis(basis, o) == reduce_basis(reduce_basis(basis, o), o)
    assert reduce_basis(basis, o) == P(alphabet, o, "y*z - z", "z*y + z",
                                       "z^2", "x + z")


def test_output_holds_integers_past_the_digit_limit(tmp_path):
    # completion can make a coefficient longer than Python's integer-string
    # limit, which the parser refuses as input: it is written in full, and
    # the limit is left as it was
    xy = Alphabet(["x", "y"])
    o = MonomialOrdering("deglex", xy)
    big = 10**5000 + 1
    p = Polynomial([Term(Fraction(big), (0,)), Term(Fraction(1), ())], xy, o)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    path = tmp_path / "big.deg.inv"
    _write_output(path, xy, o, [p], {"inv_reductions": 0}, "complete", 0.5)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    polys, stats = read_output(path)
    assert polys == ["1" + "0" * 4999 + "1*x + 1"]
    assert stats == ["# stats: status=complete", "# stats: basis_size=1",
                     "# stats: inv_reductions=0", "# stats: wall_time=0.500s"]


def test_verbosity_does_not_change_results(tmp_path, capsys):
    path = write(tmp_path, "mora.txt", MORA_FILE)
    main([str(path)])
    quiet = (tmp_path / "mora.deg.gb").read_text()
    quiet_polys = [l for l in quiet.splitlines() if not l.startswith("#")]
    main([str(path), "-v"])
    loud = (tmp_path / "mora.deg.gb").read_text()
    loud_polys = [l for l in loud.splitlines() if not l.startswith("#")]
    assert quiet_polys == loud_polys


def test_verbose_warns_about_ignored_options(tmp_path, capsys):
    path = write(tmp_path, "walk.txt", WALK_FILE)
    walk = ["--source-ordering", "degrevlex", "--ordering", "deglex"]
    cases = {
        ("--algorithm", "groebner", "--divisors", "thick"):
            "--division/--divisors are ignored with --algorithm groebner",
        ("--algorithm", "gwalk", *walk, "--division", "7", "--divisors", "thick"):
            "--division/--divisors are ignored with --algorithm gwalk",
        ("--algorithm", "involutive", "--strategy", "sugar", "--no-criterion2"):
            "--strategy/--no-criterion2 are ignored with --algorithm involutive",
        ("--algorithm", "iwalk", *walk, "--division", "1", "--no-criterion2"):
            "--strategy/--no-criterion2 are ignored with --algorithm iwalk",
    }
    for flags, warning in cases.items():
        assert main([str(path), *flags, "-v"]) == EXIT_OK
        assert capsys.readouterr().err == f"warning: {warning}\n"
        # only when asked to be verbose, and only for an ignored option
        assert main([str(path), *flags]) == EXIT_OK
        assert capsys.readouterr().err == ""
    for flags in (["--algorithm", "groebner", "--strategy", "sugar"],
                  ["--algorithm", "involutive", "--division", "7"],
                  ["--algorithm", "gwalk", *walk, "--no-criterion2"]):
        assert main([str(path), *flags, "-v"]) == EXIT_OK
        assert capsys.readouterr().err == ""


def test_default_ordering_is_degrevlex(tmp_path):
    path = write(tmp_path, "plain.txt", "vars: x > y\nx*y - 1\n")
    assert main([str(path)]) == EXIT_OK
    assert (tmp_path / "plain.drl.gb").exists()


def test_bad_file_ordering_exits_usage(tmp_path, capsys):
    cases = {
        "lex": "error: lex is not admissible; "
               "choose deglex, deginvlex or degrevlex",
        "invlex": "error: invlex is not admissible; "
                  "choose deglex, deginvlex or degrevlex",
        "foo": "error: unknown ordering 'foo'; "
               "choose deglex, deginvlex or degrevlex",
    }
    for kind, line in cases.items():
        path = write(tmp_path, f"{kind}.txt",
                     f"vars: x > y\nordering: {kind}\nx*y - 1\n")
        assert main([str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == line + "\n"


def test_bad_flags_exit_usage(tmp_path):
    path = write(tmp_path, "plain.txt", "vars: x > y\nx*y - 1\n")
    assert main([str(path), "--algorithm", "nonsense"]) == EXIT_USAGE
    assert main([str(path), "--division", "99", "--algorithm",
                 "involutive"]) == EXIT_USAGE
    assert main(["/does/not/exist.txt"]) == EXIT_USAGE
    # refused at parsing under every algorithm, before any run
    assert main([str(path), "--max-degree", "-1"]) == EXIT_USAGE
    assert main([str(path), "--max-iterations", "-3"]) == EXIT_USAGE
    assert main([str(path), "--division", "0"]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# membership loop
# ---------------------------------------------------------------------------

@pytest.fixture
def membership_gb(xyz):
    o = MonomialOrdering("deglex", xyz)
    F = P(xyz, o, "x + y + z - 3", "x^2 + y^2 + z^2 - 9",
          "x^3 + y^3 + z^3 - 24")
    return reduce_basis(mora(F, o).basis, o), o


def run_repl(gb, o, text):
    out, err = io.StringIO(), io.StringIO()
    membership_repl(gb, o, inp=io.StringIO(text), out=out, err=err)
    return out.getvalue(), err.getvalue()


def test_membership_of_generator(membership_gb):
    gb, o = membership_gb
    out, _ = run_repl(gb, o, "x + y + z - 3\n")
    assert out.strip() == "member"


def test_membership_answers_match_division_oracle(membership_gb, xyz):
    gb, o = membership_gb
    for query in ("x + y + z - 2", "x*z^2 + y*z^2 - 1",
                  "x^2*y + y^2*z + z^2*x", "x - x", "0", "0*x",
                  "2/4*x*z - 1/3",
                  # a word that cancels sets no bound in the kernel
                  "x^1200000 - x^1200000 + y"):
        p = P(xyz, o, query)
        oracle, _ = divide(p, gb)
        out, _ = run_repl(gb, o, query + "\n")
        if oracle.is_zero():
            assert out.strip() == "member"
        else:
            assert out.strip() == f"non-member, remainder: {oracle!r}"


def test_membership_parse_error_continues(membership_gb):
    gb, o = membership_gb
    # '²' passes str.isdigit(), but int() refuses it; the next two lines
    # pass Python's 4300-digit limit and the index size
    out, err = run_repl(gb, o, "q + 1\nx²\n" + "1" * 5000
                        + "\nx^99999999999999999999\n\n# a comment\n"
                        "x + y + z - 3\nquit\nx\n")
    assert err.count("error:") == 4
    assert "unexpected character '²' (at position 1)" in err
    assert "integer too long (at position 0)" in err
    assert "exponent too large (at position 2)" in err
    assert out.strip() == "member"     # the loop continued, quit stopped it
    # the loop reads a query as parse_polynomial does, refusals included
    for line in ("q + 1", "x²", "1" * 5000, "x^99999999999999999999"):
        with pytest.raises(ParseError) as caught:
            parse_polynomial(line, o.alphabet, o)
        assert f"error: {caught.value}\n" in err


def test_membership_remainder_past_the_digit_limit(xyz):
    # a query within the limit can leave a remainder past it, which is
    # printed in full; the limit is left as it was, so the next query of
    # 5000 digits is still refused
    o = MonomialOrdering("deglex", xyz)
    gb = [P(xyz, o, "x - 1" + "0" * 4000)]
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    out, err = run_repl(gb, o, "x^2\n" + "1" * 5000 + "\n")
    assert out == "non-member, remainder: 1" + "0" * 8000 + "\n"
    assert err == "error: integer too long (at position 0)\n"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_membership_flag_end_to_end(tmp_path, capfd, monkeypatch):
    path = write(tmp_path, "mem.txt",
                 "vars: x > y > z\nordering: deglex\n"
                 "x + y + z - 3\nx^2 + y^2 + z^2 - 9\nx^3 + y^3 + z^3 - 24\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("x + y + z - 3\nquit\n"))
    assert main([str(path), "--membership"]) == EXIT_OK
    assert "member" in capfd.readouterr().out
