"""Involutive divisions, tables, reduction, autoreduction, bases."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncpoly import (Alphabet, InvolutiveDivision, MonomialOrdering,
                    MultiplicativeTable, Polynomial, Term,
                    assign_multiplicative, autoreduce, divide, inv_divide,
                    involutive, involutive_basis, involutively_divides,
                    log_expand, poly_combine, reduce_basis)
from ncpoly.algebra import _Divisors, _encode
from ncpoly.groebner import log_identity, log_reduced
from ncpoly.involutive import _certificate, _certificate_holds, _edit

from conftest import (P, all_spolys_reduce_to_zero, brute_force_placement,
                      group_presentation, monic_set, random_poly, random_word,
                      reference_rows, seeded_rng, w)


@pytest.fixture
def o(xyz):
    return MonomialOrdering("deglex", xyz)


def named_right(table):
    return {word: names[1] for word, names in table.named().items()}


def named_left(table):
    return {word: names[0] for word, names in table.named().items()}


# ---------------------------------------------------------------------------
# division catalogue
# ---------------------------------------------------------------------------

def test_division_keys_and_names():
    assert InvolutiveDivision(1).name == "Left"
    assert InvolutiveDivision(2).name == "Right"
    assert InvolutiveDivision(5).name == "TwoSidedLeftOverlap"
    assert InvolutiveDivision(12).name == "SubwordFreeRightOverlap"
    assert InvolutiveDivision(1).is_global and InvolutiveDivision(2).is_global
    assert not InvolutiveDivision(3).is_global
    assert InvolutiveDivision(3).left_handed
    assert not InvolutiveDivision(8).left_handed
    with pytest.raises(ValueError):
        InvolutiveDivision(13)
    with pytest.raises(ValueError):
        InvolutiveDivision(3.7)
    with pytest.raises(ValueError):
        InvolutiveDivision("3")


# ---------------------------------------------------------------------------
# assign_multiplicative: the three documented tables
# ---------------------------------------------------------------------------

LMS_6 = ("xy", "x", "yz", "xz", "zy", "zz")


def test_left_overlap_table(xyz):
    lms = [w(xyz, m) for m in LMS_6]
    table = assign_multiplicative(InvolutiveDivision(3), lms, xyz)
    assert named_right(table) == {
        w(xyz, "xy"): {"x", "y"},
        w(xyz, "x"): {"x"},
        w(xyz, "yz"): {"x"},
        w(xyz, "xz"): {"x"},
        w(xyz, "zy"): {"x", "y"},
        w(xyz, "zz"): {"x"},
    }
    assert all(s == {"x", "y", "z"} for s in named_left(table).values())


def test_strong_left_overlap_table(xyz):
    lms = [w(xyz, m) for m in LMS_6]
    table = assign_multiplicative(InvolutiveDivision(4), lms, xyz)
    assert named_right(table) == {
        w(xyz, "xy"): {"y"},
        w(xyz, "x"): set(),
        w(xyz, "yz"): set(),
        w(xyz, "xz"): set(),
        w(xyz, "zy"): {"y"},
        w(xyz, "zz"): set(),
    }
    assert all(s == {"x", "y", "z"} for s in named_left(table).values())
    # a key stands for its division, as in autoreduce and involutive_basis
    assert assign_multiplicative(4, lms, xyz) == table
    with pytest.raises(ValueError):
        assign_multiplicative(13, lms, xyz)


def test_two_sided_left_overlap_table(xyz):
    lms = [w(xyz, m) for m in ("zxxyxy", "yzx", "xy")]
    table = assign_multiplicative(InvolutiveDivision(5), lms, xyz)
    named = table.named()
    assert named[w(xyz, "zxxyxy")] == ({"x", "y", "z"}, {"x", "y", "z"})
    assert named[w(xyz, "yzx")] == ({"y", "z"}, {"y", "z"})
    assert named[w(xyz, "xy")] == ({"x"}, {"y", "z"})


def test_global_tables(xyz):
    lms = [w(xyz, m) for m in LMS_6]
    left_table = assign_multiplicative(InvolutiveDivision(1), lms, xyz)
    right_table = assign_multiplicative(InvolutiveDivision(2), lms, xyz)
    for idx in range(len(lms)):
        assert left_table.row(idx) == (frozenset({0, 1, 2}), frozenset())
        assert right_table.row(idx) == (frozenset(), frozenset({0, 1, 2}))
    assert left_table.sets_for(w(xyz, "zy")) == left_table.row(4)
    with pytest.raises(KeyError):
        left_table.sets_for(w(xyz, "yy"))      # not a row's word


def test_table_permutation_invariance(xyz):
    lms = [w(xyz, m) for m in LMS_6]
    for key in range(3, 13):
        base = assign_multiplicative(InvolutiveDivision(key), lms, xyz)
        reference = dict(zip(base.lms, zip(base.left, base.right)))
        for perm in itertools.islice(itertools.permutations(lms), 0, 24, 5):
            other = assign_multiplicative(InvolutiveDivision(key),
                                          list(perm), xyz)
            assert dict(zip(other.lms, zip(other.left, other.right))) \
                == reference


def test_mirror_duality(xyz):
    rng = seeded_rng("mirror")
    for left_key, right_key in ((3, 8), (4, 9), (5, 10), (6, 11), (7, 12)):
        for _ in range(10):
            lms = list({random_word(rng, 3, 4) for _ in range(4)} - {()})
            if not lms:
                continue
            fwd = assign_multiplicative(InvolutiveDivision(right_key), lms, xyz)
            rev = assign_multiplicative(InvolutiveDivision(left_key),
                                        [m[::-1] for m in lms], xyz)
            for idx in range(len(lms)):
                assert fwd.left[idx] == rev.right[idx]
                assert fwd.right[idx] == rev.left[idx]


# a few words for many lead monomials, so that equal words meet, and
# over two of the three letters, so that they overlap often; the empty
# word is the lead monomial of a constant
edit_words = st.lists(st.lists(st.integers(0, 1), max_size=5)
                      .map(tuple), min_size=1, max_size=4)
edits = st.lists(st.tuples(st.sampled_from(("append", "delete", "replace")),
                           st.integers(0, 20), st.integers(0, 3)), max_size=14)


def strong_overlap_rows(key, lms, alphabet):
    """The (left, right) rows of StrongLeftOverlap (4) or its mirror (9),
    built without the library's cone code: LeftOverlap's right sets of
    the words, then, for each set and each word back to front in
    descending DegRevLex order, the word's first letter withdrawn when
    the set, as it shrinks, holds all of the word's letters.  Under 9 on
    reversed words, with the sides swapped."""
    words = [u if key == 4 else u[::-1] for u in lms]
    base = assign_multiplicative(InvolutiveDivision(3), words, alphabet)
    order = sorted(range(len(words)), reverse=True,
                   key=lambda t: (len(words[t]), words[t][::-1]))
    u = [words[t] for t in order]
    right = [set(base.right[t]) for t in order]
    for a in range(len(u) - 1, -1, -1):
        for b in range(len(u) - 1, -1, -1):
            if u[b] and all(letter in right[a] for letter in u[b]):
                right[a].discard(u[b][0])
    cut = [None] * len(words)
    for slot, t in enumerate(order):
        cut[t] = frozenset(right[slot])
    every = [frozenset(range(len(alphabet)))] * len(words)
    return (every, cut) if key == 4 else (cut, every)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), edit_words, edits)
# xx discards x from the row of x; deleting xx gives it back
@example(3, [(0,), (0, 0)], [("append", 0, 0), ("append", 0, 1),
                             ("delete", 1, 0)])
# ascending, the word x withdraws x from each row, and yx, which then
# lacks x, withdraws nothing; descending, yx would withdraw y first.
# Under 9 the same on the reversed words x and xy
@example(4, [(0,), (1, 0)], [("append", 0, 0), ("append", 0, 1)])
@example(9, [(0,), (0, 1)], [("append", 0, 0), ("append", 0, 1)])
# x is a prefix of xy, a subword that 7 does not count: x keeps y
@example(7, [(0,), (0, 1)], [("append", 0, 0), ("append", 0, 1)])
# yxx takes x and y from the left set of xx, so xx, whose self overlap
# xxx needs x on its left, keeps x on its right
@example(5, [(0, 0), (1, 0, 0)], [("append", 0, 0), ("append", 0, 1)])
def test_edited_rows_match_a_fresh_table(key, words, steps):
    # the rows autoreduce keeps as lead monomials are appended, deleted
    # and replaced in place are the rows of a table built afresh, and
    # under 4 and 9, whose fresh builds go through the same cone code,
    # the rows of strong_overlap_rows; under the other local divisions,
    # the rows of conftest.reference_rows.  The edited row and exactly
    # the rows whose sets change get a stamp newer than any before.
    alphabet = Alphabet(["x", "y", "z"])
    division = InvolutiveDivision(key)
    table = assign_multiplicative(division, [], alphabet)
    lms = []
    latest = -1
    for op, at, pick in steps:
        word, i = words[pick % len(words)], at % (len(lms) or 1)
        # each row before the edit, at its index after; None for the new row
        before = list(zip(table.left, table.right, table._stamps))
        if op == "append" or not lms:
            lms.append(word)
            before.append(None)
            _edit(table, len(lms) - 1, word)
        elif op == "delete":
            del lms[i]
            del before[i]
            _edit(table, i)
        else:
            lms[i] = word
            before[i] = None
            _edit(table, i, word)
        assert table == assign_multiplicative(division, lms, alphabet)
        if key in (4, 9):
            assert (table.left, table.right) == strong_overlap_rows(
                key, lms, alphabet)
        elif key > 2:
            assert (table.left, table.right) == reference_rows(
                key, lms, len(alphabet))
        after = list(zip(table.left, table.right, table._stamps))
        assert len(after) == len(before)
        for old, (left, right, stamp) in zip(before, after):
            if old is None or old[:2] != (left, right):
                assert stamp > latest
            else:
                assert stamp == old[2]
        latest = max([latest, *table._stamps])


# ---------------------------------------------------------------------------
# involutive divisibility
# ---------------------------------------------------------------------------

def custom_table(xyz, word, left, right):
    return MultiplicativeTable(
        InvolutiveDivision(3), xyz, [word],
        [{xyz.index(g) for g in left}], [{xyz.index(g) for g in right}])


def test_restricted_cone_example(xyz):
    zz = w(xyz, "zz")
    table = custom_table(xyz, zz, {"x", "y"}, {"x", "z"})
    assert involutively_divides(zz, w(xyz, "xyzzx"), table, "thick") \
        == (w(xyz, "xy"), w(xyz, "x"))
    assert involutively_divides(zz, w(xyz, "yzzy"), table, "thick") is None


def test_self_division_trivial_placement(xyz):
    m = w(xyz, "xyz")
    table = custom_table(xyz, m, set(), set())
    assert involutively_divides(m, m, table) == ((), ())


def test_left_division_is_suffix_test(xyz):
    # Left admits only the suffix placement, Right only the prefix one
    rng = seeded_rng("left-suffix")
    for _ in range(200):
        u2 = random_word(rng, 3, 4)
        u1 = random_word(rng, 3, 6)
        if not u2 or not u1:
            continue
        d = len(u1) - len(u2)
        for key, u3, u4 in ((1, u1[:d], ()), (2, (), u1[len(u2):])):
            table = assign_multiplicative(InvolutiveDivision(key), [u2], xyz)
            fits = d >= 0 and u3 + u2 + u4 == u1
            for mode in ("thin", "thick"):
                assert involutively_divides(u2, u1, table, mode) \
                    == ((u3, u4) if fits else None)


def test_thin_vs_thick(xyz, o):
    # thin looks only at the adjacent cofactor letters
    m = w(xyz, "y")
    table = custom_table(xyz, m, {"x"}, set())
    assert involutively_divides(m, w(xyz, "zxy"), table, "thin") \
        == (w(xyz, "zx"), ())
    assert involutively_divides(m, w(xyz, "zxy"), table, "thick") is None
    with pytest.raises(ValueError):
        involutively_divides(m, m, table, "fat")
    p = P(xyz, o, "y")
    with pytest.raises(ValueError):
        inv_divide(p, [p], table, "fat")
    F = P(xyz, o, "y", "z*y")
    for basis in (F, F[:1]):    # also when there is nothing to divide
        with pytest.raises(ValueError):
            autoreduce(basis, 3, o, mode="fat")
    # a plain division key is accepted, as by involutive_basis
    assert autoreduce(F, 3, o) == autoreduce(F, InvolutiveDivision(3), o)


def test_involutive_placements_are_conventional(xyz):
    rng = seeded_rng("inv-subset")
    for _ in range(300):
        u2 = random_word(rng, 3, 3)
        u1 = random_word(rng, 3, 6)
        if not u2:
            continue
        table = assign_multiplicative(InvolutiveDivision(3), [u2], xyz)
        for mode in ("thin", "thick"):
            hit = involutively_divides(u2, u1, table, mode)
            if hit is not None:
                u3, u4 = hit
                assert u3 + u2 + u4 == u1
                assert brute_force_placement(u1, u2) is not None


# ---------------------------------------------------------------------------
# inv_divide
# ---------------------------------------------------------------------------

def test_inv_divide_dry_run(xyz, o):
    Pset = P(xyz, o, "x^2 - 2*y", "x*y - x", "y^3 + 3")
    table = MultiplicativeTable(
        InvolutiveDivision(3), xyz,
        [p.lm() for p in Pset],
        [{0, 1}, {1}, {0}],           # x^2: {x,y}; xy: {y}; y^3: {x}
        [{0}, {0, 1}, set()])         # x^2: {x};   xy: {x,y}; y^3: {}
    p = P(xyz, o, "2*x^2*y^3 + y*x*y")
    rem, log = inv_divide(p, Pset, table, "thin")
    assert rem == P(xyz, o, "y*x - 12*y")
    assert poly_combine(p, rem, -1) == log_expand(log, Pset)


def test_inv_divide_rejects_divisors_in_another_ordering(xyz, o):
    Pset = P(xyz, o, "x^2 - 2*y", "x*y - x")
    drl = MonomialOrdering("degrevlex", xyz)
    # a list and a prepared set of it are refused alike
    for P_ in (Pset, _Divisors(Pset, o)):
        table = assign_multiplicative(InvolutiveDivision(1),
                                      [p.lm() for p in Pset], xyz)
        with pytest.raises(ValueError, match="different algebras or orderings"):
            inv_divide(P(xyz, drl, "x^2*y"), P_, table)
        with pytest.raises(ValueError, match="different algebras or orderings"):
            divide(P(xyz, drl, "x^2*y"), P_)
        # a table must describe P row for row, and a table with one row
        # more describes no P
        table = assign_multiplicative(InvolutiveDivision(1),
                                      [p.lm() for p in Pset] + [w(xyz, "z")],
                                      xyz)
        with pytest.raises(ValueError, match="rows"):
            inv_divide(P(xyz, o, "x^2*y"), P_, table)
    # its row for y*x does not describe x*y - z
    table = assign_multiplicative(InvolutiveDivision(1), [w(xyz, "yx")], xyz)
    divisors = [P(xyz, o, "x*y - z")]
    for P_ in (divisors, _Divisors(divisors, o)):
        with pytest.raises(ValueError, match="table row"):
            inv_divide(P(xyz, o, "y*x"), P_, table)


def test_inv_divide_irreducible_is_identity(xyz, o):
    Pset = [P(xyz, o, "x^2 - 2*y")]
    table = custom_table(xyz, w(xyz, "xx"), set(), set())
    p = P(xyz, o, "z*x^2*z + 1")    # placement blocked by empty mult sets
    rem, _ = inv_divide(p, Pset, table)
    assert rem == p


def test_inv_divide_matches_divide_for_left_division(xy):
    # with a complete Left-division basis, involutive remainders agree
    # with conventional ones (remainder uniqueness for strong divisions)
    o = MonomialOrdering("deglex", xy)
    F = P(xy, o, "2*x*y + y^2 + 5", "x^2 + y^2 + 8")
    res = involutive_basis(F, InvolutiveDivision(1), o)
    assert res.status == "complete"
    gb = reduce_basis(res.basis, o)
    rng = seeded_rng("uniqueness")
    for _ in range(100):
        p = random_poly(rng, xy, o)
        inv_rem, _ = inv_divide(p, res.basis, res.table)
        conv_rem, _ = divide(p, gb)
        assert inv_rem == conv_rem


def test_inv_divide_additivity(xy):
    # Rem(f, P) + Rem(g, P) = Rem(f + g, P) under the Left division
    o = MonomialOrdering("degrevlex", xy)
    F = P(xy, o, "y^2 + 2*x*y", "y^2 + x^2", "5*y^3", "5*x*y^2", "y^2 + 2*y*x")
    res = autoreduce(F, InvolutiveDivision(1), o)
    basis, table = res.basis, res.table
    rng = seeded_rng("additivity")
    for _ in range(100):
        f = random_poly(rng, xy, o)
        g = random_poly(rng, xy, o)
        rf, _ = inv_divide(f, basis, table)
        rg, _ = inv_divide(g, basis, table)
        rfg, _ = inv_divide(poly_combine(f, g, 1), basis, table)
        assert poly_combine(rf, rg, 1) == rfg


# ---------------------------------------------------------------------------
# autoreduce
# ---------------------------------------------------------------------------

def test_autoreduce_walk_example(xy):
    o = MonomialOrdering("degrevlex", xy)
    F = P(xy, o, "y^2 + 2*x*y", "y^2 + x^2", "5*y^3", "5*x*y^2", "y^2 + 2*y*x")
    basis = autoreduce(F, InvolutiveDivision(1), o).basis
    assert set(basis) == set(P(xy, o, "2*x*y - x^2", "-2*y*x + x^2",
                                "-5*y*x^2", "-5*x^3", "y^2 + x^2"))


def test_autoreduce_fixed_point(xyz, o):
    F = P(xyz, o, "x*y - z", "z^2 - 1")
    basis = autoreduce(F, InvolutiveDivision(3), o).basis
    again = autoreduce(basis, InvolutiveDivision(3), o).basis
    assert basis == again == F


def test_autoreduce_inner_reduction_step(xy):
    o = MonomialOrdering("deglex", xy)
    F = P(xy, o, "x^2*y^2 - 2*x*y^2 + x^2", "x^2*y - 2*x*y", "-x^2")
    basis = autoreduce(F, InvolutiveDivision(4), o, mode="thick").basis
    assert P(xy, o, "x^2*y^2 - 2*x*y^2") in basis


def test_autoreduce_drops_zero_reductions(xyz, o):
    F = P(xyz, o, "x + z", "2*x + 2*z", "y")
    basis = autoreduce(F, InvolutiveDivision(1), o).basis
    assert monic_set(basis) == monic_set(P(xyz, o, "x + z", "y"))


def test_autoreduce_keeps_logs_aligned(xy):
    o = MonomialOrdering("deglex", xy)
    F = [Polynomial.zero(xy, o)] + P(xy, o, "x*y - y", "x*y*x - x")
    logs = [log_identity(k) for k in range(len(F))]
    res = autoreduce(F, InvolutiveDivision(1), o, logs=logs)
    assert len(res.logs) == len(res.basis)
    for g, log in zip(res.basis, res.logs):
        assert log_expand(log, F) == g


def test_autoreduce_table_of_all_but_the_last(group_alphabet, xyz,
                                              monkeypatch):
    # with the table autoreduce returned for P[:-1], only the appended
    # element and what it touches are checked, to the same result, and
    # the table is taken over.  With or without it, an element is
    # divided only when a term of it has a divisor, so no division comes
    # back with an empty log.
    o = MonomialOrdering("deglex", group_alphabet)
    F = group_presentation(group_alphabet, o, "S3")
    every = set(range(len(group_alphabet)))
    for key in range(1, 13):
        division = InvolutiveDivision(key)
        for mode in ("thin", "thick"):
            r = autoreduce(F, division, o, mode)
            h = next(rem for rem in prolongation_remainders(r, o, mode)
                     if not rem.is_zero())
            Q = r.basis + [h]
            runs = []
            for table in (None, r.table):
                logs = [log_identity(k) for k in range(len(Q))]
                steps = []

                def recording(*args):
                    rem, dlog = inv_divide(*args)
                    steps.append(len(dlog))
                    return rem, dlog

                with monkeypatch.context() as m:
                    m.setattr(involutive, "inv_divide", recording)
                    run = autoreduce(Q, division, o, mode, logs, table)
                assert all(steps), (key, mode, table is None, steps)
                assert run.stats == {"inv_reductions": sum(steps)}
                runs.append(run)
            assert runs[0].logs is not None
            assert runs[1] == runs[0], (key, mode)
            assert runs[1].table is r.table
            # R[:-1] holds a multiple of R[0], so it is not autoreduced: a
            # table claiming it is, with rows too large to grow, is ignored,
            # as autoreduce did not return it
            R = r.basis + [r.basis[0].scaled(2), h]
            lms = [p.lm() for p in R[:-1]]
            full = [every] * len(lms)
            plain = autoreduce(R, division, o, mode)
            assert len(plain.basis) < len(R)
            for table in (
                    MultiplicativeTable(InvolutiveDivision(key % 12 + 1),
                                        group_alphabet, lms, full, full),
                    MultiplicativeTable(division, group_alphabet, lms[::-1],
                                        full, full)):
                assert autoreduce(R, division, o, mode, table=table) == plain
    # a table autoreduce returned in the other mode, or for a basis with
    # the same lead monomials but other tails, is ignored too
    o = MonomialOrdering("deglex", xyz)
    R = autoreduce(P(xyz, o, "z", "-y^3*z + 2*y*x*z", "-y*z*x^2 - x^3"), 11,
                   o, "thick")
    Q = R.basis + [P(xyz, o, "2*x^3*y")]
    plain = autoreduce(Q, 11, o, "thin")
    assert plain.basis[1] == P(xyz, o, "-y^3*z")
    assert autoreduce(Q, 11, o, "thin", table=R.table) == plain
    T = autoreduce(P(xyz, o, "y", "x*z"), 1, o).table
    Q = P(xyz, o, "y", "x*z + y", "z^2")
    plain = autoreduce(Q, 1, o)
    assert plain.basis == P(xyz, o, "y", "x*z", "z^2")
    assert autoreduce(Q, 1, o, table=T) == plain


@pytest.mark.parametrize("group, key, mode", [
    ("S3", 1, "thin"), ("S3", 2, "thin"), ("S3", 3, "thin"),
    ("S3", 3, "thick"), ("A4", 3, "thin")])
def test_completion_table_holds_no_divisor_set(group_alphabet, group, key,
                                               mode):
    # the table involutive_basis returns carries no prepared divisor set,
    # so autoreduce given it builds the set afresh, to the same result;
    # and its rows share one object per distinct letter set
    o = MonomialOrdering("deglex", group_alphabet)
    res = involutive_basis(group_presentation(group_alphabet, o, group), key,
                           o, mode=mode)
    assert res.status == "complete"
    assert res.table._reduced is None
    rows = res.table.left + res.table.right
    assert len({id(s) for s in rows}) == len(set(rows))
    Q = res.basis + [P(group_alphabet, o, "x*y*x*y*x - 3*Y + 1")]
    assert autoreduce(Q, key, o, mode, table=res.table) \
        == autoreduce(Q, key, o, mode)


_XY = Alphabet(["x", "y"])
_XY_ORDERINGS = [MonomialOrdering(kind, _XY)
                 for kind in ("deglex", "deginvlex", "degrevlex")]


def naive_autoreduce(F, division, o, mode, logs):
    """The reference for ``autoreduce``: a fresh table per pass, and every
    term of every element checked against every other row, from element
    0 on; no stamps and no filter on the rows."""
    keep = [k for k, f in enumerate(F) if not f.is_zero()]
    basis = [F[k] for k in keep]
    logs = None if logs is None else [logs[k] for k in keep]
    reductions = 0
    while True:
        table = assign_multiplicative(division, [p.lm() for p in basis], _XY)
        for i, p in enumerate(basis):
            others = [j for j in range(len(basis)) if j != i]
            if all(involutive.first_divisor(_encode(u), table._encoded,
                                            table.left, table.right,
                                            mode == "thick", others) is None
                   for _, u in p.terms):
                continue
            rem, dlog = inv_divide(p, basis, table, mode, others)
            reductions += len(dlog)
            if rem.is_zero():
                del basis[i]
                if logs is not None:
                    del logs[i]
            else:
                basis[i] = rem
                if logs is not None:
                    logs[i] = log_reduced(logs[i], dlog, logs)
            break
        else:
            return basis, logs, table, reductions


def _xy_polys(o):
    terms = st.lists(st.tuples(st.sampled_from([1, -1, 2, -3, Fraction(1, 2)]),
                               st.lists(st.integers(0, 1), max_size=4)),
                     min_size=0, max_size=4)
    return terms.map(lambda ts: Polynomial(
        [Term(c, tuple(m)) for c, m in ts], _XY, o))


@st.composite
def autoreduce_problems(draw):
    """An ordering, a list of polynomials (zero ones too), a division, a
    mode and whether to hand over the table of all but the last."""
    o = draw(st.sampled_from(_XY_ORDERINGS))
    F = draw(st.lists(_xy_polys(o), min_size=1, max_size=6))
    return (o, F, draw(st.integers(1, 12)), draw(st.sampled_from(["thin", "thick"])),
            draw(st.booleans()))


def _xy_problem(kind, texts, key, mode, handover):
    o = MonomialOrdering(kind, _XY)
    return o, P(_XY, o, *texts), key, mode, handover


@settings(max_examples=300, deadline=None)
@given(autoreduce_problems(), st.booleans())
# a constant, before the handover and as the appended element: its empty
# lead word occurs in every text, and it reduces every other element to
# zero
@example(problem=_xy_problem("deglex", ["x*y - y", "2", "y^2*x + x"], 3,
                             "thin", True), logged=True)
@example(problem=_xy_problem("degrevlex", ["x*y - y", "y*x*y + x", "3"], 7,
                             "thick", True), logged=True)
# x*y*x^2 is replaced by its remainder -x^3 before the handover, and the
# appended x^3 occurs in that remainder only: a replaced element's text
# must be its remainder's
@example(problem=_xy_problem("deglex", ["y*x^2 + x^2", "x*y*x^2", "x^3"], 1,
                             "thin", True), logged=False)
def test_autoreduce_matches_a_naive_autoreduce(problem, logged):
    o, F, key, mode, handover = problem
    division = InvolutiveDivision(key)
    table = None
    if handover:
        # the table autoreduce returned for the reduced F[:-1], handed over
        # with the last element appended
        head = autoreduce(F[:-1], division, o, mode)
        F = head.basis + F[-1:]
        table = head.table
    logs = [log_identity(k) for k in range(len(F))] if logged else None
    want = naive_autoreduce(F, division, o, mode, logs)
    got = autoreduce(F, division, o, mode, logs, table)
    assert (got.basis, got.logs, got.table, got.stats["inv_reductions"]) == want
    if handover and not F[-1].is_zero():
        assert got.table is table


# ---------------------------------------------------------------------------
# involutive_basis
# ---------------------------------------------------------------------------

def test_left_division_example_basis(xy):
    o = MonomialOrdering("deglex", xy)
    F = P(xy, o, "2*x*y + y^2 + 5", "x^2 + y^2 + 8")
    res = involutive_basis(F, InvolutiveDivision(1), o)
    assert res.status == "complete"
    assert res == involutive_basis(F, InvolutiveDivision(1), o)
    assert monic_set(res.basis) == monic_set(P(
        xy, o, "x*y + 1/2*y^2 + 5/2", "x^2 + y^2 + 8",
        "y^3 - 2*x + 37/5*y", "x*y^2 + x - 6/5*y", "y*x + 1/2*y^2 + 5/2"))


def test_strong_left_overlap_thick_basis(xy):
    o = MonomialOrdering("deglex", xy)
    F = P(xy, o, "x^2*y^2 - 2*x*y^2 + x^2", "x^2*y - 2*x*y")
    res = involutive_basis(F, InvolutiveDivision(4), o, mode="thick")
    assert res.status == "complete"
    assert set(res.basis) == set(P(
        xy, o, "-x^2", "-2*x*y", "-2*x*y^2", "-2*x*y*x", "-2*x*y^2*x"))


def test_left_overlap_fixture_already_involutive(xyz, o):
    F = P(xyz, o, "x*y - z", "x + z", "y*z - z", "x*z", "z*y + z", "z^2")
    res = involutive_basis(F, InvolutiveDivision(3), o)
    assert res.status == "complete"
    assert res.basis == F


def test_left_division_nontermination_witness(xyz, o):
    F = P(xyz, o, "x*y - z", "x + z", "y*z - z", "x*z", "z*y + z", "z^2")
    res = involutive_basis(F, InvolutiveDivision(1), o, max_degree=8)
    assert res.status == "degree_cap_hit"


def test_involutive_basis_iteration_cap(xy):
    o = MonomialOrdering("deglex", xy)
    F = P(xy, o, "2*x*y + y^2 + 5", "x^2 + y^2 + 8")
    res = involutive_basis(F, InvolutiveDivision(1), o, max_iterations=1)
    assert res.status == "iteration_cap_hit"


def test_involutive_basis_logged(xy):
    # a zero generator keeps its position: logs index the caller's F
    o = MonomialOrdering("deglex", xy)
    for F in (P(xy, o, "2*x*y + y^2 + 5", "x^2 + y^2 + 8"),
              [Polynomial.zero(xy, o)] + P(xy, o, "x*y - y", "y*x - x")):
        res = involutive_basis(F, InvolutiveDivision(1), o, logged=True)
        assert res.status == "complete"
        assert len(res.logs) == len(res.basis)
        for g, log in zip(res.basis, res.logs):
            assert log_expand(log, F) == g
    # ...but zero generators alone are refused
    with pytest.raises(ValueError, match="no nonzero"):
        involutive_basis([Polynomial.zero(xy, o)], InvolutiveDivision(1), o,
                         logged=True)


def prolongation_remainders(res, ordering, mode="thin"):
    """The involutive remainder of each prolongation of res.basis by a
    nonmultiplicative letter of res.table."""
    table = res.table
    for idx, g in enumerate(res.basis):
        for x in sorted(table.nonmult_left(idx)):
            s = Polynomial([Term(t.coeff, (x,) + t.mon) for t in g.terms],
                           g.alphabet, ordering)
            yield inv_divide(s, res.basis, table, mode)[0]
        for x in sorted(table.nonmult_right(idx)):
            s = Polynomial([Term(t.coeff, t.mon + (x,)) for t in g.terms],
                           g.alphabet, ordering)
            yield inv_divide(s, res.basis, table, mode)[0]


def prolongations_reduce_to_zero(res, ordering, mode="thin"):
    return all(rem.is_zero()
               for rem in prolongation_remainders(res, ordering, mode))


def test_locally_involutive_postcondition(xy, xyz, o):
    odl = MonomialOrdering("deglex", xy)
    runs = [
        (involutive_basis(P(xy, odl, "2*x*y + y^2 + 5", "x^2 + y^2 + 8"),
                          InvolutiveDivision(1), odl), odl, "thin"),
        (involutive_basis(P(xyz, o, "x*y - z", "x + z", "y*z - z", "x*z",
                            "z*y + z", "z^2"),
                          InvolutiveDivision(3), o), o, "thin"),
    ]
    for res, ordering, mode in runs:
        assert res.status == "complete"
        assert prolongations_reduce_to_zero(res, ordering, mode)


def test_involutive_basis_is_groebner_basis(xy, xyz, o):
    odl = MonomialOrdering("deglex", xy)
    cases = [
        (P(xy, odl, "2*x*y + y^2 + 5", "x^2 + y^2 + 8"), 1, odl, "thin"),
        (P(xy, odl, "2*x*y + y^2 + 5", "x^2 + y^2 + 8"), 2, odl, "thin"),
        (P(xyz, o, "x*y - z", "x + z", "y*z - z", "x*z", "z*y + z", "z^2"),
         3, o, "thin"),
        (P(xy, odl, "x^2*y^2 - 2*x*y^2 + x^2", "x^2*y - 2*x*y"), 4, odl,
         "thick"),
    ]
    for F, key, ordering, mode in cases:
        res = involutive_basis(F, InvolutiveDivision(key), ordering, mode=mode)
        assert res.status == "complete"
        assert all_spolys_reduce_to_zero(res.basis)


def certificate(*steps):
    """The certificate ``_certificate`` makes of the (divisor object,
    encoded word, offset) steps: the words end to end, and per step the
    divisor, the offset and the word's end."""
    words, flat = "", []
    for divisor, word, s in steps:
        words += word
        flat += [divisor, s, len(words)]
    return words, flat


def test_certificate_replay_checks_every_choice(xyz, o):
    # a zero-reduction certificate holds only while each recorded word
    # still picks the same divisor object at the same placement; here
    # every element is newer than the certificate, so every choice is
    # checked again
    def holds(cert, basis, table):
        where = {id(p): k for k, p in enumerate(basis)}
        stamps = [0] * len(basis)
        newest = list(itertools.accumulate(stamps, max))
        return _certificate_holds(*cert, -1, where, stamps, newest, table,
                                  False) is not None

    Pset = P(xyz, o, "x*y - z", "y - z")
    every = {0, 1, 2}
    table = MultiplicativeTable(InvolutiveDivision(3), xyz,
                                [p.lm() for p in Pset],
                                [every, every], [every, {0, 2}])
    rem, log = inv_divide(Pset[0], Pset, table)
    assert rem.is_zero()
    words, steps, top = _certificate(Pset, table, log)
    cert = words, steps
    assert cert == certificate((Pset[0], _encode(w(xyz, "xy")), 0))
    assert top == 0
    # the unlogged log gives the same certificate
    rem, unlogged = inv_divide(Pset[0], Pset, table, logged=False)
    assert rem.is_zero()
    assert _certificate(Pset, table, unlogged) == (words, steps, top)
    assert holds(cert, Pset, table)
    # an equal polynomial is not the recorded divisor
    assert not holds(cert, [Pset[0].scaled(1), Pset[1]], table)
    # x*y - z comes first in the basis, so it divides xy, not y - z
    xy, yy, zz = (_encode(w(xyz, u)) for u in ("xy", "yy", "zz"))
    assert not holds(certificate((Pset[1], xy, 1)), Pset, table)
    # y is not right multiplicative for y, so yy is divided at offset 1
    assert holds(certificate((Pset[1], yy, 1)), Pset, table)
    assert not holds(certificate((Pset[1], yy, 0)), Pset, table)
    # nothing divides zz
    assert not holds(certificate((Pset[0], zz, 0)), Pset, table)
    # each step is checked on its own slice of the words: yy, then xy,
    # then yy again, and one wrong step fails the certificate; one that
    # holds gives its largest divisor index
    three = certificate((Pset[1], yy, 1), (Pset[0], xy, 0), (Pset[1], yy, 1))
    where = {id(p): k for k, p in enumerate(Pset)}
    assert _certificate_holds(*three, -1, where, [0, 0], [0, 0], table,
                              False) == 1
    assert not holds(certificate((Pset[1], yy, 1), (Pset[0], xy, 0),
                                 (Pset[1], yy, 0)), Pset, table)
    assert not holds(certificate((Pset[1], yy, 1), (Pset[1], xy, 1)),
                     Pset, table)


def test_certificate_replay_checks_what_changed(xyz, o):
    # a certificate made at clock 0, replayed later: a step is checked
    # again against the elements before its divisor whose stamps are
    # newer than the certificate, and against the divisor when it is
    # newer itself
    Pset = P(xyz, o, "x*y - z", "y - z")
    where = {id(p): k for k, p in enumerate(Pset)}
    every = {0, 1, 2}

    def holds(cert, stamps, right_of_y):
        table = MultiplicativeTable(InvolutiveDivision(3), xyz,
                                    [p.lm() for p in Pset],
                                    [every, every], [every, right_of_y])
        newest = list(itertools.accumulate(stamps, max))
        return _certificate_holds(*cert, 0, where, stamps, newest, table,
                                  False) is not None

    xy, yy = _encode(w(xyz, "xy")), _encode(w(xyz, "yy"))
    # the certificate of dividing yy by y - z alone, at offset 1, then
    # yz at offset 0: from an unlogged log it equals the one from a
    # logged log
    table = MultiplicativeTable(InvolutiveDivision(3), xyz, [Pset[1].lm()],
                                [every], [{0, 2}])
    yy_poly = P(xyz, o, "y^2")
    logged = _certificate(Pset[1:], table, inv_divide(yy_poly, Pset[1:],
                                                      table)[1])
    assert logged == _certificate(Pset[1:], table, inv_divide(
        yy_poly, Pset[1:], table, logged=False)[1])
    yz = _encode(w(xyz, "yz"))
    assert logged == (*certificate((Pset[1], yy, 1), (Pset[1], yz, 0)), 0)
    # y - z divided xy at offset 1 while x*y - z was not there yet; the
    # newer x*y - z comes first and divides xy now
    assert not holds(certificate((Pset[1], xy, 1)), [1, 0], {0, 2})
    # y - z divided yy at offset 1; its row grew by y, so now it divides
    # yy at offset 0, and the step fails ...
    assert not holds(certificate((Pset[1], yy, 1)), [0, 1], every)
    # ... but a row that grew by z leaves the placement as it was
    assert holds(certificate((Pset[1], yy, 1)), [0, 1], {0, 2})
    # both rows newer: x*y - z does not divide yy, so y - z still does,
    # at offset 1
    assert holds(certificate((Pset[1], yy, 1)), [1, 1], {0, 2})
    # a step whose divisor is no newer than the certificate, with no
    # newer row before it, is not checked, even on a word it would not
    # divide now; the steps after it are
    assert holds(certificate((Pset[0], yy, 0), (Pset[1], yy, 1)),
                 [0, 1], {0, 2})
    assert not holds(certificate((Pset[0], yy, 0), (Pset[1], yy, 0)),
                     [0, 1], {0, 2})


# reduction steps performed by each run below, keyed by (group, key,
# mode, prolongations); kept out of the parameters so that the test ids
# stay as they were.  A kernel that picks another divisor or placement
# changes these counts even where the basis comes out the same.
INV_REDUCTIONS = {
    ("S3", 1, "thin", 1597): 480,
    ("S3", 2, "thin", 1293): 463,
    ("S3", 3, "thin", 295): 178,
    ("S3", 3, "thick", 328): 196,
    ("A4", 3, "thin", 974): 322,
    ("S4", 1, "thin", 7796): 1122,
    ("S4", 1, "thin", 2000): 136,
}


# reusing zero-reduction certificates must leave the completion's path
# as it was without them: the same prolongations examined (the cap
# counts these), the same remainders added, the same basis and logs
@pytest.mark.parametrize(
    "group, key, mode, kwargs, status, prolongations, changes, size", [
        ("S3", 1, "thin", {}, "complete", 1597, 41, 19),
        ("S3", 2, "thin", {}, "complete", 1293, 38, 19),
        ("S3", 3, "thin", {}, "complete", 295, 19, 16),
        ("S3", 3, "thick", {}, "complete", 328, 21, 18),
        ("A4", 3, "thin", {}, "complete", 974, 38, 30),
        ("A4", 3, "thin", {"logged": True}, "complete", 974, 38, 30),
        ("S4", 1, "thin", {}, "complete", 7796, 104, 73),
        ("S4", 1, "thin", {"max_iterations": 2000}, "iteration_cap_hit",
         2000, 55, 56),
    ])
def test_completion_trajectory_pinned(group_alphabet, group, key, mode, kwargs,
                                      status, prolongations, changes, size):
    o = MonomialOrdering("deglex", group_alphabet)
    F = group_presentation(group_alphabet, o, group)
    res = involutive_basis(F, InvolutiveDivision(key), o, mode=mode, **kwargs)
    assert res.status == status
    assert res.stats["prolongations"] == prolongations
    assert res.stats["inv_reductions"] \
        == INV_REDUCTIONS[group, key, mode, prolongations]
    assert res.stats["basis_changes"] == changes
    assert len(res.basis) == res.stats["basis_size"] == size
    assert 0 < res.stats["reused"] < prolongations
    if res.logs is not None:
        for g, log in zip(res.basis, res.logs, strict=True):
            assert log_expand(log, F) == g


# Under SubwordFreeLeftOverlap (7) and its mirror (12) a basis change can
# grow the row of an element autoreduce has already checked, which may then
# divide the others; these runs take that path, and their counters are the
# ones a full recheck after every change gives.
@pytest.mark.parametrize("kind, key, counts", [
    ("deginvlex", 7, (152, 102, 108, 18, 8)),
    ("degrevlex", 7, (134, 86, 106, 17, 8)),
    ("degrevlex", 12, (101, 57, 103, 14, 8)),
])
def test_completion_after_row_growth_pinned(group_alphabet, kind, key, counts):
    o = MonomialOrdering(kind, group_alphabet)
    res = involutive_basis(group_presentation(group_alphabet, o, "S3"),
                           InvolutiveDivision(key), o)
    assert res.status == "complete"
    assert tuple(res.stats[name] for name in (
        "prolongations", "reused", "inv_reductions", "basis_changes",
        "basis_size")) == counts


# Under RightOverlap (8) on S3, basis changes shrink the rows of divisors
# that zero-reduction certificates recorded, and two of those
# certificates then no longer hold.  A replay that does not check a
# divisor whose row changed takes them as holding: 204 reused and 166
# reduction steps.  (On S3 and A4, under every division, ordering and
# mode, no certificate fails because a row grew or because an element
# before its divisor changed; test_certificate_replay_checks_what_changed
# covers those cases.)
def test_completion_after_row_change_pinned(group_alphabet):
    o = MonomialOrdering("deglex", group_alphabet)
    res = involutive_basis(group_presentation(group_alphabet, o, "S3"),
                           InvolutiveDivision(8), o)
    assert res.status == "complete"
    assert tuple(res.stats[name] for name in (
        "prolongations", "reused", "inv_reductions", "basis_changes",
        "basis_size")) == (280, 202, 175, 19, 16)


def test_strong_overlap_with_a_constant(xy):
    # StrongLeftOverlap and its mirror withdraw a letter of every other
    # lead monomial; a constant's empty word has none to withdraw
    for key in (4, 9):
        division = InvolutiveDivision(key)
        assign_multiplicative(division, [(), (0,)], xy)
        for kind in ("deglex", "degrevlex"):
            o = MonomialOrdering(kind, xy)
            F = P(xy, o, "x*y - 1", "2")
            for mode in ("thin", "thick"):
                res = involutive_basis(F, division, o, mode=mode, logged=True)
                assert res.status == "complete"
                assert reduce_basis(res.basis, o) == [P(xy, o, "1")]
                for g, log in zip(res.basis, res.logs, strict=True):
                    assert log_expand(log, F) == g


def test_disjoint_cones_for_global_divisions(xy):
    # under Left/Right with an autoreduced basis, every word has at most
    # one involutive divisor
    o = MonomialOrdering("deglex", xy)
    F = P(xy, o, "2*x*y + y^2 + 5", "x^2 + y^2 + 8")
    for key in (1, 2):
        res = involutive_basis(F, InvolutiveDivision(key), o)
        assert res.status == "complete"
        lms = [p.lm() for p in res.basis]
        for d in range(7):
            for word in itertools.product(range(2), repeat=d):
                divisors = sum(
                    1 for u in lms
                    if involutively_divides(u, word, res.table, "thin"))
                assert divisors <= 1


def test_s3_rewrite_system(group_alphabet):
    o = MonomialOrdering("deglex", group_alphabet)
    A = group_alphabet
    F = P(A, o, "x^3 - 1", "y^2 - 1", "x*y*x*y - 1", "X*x - 1", "x*X - 1",
          "Y*y - 1", "y*Y - 1")
    res = involutive_basis(F, InvolutiveDivision(1), o)
    assert res.status == "complete"
    rules = ["y^2 - 1", "X*x - 1", "x*X - 1", "Y*y - 1", "y^2*x - x",
             "Y - y", "Y*x - y*x", "X*x*y - y", "Y*y*x - x", "x^2 - X",
             "X^2 - x", "x*y*x - y", "X*y - y*x", "X*y*x - x*y",
             "x^2*y - y*x", "y*X - x*y", "y*x*y - X", "Y*x*y - X",
             "Y*X - x*y"]
    assert monic_set(res.basis) == monic_set(P(A, o, *rules))
