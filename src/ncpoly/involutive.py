"""Noncommutative involutive divisions and the Involutive Basis algorithm.

Twelve divisions are supported, keyed 1-12:

     1  Left                      8  RightOverlap
     2  Right                     9  StrongRightOverlap
     3  LeftOverlap              10  TwoSidedRightOverlap
     4  StrongLeftOverlap        11  SuffixOnlyRightOverlap
     5  TwoSidedLeftOverlap      12  SubwordFreeLeftOverlap's mirror
     6  PrefixOnlyLeftOverlap        (SubwordFreeRightOverlap)
     7  SubwordFreeLeftOverlap

Left and Right are global (the multiplicative sets do not depend on the
basis); the rest are local.  Every table is made one way: lead
monomials go in through a count step, rows come out of a derive step.
Under LeftOverlap, PrefixOnlyLeftOverlap, SubwordFreeLeftOverlap and
their mirrors a row is the full letter set minus the letters that pairs
of lead monomials discard, so when the basis changes only the pairs
with the changed element are counted again; StrongLeftOverlap keeps
LeftOverlap's counts and cuts each row's cone again, and only
TwoSidedLeftOverlap works its rows out whole.  Each rule reads a pair's
placements from ``spoly._shifts``, the overlap search of Mora's
S-polynomials, on the encoded words; a right-handed kind runs its
left-handed mirror's rules on reversed words, with its sides swapped.

Completion autoreduces and restarts after every basis change.
``_edit``, the one function that changes a row, stamps the row it makes
and every row whose letter sets it changes from one clock, and a fact
recorded at a clock value is checked again only against the rows
stamped since: an element found irreducible is divided again only when
one of its terms has a divisor among them, and the sorted prolongations
are kept across restarts, sorted by one ``str`` key per prolongation
word (``MonomialOrdering.key``), each with its zero-reduction
certificate on its queue entry.  While no element has left the basis
and no row up to a certificate's largest divisor index has been
stamped since it last held, it holds by one integer test; a restart
that only appended a remainder adds that element's prolongations and
leaves the rest as they are.  Each completion keeps one prepared
divisor set of its basis (``algebra._Divisors``: the elements, their
encoded lead words and their integer forms, each built once), built
by appending and edited wherever ``_edit`` edits the table;
``autoreduce`` hands it over on the table to the next ``autoreduce``
call of the same completion, and drops the stamped rows whose lead
word occurs in none of an element's terms (``algebra._terms_text``)
before it searches them, then searches the term words that text holds
(``algebra._text_words``).  The table ``involutive_basis`` returns
carries no set.  Prolongations are built straight from the element's
terms, without ``Fraction`` products, and a reduction whose log no
representation reads is unlogged: per step it keeps the divisor
index, the encoded word and the offset.  A zero-reduction certificate
keeps one ``str`` of its steps' words, end to end, and one flat list
of divisor objects, offsets and word ends; a table keeps one
``frozenset`` per distinct letter set, shared by its rows.

Involutive reduction is conventional reduction whose cofactors the
multiplicative table must admit: ``inv_divide`` runs the division loop
of ``groebner`` with this module's lookup, ``first_divisor``, the one
search of the table's rows: one loop over the ``str.find`` occurrences
(in C) of each row's lead word, kept encoded on the table, in the
encoded word, handed only the rows whose word occurs there.
Divisibility comes in two flavours: thin divisors test only the
cofactor letters adjacent to the divisor (the last letter of the left
cofactor and the first of the right), thick divisors test every
cofactor letter.  Thin is the default.  Thick-divisor runs can leave
words conventionally reducible yet involutively irreducible; see the
degree-cap tests for a witness.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right, insort
from fractions import Fraction
from itertools import accumulate, compress, count

from .algebra import (Polynomial, Term, _Divisors, _seed, _terms_text,
                      _text_words)
from .groebner import (DEFAULT_MAX_DEGREE, DEFAULT_MAX_ITERATIONS, BasisResult,
                       _basis_in, log_conjugate, log_identity, log_reduced,
                       reduce_by)
from .orderings import _degrevlex_key
from .spoly import _shifts

DIVISION_NAMES = {
    1: "Left",
    2: "Right",
    3: "LeftOverlap",
    4: "StrongLeftOverlap",
    5: "TwoSidedLeftOverlap",
    6: "PrefixOnlyLeftOverlap",
    7: "SubwordFreeLeftOverlap",
    8: "RightOverlap",
    9: "StrongRightOverlap",
    10: "TwoSidedRightOverlap",
    11: "SuffixOnlyRightOverlap",
    12: "SubwordFreeRightOverlap",
}

# right-handed local kinds and the left-handed kind they mirror
_MIRROR = {2: 1, 8: 3, 9: 4, 10: 5, 11: 6, 12: 7}

_clock = count()    # the source of every row stamp (see _edit)
_word_key = operator.itemgetter(0)     # of a queue entry (see involutive_basis)


class InvolutiveDivision:
    __slots__ = ("key",)

    def __init__(self, key):
        try:
            index = operator.index(key)
        except TypeError:
            index = None
        if index not in DIVISION_NAMES:
            raise ValueError(
                f"division key must be an integer 1..12, got {key!r}")
        self.key = index

    @property
    def name(self):
        return DIVISION_NAMES[self.key]

    @property
    def is_global(self):
        return self.key in (1, 2)

    @property
    def left_handed(self):
        return self.key not in _MIRROR

    def __eq__(self, other):
        return isinstance(other, InvolutiveDivision) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"InvolutiveDivision({self.key}: {self.name})"


class MultiplicativeTable:
    """Per basis element: the left- and right-multiplicative generator sets.

    Rows are aligned with the lead-monomial list the table was built
    from.  ``sets_for`` looks a row up by word (first match)."""

    __slots__ = ("division", "alphabet", "lms", "left", "right", "_encoded",
                 "_counts", "_stamps", "_reduced", "_sets")

    def __init__(self, division, alphabet, lms, left, right):
        self.division = division
        self.alphabet = alphabet
        self.lms = list(lms)
        # each distinct letter set once, for all rows (see _shared)
        self._sets = {}
        self.left = list(map(self._shared, left))
        self.right = list(map(self._shared, right))
        # aligned with lms: each word encoded by the alphabet's codec
        self._encoded = list(map(alphabet._codec[0], self.lms))
        # per row and letter, the number of pairs of lead monomials that
        # discard the letter (see _count_pairs), kept under every local
        # division but 5 and 10 (under 4 and 9, the counts of 3 and 8)
        self._counts = None
        # per row, the clock when it was made or its sets last changed: a
        # new table is newer than anything recorded before it
        self._stamps = [next(_clock)] * len(self.lms)
        # (thick, divisor set, texts) while this is the table autoreduce
        # returned for the set's elements in that mode, and no later call
        # has taken it over
        self._reduced = None

    def __eq__(self, other):
        return (isinstance(other, MultiplicativeTable)
                and self.division == other.division
                and self.alphabet == other.alphabet and self.lms == other.lms
                and self.left == other.left and self.right == other.right)

    __hash__ = None     # mutable lists

    def _shared(self, letters):
        """The table's one frozenset of ``letters``: equal rows share it."""
        letters = frozenset(letters)
        return self._sets.setdefault(letters, letters)

    def row(self, idx):
        return self.left[idx], self.right[idx]

    def sets_for(self, word):
        word = tuple(word)
        for idx, lm in enumerate(self.lms):
            if lm == word:
                return self.left[idx], self.right[idx]
        raise KeyError(f"word {word} is not a lead monomial of this table")

    def nonmult_left(self, idx):
        return frozenset(range(len(self.alphabet))) - self.left[idx]

    def nonmult_right(self, idx):
        return frozenset(range(len(self.alphabet))) - self.right[idx]

    def named(self):
        """{word: (left names, right names)} with human-readable sets."""
        name = self.alphabet.name
        return {
            lm: (frozenset(name(g) for g in self.left[idx]),
                 frozenset(name(g) for g in self.right[idx]))
            for idx, lm in enumerate(self.lms)
        }


def assign_multiplicative(division, lms, alphabet):
    """Build the multiplicative table for the given lead monomials.

    ``division`` is an ``InvolutiveDivision`` or its key.  The table is
    made the way ``_edit`` keeps it as the basis changes: each lead
    monomial goes in through the count step, then every row is derived
    once.  Local divisions sort the monomials descending by DegRevLex
    where order matters, so the result is invariant under permutation of
    the input; rows come back aligned with the input order, all with one
    stamp.
    """
    if not isinstance(division, InvolutiveDivision):
        division = InvolutiveDivision(division)
    table = MultiplicativeTable(division, alphabet, (), (), ())
    if division.key not in (1, 2, 5, 10):
        table._counts = []
    stamp = next(_clock)
    view = _as_left(table)
    for lm in lms:
        _count(table, view, len(table.lms), tuple(lm), stamp)
    _derive(table, view, range(len(table.lms)), stamp)
    return table


def _edit(table, i, lm=None):
    """Make row i of ``table`` the row of lead monomial ``lm``, in place:
    append it when i is the table's length, else replace row i, or delete
    row i when ``lm`` is None.  ``table`` is one ``assign_multiplicative``
    built.  The count step counts again only the pairs with row i, and
    the derive step remakes the rows that can change.  The row made and
    every other row whose letter sets change get one fresh stamp from
    ``_clock``; a replacement by the word row i already holds changes no
    row, so it only stamps row i."""
    stamp = next(_clock)
    if lm is not None and i < len(table.lms) and table.lms[i] == lm:
        table._stamps[i] = stamp
        return
    view = _as_left(table)
    _derive(table, view, _count(table, view, i, lm, stamp), stamp)


def _count(table, view, i, lm, stamp):
    """The count step of an edit (see ``_edit``): slice into the table,
    and into the words of its left-handed ``view`` (``_as_left``), row i
    of ``lm``, every letter on both sides and stamped ``stamp``, and
    count its pairs again where the table keeps counts.  Returns the
    rows, with repeats, whose sets the counts may change."""
    n = len(table.alphabet)
    new = [] if lm is None else [lm]
    counts = table._counts
    key, words = view[:2]
    changed = (_count_pairs(counts, key, words, i, -1)
               if counts is not None and i < len(table.lms) else [])
    table.lms[i:i + 1] = new
    encoded = list(map(table.alphabet._codec[0], new))
    table._encoded[i:i + 1] = encoded
    if words is not None and words is not table._encoded:
        words[i:i + 1] = [t[::-1] for t in encoded]
    table._stamps[i:i + 1] = [stamp] * len(new)
    table.left[i:i + 1] = table.right[i:i + 1] = \
        [table._shared(range(n))] * len(new)
    if counts is None:
        return [i] * len(new)
    counts[i:i + 1] = [[0] * n for _ in new]
    if lm is None:
        return [j - (j > i) for j in changed if j != i]
    return changed + _count_pairs(counts, key, words, i, 1) + [i]


def _derive(table, view, changed, stamp):
    """The derive step of an edit (see ``_edit``): remake the rows in
    ``changed`` under 1, 2, 3, 6, 7 and their mirrors, and every row
    under 4, 5 and theirs, from the table's left-handed ``view``
    (``_as_left``); give ``stamp`` to each row whose sets change."""
    key, words, left, right = view

    def put(rows, j, row):
        if row != rows[j]:
            table._stamps[j] = stamp
            rows[j] = table._shared(row)

    if key == 1:
        for j in changed:
            put(right, j, frozenset())
    elif key == 5:
        lefts, rights = _two_sided_rows(words, len(table.alphabet))
        for j in range(len(words)):
            put(left, j, lefts[j])
            put(right, j, rights[j])
    else:
        if key == 4:
            changed = range(len(words))
            ascending = sorted([w for w in words if w], key=_degrevlex_key)
        for j in set(changed):
            row = frozenset(x for x, c in enumerate(table._counts[j]) if not c)
            put(right, j, row if key != 4 else _cone(row, ascending))


def _as_left(table):
    """``table`` as its left-handed division works it out: that key, the
    encoded words and the (left, right) row lists; for a right-handed
    division, the words reversed and the sides swapped, here only.  An
    edit takes this view once and keeps its words in step with the
    table's (``_count``).  Right's rules read no words, so under Right
    the words are None and nothing is reversed."""
    key = table.division.key
    if key not in _MIRROR:
        return key, table._encoded, table.left, table.right
    words = None if key == 2 else [t[::-1] for t in table._encoded]
    return _MIRROR[key], words, table.right, table.left


def _placements(ua, ub, same):
    """The shifts s of the placements of ub at offset s of ua that overlap
    (``spoly._shifts``); every shift when a word is empty."""
    return (_shifts(ua, ub, same) if ua and ub
            else range(-len(ub), len(ua) + 1))


def _count_pairs(counts, key, words, i, step):
    """Add ``step`` to the ``counts`` of each letter that a pair of row i
    with a row (itself included) discards, the rows' encoded ``words``
    read under the left-handed division ``key``; return the rows whose
    letter set that changes, with repeats."""
    flipped = 1 if step > 0 else 0      # the count at which a letter flips
    changed = []

    def bump(j, letters):
        c = counts[j]
        for x in letters:
            c[x] += step
            if c[x] == flipped:
                changed.append(j)

    ui = words[i]
    for j, uj in enumerate(words):
        da, db = _discards(key, ui, uj, i == j)
        bump(i, da)
        bump(j, db)
    return changed


def _discards(key, ua, ub, same):
    """The letters that the encoded words ua and ub (``same`` for an
    element's overlaps with itself) discard from the right sets of ua and
    of ub under LeftOverlap (3, whose counts StrongLeftOverlap, 4, keeps),
    PrefixOnlyLeftOverlap (6) or SubwordFreeLeftOverlap (7), with repeats:
    at each placement, the word that ends first loses the letter after it
    in the other, unless it lies inside the other and the division does
    not count that subword (3 and 4 count each, 6 a prefix, 7 none)."""
    alpha, beta = len(ua), len(ub)
    da, db = [], []
    for s in _placements(ua, ub, same):
        counted = key in (3, 4) or key == 6 and not s
        end = s + beta
        if end < alpha and (s < 0 or counted):
            db.append(ord(ua[end]))
        elif end > alpha and (s > 0 or counted):
            da.append(ord(ub[alpha - s]))
    return da, db


def _cone(row, ascending):
    """StrongLeftOverlap's right set from LeftOverlap's ``row``: withdraw
    the first letter of each encoded word in ``ascending`` (the nonempty
    ones, by ascending DegRevLex) all of whose letters it still holds."""
    for w in ascending:
        if row.issuperset(map(ord, w)):
            row = row - {ord(w[0])}
    return row


def _two_sided_rows(words, n):
    """TwoSidedLeftOverlap's (left, right) rows, aligned with the encoded
    ``words``: the pairs (ua, ub) are taken descending by DegRevLex
    (stable), and read the sets as earlier pairs left them.  Where ub
    ends first, it loses the letter after it from its right set if ua's
    left set holds the letter of ub before ua (ub inside ua: always);
    else it loses the letter before it from its left set if ua's right
    set holds the letter of ub after ua (a suffix: always).  A self pair
    is taken at -s only: at s, the same overlap with the roles swapped,
    the left-set rule would find its letter gone from the right set or
    its own letter gone already, once the right-set rule at -s has run."""
    order = sorted(range(len(words)), key=lambda t: _degrevlex_key(words[t]),
                   reverse=True)
    left = [set(range(n)) for _ in words]
    right = [set(range(n)) for _ in words]
    for t, a in enumerate(order):
        ua, la, ra = words[a], left[a], right[a]
        alpha = len(ua)
        for b in order[t:]:
            ub, lb, rb = words[b], left[b], right[b]
            beta = len(ub)
            shifts = _placements(ua, ub, a == b)
            if a == b:
                shifts = [-s for s in shifts]
            for s in shifts:
                end = s + beta
                if end < alpha:
                    if s >= 0 or ord(ub[-s - 1]) in la:
                        rb.discard(ord(ua[end]))
                elif s and (end == alpha or ord(ub[alpha - s]) in ra):
                    lb.discard(ord(ua[s - 1]))
    return left, right


# ---------------------------------------------------------------------------
# Involutive divisibility and reduction
# ---------------------------------------------------------------------------

def _thick(mode):
    """Whether ``mode`` asks for thick divisors; only 'thin' and 'thick'
    are modes."""
    if mode not in ("thin", "thick"):
        raise ValueError(f"mode must be 'thin' or 'thick', got {mode!r}")
    return mode == "thick"


def first_divisor(text, words, lefts, rights, thick, active=None):
    """The first involutive divisor of a word u, as (j, s), or None.

    u and row j's word v are ``text`` and ``words[j]``, encoded by the
    alphabet's codec (``algebra._codec``).  j is the first row (in
    ``active`` order, default every row) with an occurrence
    u = u3 * v * u4, found by ``str.find``, that its letter sets admit,
    and s = len(u3) the first such.  lefts[j] and rights[j] hold the
    letters u3 and u4 may carry: thin divisors test only the letters
    next to v, thick ones every cofactor letter.  Conventional division
    has its own search, ``_Divisors``.
    """
    n = len(text)
    for j in range(len(words)) if active is None else active:
        v, left, right = words[j], lefts[j], rights[j]
        s = text.find(v)
        while s >= 0:
            e = s + len(v)
            if ((left.issuperset(map(ord, text[:s]))
                 and right.issuperset(map(ord, text[e:]))) if thick
                    else ((not s or ord(text[s - 1]) in left)
                          and (e == n or ord(text[e]) in right))):
                return j, s
            s = text.find(v, s + 1)
    return None


def involutively_divides(u2, u1, table, mode="thin"):
    """The admitted placement u1 = u3 * u2 * u4 with minimal-degree u3,
    or None.  ``mode`` selects thin or thick divisors."""
    u2, u1 = tuple(u2), tuple(u1)
    left, right = table.sets_for(u2)
    encode = table.alphabet._codec[0]
    hit = first_divisor(encode(u1), [encode(u2)], [left], [right],
                        _thick(mode))
    if hit is None:
        return None
    s = hit[1]
    return u1[:s], u1[s + len(u2):]


def inv_divide(p, P, table, mode="thin", active=None, logged=True):
    """Involutive remainder of p modulo P, with its log over P.

    Conventional division under p's ordering, whose cofactors the
    multiplicative table must admit: a term is divided by the first
    element of P (in ``active`` order, default all of P) that
    involutively divides it, at the admitted placement with the shortest
    left cofactor.  P is a list of nonzero polynomials or a prepared
    divisor set (``algebra._Divisors``), as for ``divide``: a list is
    prepared on every call, and ``reduce_by`` reads the set with
    ``first_divisor`` as the lookup, on the encoded word the kernel
    pops: only the rows (in ``active`` order) whose word, as the table
    keeps it encoded, occurs in that text are searched.  The table must
    describe all of P, row j for P's element j: a table with another
    number of rows, or a divisor found whose lead monomial is not its
    row's word, raises ``ValueError``.  The log has one entry per
    reduction step, as ``divide`` gives it: a triple, or with
    ``logged=False`` (j, encoded word, offset)."""
    P = _Divisors.of(P, p.ordering)
    lms, lefts, rights, thick = table.lms, table.left, table.right, _thick(mode)
    encoded, polys = table._encoded, P.polys
    if len(lms) != len(polys):
        raise ValueError(f"the table has {len(lms)} rows for {len(polys)} divisors")

    if active is None:
        active, words = range(len(lms)), encoded
    else:
        words = [encoded[j] for j in active]

    def find(text):
        hit = first_divisor(text, encoded, lefts, rights, thick,
                            compress(active, map(text.__contains__, words)))
        if hit is not None and polys[hit[0]].terms[0].mon != lms[hit[0]]:
            raise ValueError(f"divisor {hit[0]} does not lead with its "
                             "table row's word")
        return hit

    return reduce_by(_seed(p), P, find, logged)


# ---------------------------------------------------------------------------
# Autoreduction
# ---------------------------------------------------------------------------

def autoreduce(P, division, ordering, mode="thin", logs=None, table=None):
    """Repeatedly replace the first p_i that is involutively reducible by
    the rest, until stable.  The table always describes the full current
    set; the divisors are the set without p_i.  Zero reductions drop the
    element.  Returns a ``BasisResult`` whose ``table`` is the
    multiplicative table of the result, whose ``logs`` are None unless
    provided, and then aligned with P, and whose
    ``stats["inv_reductions"]`` counts the reduction steps.

    The current set is kept as one prepared divisor set
    (``algebra._Divisors``), edited wherever ``_edit`` edits the table,
    next to one text per element: its term words, encoded and joined
    (``algebra._terms_text``); each element is appended to all three in
    turn.  Each element keeps the clock value at which it was last known
    to be irreducible by the others, and is checked again only against
    the rows ``_edit`` has stamped since, and of those only against the
    rows whose encoded lead word occurs in its text; an element with no
    such row is not checked at all.  ``first_divisor`` confirms every
    hit, and elements are taken in ascending index, so the filter
    changes no result.

    ``table`` is for a basis that grew by one element: the table this
    function returned, under the same division and mode, for a basis
    whose element objects P[:-1] (zero polynomials dropped) are, in
    order.  Such a table is taken over with the divisor set and texts
    it carries: the last element is appended to them in place, and the
    elements of P[:-1] count as irreducible as of its stamps.  Any other
    table is ignored, the table of an ``involutive_basis`` result among
    them: it carries no divisor set, so only this function's own results
    feed the handover.  Either way the result is the same as without
    ``table``."""
    if not isinstance(division, InvolutiveDivision):
        division = InvolutiveDivision(division)
    thick = _thick(mode)    # rejects an unknown mode even when nothing is divided
    basis, logs = _basis_in(P, ordering, logs)
    # checked[i]: a clock value when no term of basis[i] was divisible by
    # another element.  A row stamped no later than that is the row it was
    # then, and a deleted row divides nothing, so only the rows stamped
    # since can divide it now.
    reduced = None if table is None else table._reduced
    if (reduced is not None and table.division == division
            and reduced[0] == thick and len(reduced[1].polys) == len(basis) - 1
            and all(p is q for p, q in zip(reduced[1].polys, basis))):
        table._reduced = None
        _, divisors, texts = reduced
        checked = [next(_clock)] * len(table.lms)
    else:
        table = assign_multiplicative(division, (), ordering.alphabet)
        divisors, texts, checked = _Divisors((), ordering), [], []
    for p in basis[len(checked):]:
        _edit(table, len(checked), p.lm())
        divisors.add(p)
        texts.append(_terms_text(p))
        checked.append(-1)
    basis, words = divisors.polys, divisors.words
    reductions = 0
    while True:
        now = next(_clock)
        newer = {}      # checked value -> the rows stamped after it
        for i in range(len(basis)):
            since = checked[i]
            if since not in newer:
                newer[since] = [j for j, stamp in enumerate(table._stamps)
                                if stamp > since]
            text = texts[i]
            rows = [j for j in newer[since] if j != i and words[j] in text]
            if not rows or all(
                    first_divisor(u, table._encoded, table.left, table.right,
                                  thick, rows) is None
                    for u in _text_words(text, ordering.alphabet)):
                checked[i] = now
                continue
            rem, dlog = inv_divide(basis[i], divisors, table, mode,
                                   [j for j in range(len(basis)) if j != i],
                                   logs is not None)
            reductions += len(dlog)
            if rem.is_zero():
                divisors.remove(i)
                del texts[i], checked[i]
                _edit(table, i)
                if logs is not None:
                    del logs[i]
            else:
                # fully reduced by the rows as they stand at now; _edit
                # stamps every row it changes later
                divisors.add(rem, i)
                texts[i], checked[i] = _terms_text(rem), now
                _edit(table, i, rem.lm())
                if logs is not None:
                    logs[i] = log_reduced(logs[i], dlog, logs)
            break
        else:
            table._reduced = (thick, divisors, texts)
            return BasisResult(list(basis), stats={"inv_reductions": reductions},
                               logs=logs, table=table)


# ---------------------------------------------------------------------------
# The Involutive Basis algorithm
# ---------------------------------------------------------------------------

def _certificate(P, table, dlog):
    """The zero-reduction certificate of a nonempty reduction log over
    P, logged or not (see ``reduce_by``), as (words, steps), and the
    largest divisor index.  ``words`` is one str, the words the steps
    reduced, encoded, end to end; ``steps`` is one flat list holding,
    per step, the divisor object, its left cofactor's length and the
    end of the step's word in ``words``.  An unlogged step holds its
    word and offset already.  A list, not a tuple: CPython keeps dead
    tuples of under 20 items on its free lists, so a tuple per
    certificate would stay allocated after the run."""
    if isinstance(dlog[0][0], Term):
        encode = table.alphabet._codec[0]
        dlog = [(j, encode(l.mon + table.lms[j] + r.mon), len(l.mon))
                for l, j, r in dlog]
    steps, end, top = [], 0, 0
    for j, word, s in dlog:
        end += len(word)
        steps.append(P[j])
        steps.append(s)
        steps.append(end)
        if j > top:
            top = j
    # an exact-size copy: a list that grew by appends holds spare room
    return "".join([word for _, word, _ in dlog]), steps[:], top


def _certificate_holds(words, steps, made, where, stamps, newest, table,
                       thick):
    """The largest index of the certificate's divisors if ``inv_divide``
    would make every choice the certificate (words, steps) records (see
    ``_certificate``) again, else None: at each recorded word, the same
    divisor object at the same placement.  Reduction is deterministic,
    so it would then reach zero again through the same arithmetic.

    The choices were last known to be made at clock value ``made``.
    ``where`` maps each element of the basis (by ``id``) to its index;
    ``stamps[k]`` is the stamp of row k (``table._stamps``), and
    ``newest[k]`` the largest of stamps[0..k].  An element whose stamp is
    no newer than ``made`` had the same row and came before the same
    elements then, so it chooses as it chose then: a step scans the
    newer rows up to its divisor's once, and must first hit the divisor
    at the recorded placement if its row is newer, and nothing if not.
    A step's word is sliced from ``words`` only when it is scanned."""
    encoded, lefts, rights = table._encoded, table.left, table.right
    start = top = 0
    for i in range(0, len(steps), 3):
        k = where.get(id(steps[i]))
        if k is None:
            return None
        end = steps[i + 2]
        if newest[k] > made:
            want = (k, steps[i + 1]) if stamps[k] > made else None
            if first_divisor(words[start:end], encoded, lefts, rights, thick,
                             [j for j in range(k + 1) if stamps[j] > made]
                             ) != want:
                return None
        if k > top:
            top = k
        start = end
    return top


def involutive_basis(F, division, ordering, mode="thin",
                     max_degree=DEFAULT_MAX_DEGREE,
                     max_iterations=DEFAULT_MAX_ITERATIONS, logged=False):
    """Compute a Locally Involutive Basis (in the case of termination).

    Autoreduce; then repeatedly reduce the prolongation with minimal lead
    monomial (ties: element index, then left before right).  A nonzero
    remainder joins the basis, which is autoreduced again, and the scan
    of the prolongations restarts; the run completes when every
    prolongation reduces to zero.  All twelve divisions are continuous
    and Gröbner, so a complete result is an Involutive Basis and a
    Gröbner Basis.

    The sorted prolongations are kept across restarts: only those of the
    rows ``_edit`` stamped since the last restart are built and inserted,
    and those of the elements that left or were stamped are dropped.  A
    restart that only appended a remainder, whose edit stamped no other
    row, inserts that element's prolongations and drops none.

    The queue sorts its entries by an ascending ``str`` key of the
    prolongation word (``MonomialOrdering.key``), then by element index,
    side and letter.  A prolongation that reduced to zero leaves a
    certificate on its queue entry (see ``_certificate``): the divisor
    and placement chosen at each step, as one ``str`` of the step words
    and one flat list of divisors, offsets and word ends, its largest
    divisor index and the clock when it was last known to hold.  While its
    element is still in the basis and every recorded choice is still the
    one ``inv_divide`` would make, the prolongation is known to reduce to
    zero again and is not rebuilt.  If no element has left the basis
    since the certificate held, its divisors have the indices recorded,
    so when no row up to the largest is newer it holds without a replay;
    otherwise a choice is checked again only against the elements
    stamped since.  The entries with certificates of an element whose
    row is stamped leave the queue and park until the element's entries
    are rebuilt: one for the same side and letter goes back in, even at
    a later restart; an element that leaves the basis drops its
    certificates.
    Stats: ``prolongations`` counts prolongations examined, reused or
    reduced (``max_iterations`` caps this count); ``reused`` counts those
    settled by a certificate; ``inv_reductions`` counts the reduction
    steps actually performed; ``basis_changes`` counts remainders added
    to the basis.  The result's table carries no prepared divisor set
    (see ``autoreduce``)."""
    basis, logs = _basis_in(F, ordering, [log_identity(k) for k in range(len(F))]
                            if logged else None)
    thick = _thick(mode)
    if not isinstance(division, InvolutiveDivision):
        division = InvolutiveDivision(division)
    if not basis:
        raise ValueError("input basis has no nonzero polynomials")
    stats = {"prolongations": 0, "reused": 0, "inv_reductions": 0,
             "basis_changes": 0}
    status = "complete"
    parked = {}         # (element, side, letter) -> entry off the queue
    table = None
    since = -1          # the clock at the last restart
    left_at = -1        # since, as it stood when an element last left
    where = {}          # id(element) -> its index in the basis
    # [word key (ordering.key), side, letter, element, then its
    # certificate: words and steps (see _certificate), largest divisor
    # index, clock confirmed], ascending by rank; words is None until the
    # prolongation reduces to zero
    queue = []

    def rank(entry):
        # survivors keep their order, so the queue stays sorted by this
        return entry[0], where[id(entry[3])], entry[1], entry[2]

    def insert(entry):
        # ranks are unique and sort by word key first: rank only within
        # the run of entries whose word key is entry's
        k = entry[0]
        lo = bisect_left(queue, k, key=_word_key)
        insort(queue, entry, lo, bisect_right(queue, k, lo, key=_word_key),
               key=rank)

    while True:
        previous = basis
        # after a basis change, table describes all but the appended
        # remainder, so autoreduce need only check what that touches
        result = autoreduce(basis, division, ordering, mode, logs, table)
        basis, logs, table = result.basis, result.logs, result.table
        divisors = table._reduced[1]    # basis, prepared; autoreduce keeps it
        stats["inv_reductions"] += result.stats["inv_reductions"]
        stamps = table._stamps
        newest = list(accumulate(stamps, max))
        last = len(basis) - 1
        grew = len(where) == last and all(map(operator.is_, basis, previous))
        if grew:
            where[id(basis[last])] = last
        else:
            left_at = since
            where = {id(p): idx for idx, p in enumerate(basis)}
            parked = {k: e for k, e in parked.items() if id(k[0]) in where}
        if grew and not (last and newest[last - 1] > since):
            fresh = (last,)     # only appended: no entry leaves the queue
        else:
            # the entries of elements that left go; those of stamped rows
            # with a certificate park for the entries rebuilt below
            fresh = [idx for idx in range(last + 1) if stamps[idx] > since]
            survivors = []
            for entry in queue:
                idx = where.get(id(entry[3]))
                if idx is not None and stamps[idx] <= since:
                    survivors.append(entry)
                elif idx is not None and entry[4] is not None:
                    parked[entry[3], entry[1], entry[2]] = entry
            queue = survivors
        for idx in fresh:
            g = basis[idx]
            lm = g.lm()
            for x in table.nonmult_left(idx):
                insert(parked.pop((g, 0, x), None) or [
                    ordering.key((x,) + lm), 0, x, g, None, None, None,
                    None])
            for x in table.nonmult_right(idx):
                insert(parked.pop((g, 1, x), None) or [
                    ordering.key(lm + (x,)), 1, x, g, None, None, None,
                    None])
        since = next(_clock)
        for entry in queue:
            if stats["prolongations"] >= max_iterations:
                status = "iteration_cap_hit"
                break
            stats["prolongations"] += 1
            _, side, x, g, words, steps, top, made = entry
            if words is not None:
                # no element has left since made, so the recorded indices
                # stand, and no row up to top is newer: the choices stand
                if left_at < made and newest[top] <= made:
                    entry[7] = since
                    stats["reused"] += 1
                    continue
                top = _certificate_holds(words, steps, made, where, stamps,
                                         newest, table, thick)
                if top is not None:
                    entry[6] = top
                    entry[7] = since
                    stats["reused"] += 1
                    continue
            # x*g or g*x: the ordering is admissible, so the terms stay
            # descending
            w = (x,)
            terms = tuple([Term(c, w + mon) for c, mon in g.terms] if side == 0
                          else [Term(c, mon + w) for c, mon in g.terms])
            s = Polynomial(terms, g.alphabet, g.ordering, _trusted=True)
            rem, dlog = inv_divide(s, divisors, table, mode, logged=logged)
            stats["inv_reductions"] += len(dlog)
            if rem.is_zero():
                entry[4:7] = _certificate(basis, table, dlog)
                entry[7] = since
                continue
            if len(rem.lm()) > max_degree:
                status = "degree_cap_hit"
                break
            if logged:
                letter, unit = Term(Fraction(1), (x,)), Term(Fraction(1), ())
                lterm, rterm = (letter, unit) if side == 0 else (unit, letter)
                logs.append(log_reduced(
                    log_conjugate(lterm, logs[where[id(g)]], rterm), dlog, logs))
            basis.append(rem)
            stats["basis_changes"] += 1
            break
        else:
            break  # every prolongation reduced to zero
        if status != "complete":
            break

    # the table autoreduce returned last describes the final basis: every
    # exit above leaves the basis as that table found it.  Its divisor set
    # goes: only autoreduce's own results feed the handover.
    table._reduced = None
    stats["basis_size"] = len(basis)
    return BasisResult(basis, status, stats, logs, table)
