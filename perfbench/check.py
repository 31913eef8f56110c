"""Independent output checker for the benchmark.

Polynomials here are plain ``dict[word, Fraction]`` with words as tuples
of generator indices (index 0 is the highest-priority generator).  The
reducer, the overlap enumeration, the reduced-basis construction and the
normal-word count below are written from the definitions and share no
code with ncpoly, so a fault in ncpoly's reduction cannot hide itself.
Nothing in this module is timed.
"""

from fractions import Fraction

# Normal-word enumeration gives up past these limits and reports an
# infinite count.
MAX_NORMAL_WORDS = 20_000
MAX_NORMAL_DEGREE = 40


class CheckError(AssertionError):
    """An output of the program failed an independent check."""


def ordering_key(kind):
    """Sort key for words: ascending key is ascending monomial order.

    Both orderings compare degree first.  deglex then decides at the
    leftmost differing letter, where the earlier generator is greater;
    degrevlex decides at the rightmost differing letter, where the later
    generator is greater.
    """
    if kind == "deglex":
        return lambda w: (len(w), tuple(-x for x in w))
    if kind == "degrevlex":
        return lambda w: (len(w), tuple(reversed(w)))
    raise ValueError(f"checker knows no ordering {kind!r}")


def as_dict(poly):
    """ncpoly Polynomial -> dict form (reads only the public term list)."""
    return {tuple(mon): Fraction(coeff) for coeff, mon in poly.terms}


def add_scaled(acc, p, scalar, left=(), right=()):
    """acc += scalar * left * p * right, in place."""
    for w, c in p.items():
        u = left + w + right
        v = acc.get(u, 0) + scalar * c
        if v:
            acc[u] = v
        else:
            acc.pop(u, None)
    return acc


class Reducer:
    """Full normal forms modulo a fixed list of polynomials."""

    def __init__(self, basis, key):
        self.key = key
        self.lead = {}
        for g in basis:
            if not g:
                raise CheckError("basis holds the zero polynomial")
            lm = max(g, key=key)
            self.lead.setdefault(lm, g)
        self.longest = max(map(len, self.lead), default=0)

    def divisor(self, w):
        """(left, lead word, g, right) for a lead word of the basis in w."""
        for i in range(len(w)):
            for j in range(i + 1, min(len(w), i + self.longest) + 1):
                g = self.lead.get(w[i:j])
                if g is not None:
                    return w[:i], w[i:j], g, w[j:]
        return None

    def normal_form(self, p):
        work = dict(p)
        rem = {}
        key = self.key
        while work:
            w = max(work, key=key)
            c = work[w]
            hit = self.divisor(w)
            if hit is None:
                rem[w] = work.pop(w)
                continue
            left, lm, g, right = hit
            add_scaled(work, g, -c / g[lm], left, right)
        return rem


def overlap_s_polynomials(basis, key):
    """Every S-polynomial of the basis, one per ambiguity of lead words:
    a proper suffix of one lead word equal to a prefix of another (the
    same element included), or one lead word inside another's."""
    leads = [(max(g, key=key), g) for g in basis]
    for a, (ua, ga) in enumerate(leads):
        ca = ga[ua]
        for b, (ub, gb) in enumerate(leads):
            cb = gb[ub]
            for k in range(1, min(len(ua), len(ub))):
                if ua[len(ua) - k:] == ub[:k]:
                    s = add_scaled({}, ga, 1 / ca, (), ub[k:])
                    yield add_scaled(s, gb, -1 / cb, ua[:len(ua) - k], ())
            if a != b and len(ub) <= len(ua):
                for i in range(len(ua) - len(ub) + 1):
                    if ua[i:i + len(ub)] == ub:
                        s = add_scaled({}, ga, 1 / ca)
                        yield add_scaled(s, gb, -1 / cb, ua[:i],
                                         ua[i + len(ub):])


def normal_words(basis, n_letters, key, max_degree=None):
    """The words with no lead word of the basis inside, ascending.

    With ``max_degree`` the list stops at that degree.  Without it the
    list is complete, or None when the words run past the enumeration
    limits (an infinite quotient)."""
    leads = {max(g, key=key) for g in basis}
    longest = max(map(len, leads), default=0)
    limit = MAX_NORMAL_DEGREE if max_degree is None else max_degree
    out, level = [()], [()]
    while level and len(level[0]) < limit:
        level = [u for u in (w + (x,) for w in level for x in range(n_letters))
                 if not any(u[len(u) - k:] in leads
                            for k in range(1, min(len(u), longest) + 1))]
        out.extend(level)
        if len(out) > MAX_NORMAL_WORDS:
            return None
    if level and max_degree is None:
        return None
    return sorted(out, key=key)


def reduced_basis(basis, key):
    """The unique reduced Gröbner basis of a Gröbner basis, as a frozenset
    of frozensets of (word, coefficient) items, each element monic."""
    leads = [(max(g, key=key), g) for g in basis]
    minimal = []
    for idx, (u, g) in enumerate(leads):
        redundant = False
        for jdx, (v, _) in enumerate(leads):
            if jdx == idx or len(v) > len(u):
                continue
            inside = any(u[i:i + len(v)] == v for i in range(len(u) - len(v) + 1))
            if inside and (v != u or jdx < idx):
                redundant = True
                break
        if not redundant:
            minimal.append((u, g))
    reducer = Reducer([g for _, g in minimal], key)
    out = set()
    for u, g in minimal:
        tail = {w: c / g[u] for w, c in g.items() if w != u}
        element = reducer.normal_form(tail)
        element[u] = Fraction(1)
        out.add(frozenset(element.items()))
    return frozenset(out)


def frozen(polys):
    """A list of dict polynomials as a frozenset, for comparisons."""
    return frozenset(frozenset(p.items()) for p in polys)


def check_groebner_basis(basis, generators, key, n_letters, order=None):
    """The three checks every computed basis gets.

    Every input generator reduces to zero, every S-polynomial of the
    basis reduces to zero, and the number of normal words is ``order``
    when it is given.  Returns the normal-word count.
    """
    reducer = Reducer(basis, key)
    for k, f in enumerate(generators):
        if reducer.normal_form(f):
            raise CheckError(f"input generator {k} does not reduce to zero")
    for s in overlap_s_polynomials(basis, key):
        if reducer.normal_form(s):
            raise CheckError("an S-polynomial does not reduce to zero")
    words = normal_words(basis, n_letters, key)
    count = None if words is None else len(words)
    if order is not None and count != order:
        raise CheckError(f"{count} normal words, expected {order}")
    return count


def format_term(coeff, word, names):
    """One term ``c*w`` in the CLI grammar, the way a remainder prints."""
    runs = []
    for x in word:
        if runs and runs[-1][0] == x:
            runs[-1][1] += 1
        else:
            runs.append([x, 1])
    body = "*".join(names[x] if k == 1 else f"{names[x]}^{k}" for x, k in runs)
    mag = abs(coeff)
    if not body:
        text = str(mag)
    elif mag == 1:
        text = body
    else:
        text = f"{mag}*{body}"
    return ("-" if coeff < 0 else "") + text


def format_poly(p, names, key):
    """A dict polynomial in the CLI grammar, terms descending."""
    pieces = []
    for w in sorted(p, key=key, reverse=True):
        term = format_term(p[w], w, names)
        if pieces:
            term = ("- " + term[1:]) if term.startswith("-") else "+ " + term
        pieces.append(term)
    return " ".join(pieces) if pieces else "0"
