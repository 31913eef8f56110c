"""End-to-end acceptance fixtures, one test (and one report line) each.

Each test re-runs a complete worked computation and compares exact
rational output; timing limits are generous desk-scale bounds.  Counter
statistics (prolongations, reduction steps) are convention-dependent and
are reported, not asserted.
"""

import itertools
import time

from ncpoly import (InvolutiveDivision, MonomialOrdering, Polynomial, Term,
                    WalkJob, assign_multiplicative, autoreduce, groebner_walk,
                    inv_divide, involutive_basis, involutively_divides,
                    involutive_walk, log_expand, mora, poly_combine,
                    reduce_basis)

from conftest import (P, admissibility_counterexample, all_spolys_reduce_to_zero,
                      brute_force_placement, monic_set, random_poly,
                      seeded_rng, w)


class timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.limit, (
                f"took {self.elapsed:.2f}s, limit {self.limit}s")


def test_01_mora_reduced_groebner_basis(xyz):
    o = MonomialOrdering("deglex", xyz)
    F = P(xyz, o, "x*y - z", "y*z + 2*x + z", "y*z + x")
    with timer(1.0):
        result = mora(F, o)
        reduced = reduce_basis(result.basis, o)
    assert result.status == "complete"
    assert set(reduced) == set(P(xyz, o, "y*z - z", "x + z", "z*y + z", "z^2"))


def test_02_left_division_involutive_basis(xy):
    o = MonomialOrdering("deglex", xy)
    F = P(xy, o, "2*x*y + y^2 + 5", "x^2 + y^2 + 8")
    with timer(1.0):
        result = involutive_basis(F, InvolutiveDivision(1), o)
    assert result.status == "complete"
    assert monic_set(result.basis) == monic_set(P(
        xy, o, "x*y + 1/2*y^2 + 5/2", "x^2 + y^2 + 8",
        "y^3 - 2*x + 37/5*y", "x*y^2 + x - 6/5*y", "y*x + 1/2*y^2 + 5/2"))


def test_03_strong_left_overlap_thick_and_reducibility_gap(xy):
    o = MonomialOrdering("deglex", xy)
    F = P(xy, o, "x^2*y^2 - 2*x*y^2 + x^2", "x^2*y - 2*x*y")
    with timer(1.0):
        result = involutive_basis(F, InvolutiveDivision(4), o, mode="thick")
    assert result.status == "complete"
    lms = {g.lm() for g in result.basis}
    assert lms == {w(xy, m) for m in ("xx", "xy", "xyy", "xyx", "xyyx")}
    assert len(result.basis) == 5
    # the documented gap: xy^3x is conventionally reducible by the
    # reduced Gröbner Basis {x^2, xy} yet involutively irreducible here
    gap = w(xy, "xyyyx")
    reduced_gb = reduce_basis(result.basis, o)
    assert {g.lm() for g in reduced_gb} == {w(xy, "xx"), w(xy, "xy")}
    assert any(brute_force_placement(gap, g.lm()) is not None
               for g in reduced_gb)
    assert all(involutively_divides(u, gap, result.table, "thick") is None
               for u in lms)


def test_04_left_overlap_fixture_and_left_division_nontermination(xyz):
    o = MonomialOrdering("deglex", xyz)
    F = P(xyz, o, "x*y - z", "x + z", "y*z - z", "x*z", "z*y + z", "z^2")
    with timer(1.0):
        result = involutive_basis(F, InvolutiveDivision(3), o)
    assert result.status == "complete"
    assert result.basis == F
    expected_right = {"xy": {"x", "y"}, "x": {"x"}, "yz": {"x"},
                      "xz": {"x"}, "zy": {"x", "y"}, "zz": {"x"}}
    named = result.table.named()
    for word, rights in expected_right.items():
        left_names, right_names = named[w(xyz, word)]
        assert left_names == {"x", "y", "z"}
        assert right_names == rights
    # companion negative test: the same input loops under the Left division
    with timer(1.0):
        looping = involutive_basis(F, InvolutiveDivision(1), o, max_degree=8)
    assert looping.status == "degree_cap_hit"


def test_05_s3_involutive_complete_rewrite_system(group_alphabet):
    A = group_alphabet
    o = MonomialOrdering("deglex", A)
    F = P(A, o, "x^3 - 1", "y^2 - 1", "x*y*x*y - 1", "X*x - 1", "x*X - 1",
          "Y*y - 1", "y*Y - 1")
    with timer(2.0):
        result = involutive_basis(F, InvolutiveDivision(1), o)
    assert result.status == "complete"
    rules = ["y^2 - 1", "X*x - 1", "x*X - 1", "Y*y - 1", "y^2*x - x",
             "Y - y", "Y*x - y*x", "X*x*y - y", "Y*y*x - x", "x^2 - X",
             "X^2 - x", "x*y*x - y", "X*y - y*x", "X*y*x - x*y",
             "x^2*y - y*x", "y*X - x*y", "y*x*y - X", "Y*x*y - X",
             "Y*X - x*y"]
    assert len(result.basis) == 19
    assert monic_set(result.basis) == monic_set(P(A, o, *rules))

    # the word yXYx has exactly one involutive reduction path, of length 3
    basis = [g.monic() for g in result.basis]
    word = w(A, "yXYx")
    path = []
    while True:
        hits = [(idx, g) for idx, g in enumerate(basis)
                if involutively_divides(g.lm(), word, result.table, "thin")]
        if not hits:
            break
        assert len(hits) == 1, f"non-unique reduction of {word}"
        idx, g = hits[0]
        u3, u4 = involutively_divides(g.lm(), word, result.table, "thin")
        step = poly_combine(
            Polynomial([Term(1, word)], A, o),
            Polynomial([Term(t.coeff, u3 + t.mon + u4) for t in g.terms],
                       A, o), -1)
        path.append(g.lm())
        assert len(step.terms) == 1 and step.terms[0].coeff == 1
        word = step.lm()
    assert len(path) == 3
    assert word == w(A, "X")
    assert path == [w(A, "Yx"), w(A, "Xyx"), w(A, "yxy")]


def test_06_s4_left_and_right_divisions(group_alphabet):
    A = group_alphabet
    o = MonomialOrdering("deglex", A)
    F = P(A, o, "x^4 - 1", "y^3 - 1", "x*y*x*y - 1", "X*x - 1", "x*X - 1",
          "Y*y - 1", "y*Y - 1")
    sizes = {}
    for key in (1, 2):
        with timer(60.0):
            result = involutive_basis(F, InvolutiveDivision(key), o)
        assert result.status == "complete"
        sizes[key] = len(result.basis)
        # convention-dependent counters: reported, not asserted
        print(f"division {key}: basis {len(result.basis)}, "
              f"prolongations {result.stats['prolongations']}, "
              f"involutive reductions {result.stats['inv_reductions']}")
        if key == 1:
            reduced = reduce_basis(result.basis, o)
            assert len(reduced) == 21
    assert sizes == {1: 73, 2: 73}


def test_07_groebner_walk_example(xy):
    drl = MonomialOrdering("degrevlex", xy)
    dl = MonomialOrdering("deglex", xy)
    G = P(xy, drl, "2*x*y - x^2 - 3", "y^2 + x^2 + 8",
          "5*x^3 + 6*y + 35*x", "2*y*x - x^2 - 3")
    with timer(2.0):
        result = groebner_walk(WalkJob(source=drl, target=dl, basis=G))
    assert result.status == "complete"
    assert set(result.basis) == set(P(
        xy, dl, "x^2 + y^2 + 8", "x*y + 1/2*y^2 + 5/2",
        "y*x + 1/2*y^2 + 5/2", "y^3 - 2*x + 37/5*y"))


def test_08_involutive_walk_example(xy):
    dl = MonomialOrdering("deglex", xy)
    drl = MonomialOrdering("degrevlex", xy)
    G = P(xy, dl, "2*x*y + y^2 + 5", "x^2 + y^2 + 8",
          "5*y^3 - 10*x + 37*y", "5*x*y^2 + 5*x - 6*y", "2*y*x + y^2 + 5")
    job = WalkJob(source=dl, target=drl, basis=G,
                  division=InvolutiveDivision(1))
    with timer(2.0):
        result = involutive_walk(job)
    assert result.status == "complete"
    assert monic_set(result.basis) == monic_set(P(
        xy, drl, "2*x*y - x^2 - 3", "-2*y*x + x^2 + 3",
        "-5*y*x^2 - 3*y - 10*x", "-5*x^3 - 6*y - 35*x", "y^2 + x^2 + 8"))
    assert len(result.basis) == 5


def test_09_property_suites(xy, xyz):
    o3 = MonomialOrdering("deglex", xyz)
    o2 = MonomialOrdering("deglex", xy)

    # (a) every complete involutive run yields a Gröbner Basis
    involutive_runs = [
        (involutive_basis(P(xy, o2, "2*x*y + y^2 + 5", "x^2 + y^2 + 8"),
                          InvolutiveDivision(1), o2), o2),
        (involutive_basis(P(xy, o2, "2*x*y + y^2 + 5", "x^2 + y^2 + 8"),
                          InvolutiveDivision(2), o2), o2),
        (involutive_basis(P(xyz, o3, "x*y - z", "x + z", "y*z - z", "x*z",
                            "z*y + z", "z^2"),
                          InvolutiveDivision(3), o3), o3),
        (involutive_basis(P(xy, o2, "x^2*y^2 - 2*x*y^2 + x^2",
                            "x^2*y - 2*x*y"),
                          InvolutiveDivision(4), o2, mode="thick"), o2),
    ]
    for res, ordering in involutive_runs:
        assert res.status == "complete"
        assert all_spolys_reduce_to_zero(res.basis)

    # (b) disjoint-cone uniqueness to degree 6 for the global divisions
    for key in (1, 2):
        res = involutive_basis(
            P(xy, o2, "2*x*y + y^2 + 5", "x^2 + y^2 + 8"),
            InvolutiveDivision(key), o2)
        assert res.status == "complete"
        lms = [p.lm() for p in res.basis]
        for d in range(7):
            for word in itertools.product(range(2), repeat=d):
                hits = sum(1 for u in lms
                           if involutively_divides(u, word, res.table, "thin"))
                assert hits <= 1, (key, word)

    # (c) logged-expansion identity on logged runs
    F3 = P(xyz, o3, "x*y - z", "y*z + 2*x + z", "y*z + x")
    gres = mora(F3, o3, logged=True)
    for g, log in zip(gres.basis, gres.logs):
        assert log_expand(log, F3) == g
    F2 = P(xy, o2, "2*x*y + y^2 + 5", "x^2 + y^2 + 8")
    ires = involutive_basis(F2, InvolutiveDivision(1), o2, logged=True)
    for g, log in zip(ires.basis, ires.logs):
        assert log_expand(log, F2) == g

    # (d) strategy and criterion invariance of the reduced basis
    for F, ordering in ((F3, o3), (F2, o2)):
        outputs = [
            reduce_basis(mora(F, ordering, strategy=s,
                              use_criterion2=c).basis, ordering)
            for s in ("normal", "sugar") for c in (True, False)]
        assert all(out == outputs[0] for out in outputs)

    # (e) additivity of involutive remainders on 100 random pairs
    res = autoreduce(
        P(xy, o2, "y^2 + 2*x*y", "y^2 + x^2", "5*y^3", "5*x*y^2",
          "y^2 + 2*y*x"),
        InvolutiveDivision(1), o2)
    basis, table = res.basis, res.table
    rng = seeded_rng("acceptance-additivity")
    for _ in range(100):
        f = random_poly(rng, xy, o2)
        g = random_poly(rng, xy, o2)
        rf, _ = inv_divide(f, basis, table)
        rg, _ = inv_divide(g, basis, table)
        rfg, _ = inv_divide(poly_combine(f, g, 1), basis, table)
        assert poly_combine(rf, rg, 1) == rfg

    # (f) admissibility sampling for the three orderings
    for kind in ("deglex", "deginvlex", "degrevlex"):
        key = MonomialOrdering(kind, xyz).key
        assert admissibility_counterexample(key, len(xyz)) is None


def test_10_multiplicative_table_examples(xyz):
    lms6 = [w(xyz, m) for m in ("xy", "x", "yz", "xz", "zy", "zz")]

    table = assign_multiplicative(InvolutiveDivision(3), lms6, xyz)
    named = table.named()
    expected = {"xy": {"x", "y"}, "x": {"x"}, "yz": {"x"}, "xz": {"x"},
                "zy": {"x", "y"}, "zz": {"x"}}
    for word, rights in expected.items():
        assert named[w(xyz, word)] == ({"x", "y", "z"}, rights)

    table = assign_multiplicative(InvolutiveDivision(4), lms6, xyz)
    named = table.named()
    expected = {"xy": {"y"}, "x": set(), "yz": set(), "xz": set(),
                "zy": {"y"}, "zz": set()}
    for word, rights in expected.items():
        assert named[w(xyz, word)] == ({"x", "y", "z"}, rights)

    lms3 = [w(xyz, m) for m in ("zxxyxy", "yzx", "xy")]
    table = assign_multiplicative(InvolutiveDivision(5), lms3, xyz)
    named = table.named()
    assert named[w(xyz, "zxxyxy")] == ({"x", "y", "z"}, {"x", "y", "z"})
    assert named[w(xyz, "yzx")] == ({"y", "z"}, {"y", "z"})
    assert named[w(xyz, "xy")] == ({"x"}, {"y", "z"})
