"""Gröbner and Involutive Walks between the degree-based orderings."""

from itertools import permutations

import pytest

from ncpoly import (Alphabet, InvolutiveDivision, MonomialOrdering,
                    Polynomial, WalkJob, divide, initial, involutive_basis,
                    log_expand, mora, groebner_walk, involutive_walk,
                    normal_word_counts, reduce_basis)

from ncpoly import groebner
from ncpoly.groebner import DEFAULT_MAX_DEGREE
from ncpoly.spoly import enumerate_overlaps

from conftest import P, all_spolys_reduce_to_zero, group_presentation
from test_digest import DENSE_CUBICS


@pytest.fixture
def drl(xy):
    return MonomialOrdering("degrevlex", xy)


@pytest.fixture
def dl(xy):
    return MonomialOrdering("deglex", xy)


def drl_basis(xy, drl):
    return P(xy, drl, "2*x*y - x^2 - 3", "y^2 + x^2 + 8",
             "5*x^3 + 6*y + 35*x", "2*y*x - x^2 - 3")


def deglex_ib(xy, dl):
    return P(xy, dl, "2*x*y + y^2 + 5", "x^2 + y^2 + 8",
             "5*y^3 - 10*x + 37*y", "5*x*y^2 + 5*x - 6*y",
             "2*y*x + y^2 + 5")


# ---------------------------------------------------------------------------
# Gröbner Walk
# ---------------------------------------------------------------------------

def test_groebner_walk_worked_example(xy, drl, dl):
    job = WalkJob(source=drl, target=dl, basis=drl_basis(xy, drl))
    result = groebner_walk(job)
    assert result.status == "complete"
    assert result.basis == P(xy, dl, "y^3 - 2*x + 37/5*y", "x^2 + y^2 + 8",
                             "x*y + 1/2*y^2 + 5/2", "y*x + 1/2*y^2 + 5/2")


def test_groebner_walk_source_equals_target(xy, drl):
    basis = drl_basis(xy, drl)
    job = WalkJob(source=drl, target=drl, basis=basis)
    result = groebner_walk(job)
    assert result.basis == reduce_basis(basis, drl)


def test_groebner_walk_drops_zero_polynomials(xy, drl, dl):
    G = drl_basis(xy, drl)
    walked = groebner_walk(WalkJob(drl, dl, [Polynomial.zero(xy, drl)] + G))
    assert walked.status == "complete"
    assert walked.basis == groebner_walk(WalkJob(drl, dl, G)).basis


@pytest.mark.parametrize("source, target",
                         permutations(("deglex", "deginvlex", "degrevlex"), 2))
@pytest.mark.parametrize("problem", ["example", "s3"])
def test_groebner_walk_matches_direct_computation(xy, group_alphabet, problem,
                                                  source, target):
    # the source basis is Mora's raw output, which reduce_basis would
    # still change; on the worked example in degrevlex it is drl_basis
    alphabet = xy if problem == "example" else group_alphabet
    src = MonomialOrdering(source, alphabet)
    gens = (drl_basis(xy, src) if problem == "example"
            else group_presentation(alphabet, src, "S3"))
    basis = mora(gens, src).basis
    assert basis != reduce_basis(basis, src)
    dst = MonomialOrdering(target, alphabet)
    walked = groebner_walk(WalkJob(src, dst, basis))
    direct = mora([g.with_ordering(dst) for g in gens], dst)
    assert walked.basis == reduce_basis(direct.basis, dst)
    stats = walked.stats
    assert stats["hilbert_skips"] > 0
    assert (stats["hilbert_skips"] + stats["criterion2_skips"]
            + stats["spolys_considered"] == stats["iterations"])


def source_counts(basis):
    """hilbert for a walk from ``basis``: its normal words per degree."""
    return normal_word_counts([g.lm() for g in basis], len(basis[0].alphabet),
                              2 * DEFAULT_MAX_DEGREE).__getitem__


@pytest.mark.parametrize("source, target",
                         permutations(("deglex", "deginvlex", "degrevlex"), 2))
def test_hilbert_driven_inner_run_is_groebner(group_alphabet, source, target):
    # the walk's inner run, with and without the source's counts: each
    # dropped overlap would have reduced to zero, so the basis is the same
    src = MonomialOrdering(source, group_alphabet)
    dst = MonomialOrdering(target, group_alphabet)
    gb = mora(group_presentation(group_alphabet, src, "A4"), src).basis
    initials = [initial(g).with_ordering(dst) for g in gb]
    plain = mora(initials, dst)
    inner = mora(initials, dst, hilbert=source_counts(gb))
    assert inner.basis == plain.basis
    assert all_spolys_reduce_to_zero(inner.basis)
    assert "hilbert_skips" not in plain.stats
    assert inner.stats["iterations"] == plain.stats["iterations"]
    assert inner.stats["hilbert_skips"] > 0
    assert (inner.stats["hilbert_skips"] + inner.stats["criterion2_skips"]
            + inner.stats["spolys_considered"] == inner.stats["iterations"])


def s3_walk_inner_run(alphabet):
    """The initials of S3's reduced degrevlex basis in deglex, and the
    basis's normal words per degree.  Their inner run reads the counts at
    degrees 2 to 5: degree 3 is met after its 12th overlap, at iteration
    13, and dropped from iteration 14 to 33; degrees 4 (iterations 34 to
    44) and 5 (45 to 48) are met when they come up and dropped whole."""
    drl = MonomialOrdering("degrevlex", alphabet)
    dl = MonomialOrdering("deglex", alphabet)
    gb = reduce_basis(mora(group_presentation(alphabet, drl, "S3"), drl).basis,
                      drl)
    initials = [initial(g).with_ordering(dl) for g in gb]
    return initials, dl, source_counts(gb)


# (max_iterations, status, iterations, hilbert_skips), as before degrees
# were dropped whole: inside degree 3's drop, inside degree 4, at the end
# of degree 4 (degree 5 still pending), and at the end of the run
CAP_EDGES = [(20, "iteration_cap_hit", 20, 10), (36, "iteration_cap_hit", 36, 26),
             (40, "iteration_cap_hit", 40, 30), (42, "complete", 42, 32)]


@pytest.mark.parametrize("cap, status, iterations, skips", CAP_EDGES,
                         ids=["inside-degree-3", "inside-degree-4",
                              "end-of-degree-4", "end-of-run"])
def test_caps_inside_and_at_the_edges_of_dropped_degrees(group_alphabet, cap,
                                                         status, iterations,
                                                         skips):
    initials, dl, hilbert = s3_walk_inner_run(group_alphabet)
    res = mora(initials, dl, hilbert=hilbert, max_iterations=cap)
    assert (res.status, res.stats["iterations"], res.stats["hilbert_skips"]) \
        == (status, iterations, skips)
    assert res.stats["spolys_considered"] == 10


def test_the_cap_stops_before_a_degree_count_is_read(group_alphabet):
    # counts one too high at degree 5 would refuse the run, but a cap met
    # at the boundary before degree 5 stops it first
    initials, dl, hilbert = s3_walk_inner_run(group_alphabet)
    too_high = lambda d: hilbert(d) + (d == 5)
    res = mora(initials, dl, hilbert=too_high, max_iterations=40)
    assert (res.status, res.stats["iterations"], res.stats["hilbert_skips"]) \
        == ("iteration_cap_hit", 40, 30)
    with pytest.raises(ValueError, match="not a Gröbner Basis"):
        mora(initials, dl, hilbert=too_high, max_iterations=41)


def test_a_degree_met_when_it_comes_up_is_never_built(group_alphabet,
                                                      monkeypatch):
    initials, dl, hilbert = s3_walk_inner_run(group_alphabet)
    built = []

    def recorded(*args):
        specs = enumerate_overlaps(*args)
        built.extend(len(s.overlap_word) for s in specs)
        return specs

    monkeypatch.setattr(groebner, "enumerate_overlaps", recorded)
    res = mora(initials, dl, hilbert=hilbert)
    assert res.stats["hilbert_skips"] == 32
    assert set(built) == {2, 3}
    assert len(built) == res.stats["iterations"] - 13    # degrees 4 and 5


def test_raw_dense_walk_reads_one_key_per_overlap(xy):
    # the walk of a raw (unreduced) dense basis, as the CLI walks it: most
    # of its inner run's degrees are dropped unbuilt and settle no key, so
    # criterion 2 skips by the keys of the overlaps taken at the degree at
    # hand, and counts every lower degree as settled
    drl, dl = MonomialOrdering("degrevlex", xy), MonomialOrdering("deglex", xy)
    F = P(xy, drl, *DENSE_CUBICS)
    walked = groebner_walk(WalkJob(drl, dl, mora(F, drl).basis))
    assert walked.stats == {"spolys_considered": 15, "zero_reductions": 0,
                            "criterion2_skips": 6, "hilbert_skips": 1879,
                            "iterations": 1900, "basis_size": 32}
    direct = mora([f.with_ordering(dl) for f in F], dl)
    assert walked.basis == reduce_basis(direct.basis, dl)


def test_mora_refuses_hilbert_counts_it_cannot_use(xy, drl, dl):
    G = drl_basis(xy, drl)
    initials = [initial(g).with_ordering(dl) for g in G]
    hilbert = source_counts(G)
    with pytest.raises(ValueError, match="normal strategy"):
        mora(initials, dl, strategy="sugar", hilbert=hilbert)
    with pytest.raises(ValueError, match="homogeneous"):
        mora(G, drl, hilbert=hilbert)
    # more normal words than the lead words of the initials leave at the
    # first overlap degree: the counts cannot be the ideal's
    with pytest.raises(ValueError, match="not a Gröbner Basis"):
        mora(initials, dl, hilbert=lambda d: 4 ** d)


def test_groebner_walk_initials_are_groebner(xy, drl):
    G = drl_basis(xy, drl)
    initials = [initial(g) for g in G]
    assert all_spolys_reduce_to_zero(initials)


def test_walk_refuses_non_harmonious(xy, dl):
    # the orderings share the degree function, but not the alphabet
    wider = MonomialOrdering("deglex", Alphabet(["x", "y", "z"]))
    for basis in (deglex_ib(xy, dl), []):
        with pytest.raises(ValueError, match="harmonious"):
            groebner_walk(WalkJob(source=dl, target=wider, basis=basis))
    # over one alphabet, an empty basis is refused as every algorithm
    # refuses one
    with pytest.raises(ValueError, match="no nonzero"):
        groebner_walk(WalkJob(source=dl, target=dl, basis=[]))


def test_groebner_walk_refuses_a_source_that_is_not_groebner(xy, drl, dl):
    # both elements lead with y*x, so x^2, which is in the ideal, is
    # reducible by neither: the source basis is not Gröbner
    job = WalkJob(drl, dl, P(xy, drl, "y*x", "y*x - x^2"))
    with pytest.raises(ValueError, match="not a Gröbner Basis"):
        groebner_walk(job)


def test_capped_walks_return_the_inner_run(group_alphabet):
    # a cap stops the inner completion of the initials, whose basis (and
    # logs, over the initials) come back as they stand
    drl = MonomialOrdering("degrevlex", group_alphabet)
    dl = MonomialOrdering("deglex", group_alphabet)
    s3 = group_presentation(group_alphabet, drl, "S3")
    gb = reduce_basis(mora(s3, drl).basis, drl)
    walked = groebner_walk(WalkJob(drl, dl, gb), max_iterations=2)
    initials = [initial(g).with_ordering(dl) for g in gb]
    assert walked.status == "iteration_cap_hit"
    assert len(walked.basis) == 10
    assert walked.basis[:len(initials)] == initials
    assert walked.basis != reduce_basis(walked.basis, dl)
    ib = involutive_basis(s3, 1, drl).basis
    walked = involutive_walk(WalkJob(drl, dl, ib, InvolutiveDivision(1)),
                             max_iterations=2)
    initials = [initial(g).with_ordering(dl) for g in ib]
    assert walked.status == "iteration_cap_hit"
    assert len(walked.basis) == 19
    assert [log_expand(log, initials) for log in walked.logs] == walked.basis


def test_groebner_walk_output_is_groebner(xy, drl, dl):
    job = WalkJob(source=drl, target=dl, basis=drl_basis(xy, drl))
    basis = groebner_walk(job).basis
    assert all_spolys_reduce_to_zero(basis)
    # every output element lies in the ideal of the direct computation
    direct = reduce_basis(mora([g.with_ordering(dl)
                                for g in drl_basis(xy, drl)], dl).basis, dl)
    for h in basis:
        rem, _ = divide(h, direct)
        assert rem.is_zero()


# ---------------------------------------------------------------------------
# Involutive Walk
# ---------------------------------------------------------------------------

def test_involutive_walk_worked_example(xy, drl, dl):
    job = WalkJob(source=dl, target=drl, basis=deglex_ib(xy, dl),
                  division=InvolutiveDivision(1))
    result = involutive_walk(job)
    assert result.status == "complete"
    assert result.basis == P(xy, drl, "2*x*y - x^2 - 3", "-2*y*x + x^2 + 3",
                             "-5*y*x^2 - 3*y - 10*x", "-5*x^3 - 6*y - 35*x",
                             "y^2 + x^2 + 8")


def test_involutive_walk_intermediate_initial_basis(xy, drl, dl):
    # the inner run computes an Involutive Basis of the degree-initials
    initials = [initial(g).with_ordering(drl) for g in deglex_ib(xy, dl)]
    res = involutive_basis(initials, InvolutiveDivision(1), drl)
    assert res.status == "complete"
    assert set(res.basis) == set(P(xy, drl, "2*x*y - x^2", "-2*y*x + x^2",
                                   "-5*y*x^2", "-5*x^3", "y^2 + x^2"))


def test_involutive_walk_output_is_involutive(xy, drl, dl):
    from test_involutive import prolongations_reduce_to_zero
    from ncpoly import assign_multiplicative
    job = WalkJob(source=dl, target=drl, basis=deglex_ib(xy, dl),
                  division=InvolutiveDivision(1))
    basis = involutive_walk(job).basis

    class Shim:
        pass

    res = Shim()
    res.basis = basis
    res.table = assign_multiplicative(InvolutiveDivision(1),
                                      [p.lm() for p in basis], xy)
    assert prolongations_reduce_to_zero(res, drl)


def test_involutive_walk_requires_division(xy, drl, dl):
    job = WalkJob(source=dl, target=drl, basis=deglex_ib(xy, dl))
    with pytest.raises(ValueError, match="division"):
        involutive_walk(job)


def test_walk_conversion_agrees_with_direct_reduced_gb(xy, drl, dl):
    job = WalkJob(source=dl, target=drl, basis=deglex_ib(xy, dl),
                  division=InvolutiveDivision(1))
    walked = involutive_walk(job).basis
    direct = mora([g.with_ordering(drl) for g in deglex_ib(xy, dl)], drl)
    assert reduce_basis(walked, drl) == reduce_basis(direct.basis, drl)
