import time
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import gcd, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coxtoric import groups, intlin
from coxtoric.errors import HypothesisError, ShapeError
from coxtoric.groups import (
    DiagonalizableSubgroup,
    MonomialMatrix,
    WeightAction,
    centralizes_torus,
    character_root_isogeny,
    classify_quotient,
    commutes_with_torus,
    decompose_subgroup,
    hyperplane_permutation_report,
    is_effective,
    subgroup_from_weights,
)
from coxtoric.intlin import (
    IntMatrix,
    lattice_canonical_form,
    smith_normal_form,
)
from oracles import det_cofactor, invariant_factors_by_minors, rank_fraction_gauss


def weight(rows):
    m = IntMatrix.from_rows(rows)
    return WeightAction(m.rows, m)


def isogeny_by_diagonal_product(xi, d):
    """character_root_isogeny by its defining product diag(f, 1, ..., 1) * U."""
    r, g = len(xi), gcd(*xi)
    if g == 0:
        return IntMatrix.identity(r), (0,) * r
    u = smith_normal_form(IntMatrix.from_columns([xi], rows=r)).U
    diagonal = [d // gcd(d, g)] + [1] * (r - 1)
    kappa_t = IntMatrix.from_rows([[x if i == j else 0 for j in range(r)]
                                   for i, x in enumerate(diagonal)]) @ u
    return kappa_t.transpose(), tuple(x // d for x in kappa_t.apply(xi))


def in_lattice_by_minors(relations, chi):
    """Whether chi is in the column lattice of `relations`: adding it keeps the
    rank and the product of the invariant factors, the lattice's index in its
    saturation."""
    rows = [list(row) for row in relations.entries]
    extended = [row + [x] for row, x in zip(rows, chi)]
    return (rank_fraction_gauss(rows, relations.cols) == rank_fraction_gauss(extended, relations.cols + 1)
            and prod(invariant_factors_by_minors(rows)) == prod(invariant_factors_by_minors(extended)))


def order_by_powers(perm, scalars):
    """Order of the map sending coordinate i to position perm[i] with its
    phase raised by scalars[perm[i]] in Q/Z: apply it to (coordinate, phase)
    pairs until each is back in place with phase 0."""
    start = [(i, Fraction(0)) for i in range(len(perm))]
    state, n = start, 0
    while n == 0 or state != start:
        moved = list(state)
        for i, (source, phase) in enumerate(state):
            moved[perm[i]] = (source, (phase + Fraction(scalars[perm[i]])) % 1)
        state, n = moved, n + 1
    return n


def rank_one_subgroup(column):
    return DiagonalizableSubgroup(len(column), IntMatrix.from_columns([column], rows=len(column)))


relation_matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(0, 3).flatmap(
        lambda k: st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                           min_size=m, max_size=m).map(
            lambda rows: IntMatrix.from_rows(rows, cols=k))))


class TestSubgroupFromWeights:
    def test_hyperbolic(self):
        g = subgroup_from_weights(weight([[1, -1]]))
        assert g.dimension == 1
        assert [tuple(abs(x) for x in c) for c in g.relations.columns()] == [(1, 1)]

    def test_full_torus(self):
        g = subgroup_from_weights(weight([[1, 0], [0, 1]]))
        assert g.relations.cols == 0
        assert g.dimension == 2

    def test_weighted_line(self):
        g = subgroup_from_weights(weight([[1, 2, 1]]))
        assert g.relations.cols == 2
        assert g.dimension == 1

    def test_image_closure_is_connected(self):
        g = subgroup_from_weights(weight([[2, 0], [0, 3]]))
        assert decompose_subgroup(g) == (2, ())


class TestEffective:
    def test_cases(self):
        assert is_effective(weight([[1, -1]]))
        assert not is_effective(weight([[2]]))
        assert is_effective(weight([[1, 0, 0], [0, 1, 1]]))
        assert not is_effective(weight([[2, 0], [0, 1]]))


def signed_minors(rows, m):
    """The vector of signed maximal minors of m - 1 rows in Z^m, by cofactors."""
    return [(-1) ** j * det_cofactor([row[:j] + row[j + 1:] for row in rows]) for j in range(m)]


def independent_rows(rows, m):
    """The first rows, in order, that each raise the rank."""
    chosen = []
    for row in rows:
        if rank_fraction_gauss(chosen + [row], m) > len(chosen):
            chosen.append(row)
    return chosen


@st.composite
def weight_matrices(draw):
    """W with m <= 5 columns: (m-1) x m, rank-deficient (m-1) x m, more than
    m - 1 rows of rank at most m - 1, or 0 x 1."""
    shape = draw(st.sampled_from(["corank one", "rank-deficient", "tall", "0x1"]))
    if shape == "0x1":
        return IntMatrix.zero(0, 1)
    m = draw(st.integers(2 if shape == "rank-deficient" else 1, 5))
    row = st.lists(st.sampled_from(range(-3, 4)), min_size=m, max_size=m)
    # m - 2 rows and a combination of them has rank below m - 1
    base = draw(st.lists(row, min_size=m - 1, max_size=m - 1))[:m - 2 if shape == "rank-deficient" else m]
    if shape == "corank one":
        assume(rank_fraction_gauss(base, m) == m - 1)
        return IntMatrix.from_rows(base, cols=m)
    mix = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))
    extra = [[sum(c * b[j] for c, b in zip(coefficients, base)) for j in range(m)]
             for coefficients in draw(st.lists(mix, min_size=1, max_size=1 if shape == "rank-deficient" else 2))]
    return IntMatrix.from_rows(draw(st.permutations(base + extra)), cols=m)


class TestCorankOneWeights:
    """A weight matrix W of rank m - 1 takes its relation column and its
    effectivity from its signed maximal minors, with no Smith form."""

    @given(weight_matrices())
    @example(IntMatrix.zero(0, 1))
    def test_agrees_with_the_minors_oracle(self, w):
        rows, m = [list(row) for row in w.entries], w.cols
        rank = rank_fraction_gauss(rows, m)
        # Z^rows / im W is trivial iff W has rank rows and unit invariant factors
        assert is_effective(WeightAction(w.rows, w)) == (
            rank == w.rows and all(f == 1 for f in invariant_factors_by_minors(rows)))
        g = subgroup_from_weights(WeightAction(w.rows, w))
        if rank != m - 1:
            assert g.dimension == rank
            assert decompose_subgroup(g) == (rank, ())
            return
        x = signed_minors(independent_rows(rows, m), m)
        x = [a // gcd(*x) for a in x]
        if next(a for a in x if a) < 0:
            x = [-a for a in x]
        assert g.canonical_relations == IntMatrix.from_columns([x], rows=m)
        assert g.dimension == m - 1
        torsion = tuple(f for f in invariant_factors_by_minors([[a] for a in x]) if f > 1)
        assert decompose_subgroup(g) == (m - 1, torsion)

    def test_takes_no_smith_form_at_rank_m_minus_1(self, count_calls):
        smith = count_calls(intlin, "_smith_elimination")
        general = count_calls(groups, "kernel_basis", "cokernel_invariants")
        action = weight([[1, 2, 0], [0, 3, 3]])
        assert subgroup_from_weights(action).canonical_relations.entries == ((2,), (-1,), (1,))
        assert not is_effective(action)
        assert smith == {"_smith_elimination": 0}
        assert general == {"kernel_basis": 0, "cokernel_invariants": 0}

    def test_rank_deficient_weights_keep_the_general_path(self, count_calls):
        general = count_calls(groups, "kernel_basis", "cokernel_invariants")
        action = weight([[1, 2, 3], [2, 4, 6]])
        assert subgroup_from_weights(action).dimension == 1
        assert not is_effective(action)
        assert general == {"kernel_basis": 1, "cokernel_invariants": 1}

    def test_subgroup_and_effectivity_eliminate_w_once(self, count_calls):
        # both read x off the one Bareiss record kept on the W instance
        calls = count_calls(intlin, "_bareiss")
        action = weight([[1, 2, 0], [0, 3, 3]])
        assert subgroup_from_weights(action).dimension == 2
        assert not is_effective(action)
        assert calls == {"_bareiss": 1}

    @pytest.mark.parametrize("planted", [[1, 0, 0], [0, 0, 0]])
    def test_a_vector_that_fails_substitution_raises(self, planted, monkeypatch):
        monkeypatch.setattr(IntMatrix, "kernel_minors", lambda w: list(planted))
        action = weight([[1, 2, 0], [0, 3, 3]])
        with pytest.raises(ArithmeticError, match="not a nonzero kernel vector"):
            subgroup_from_weights(action)
        with pytest.raises(ArithmeticError, match="not a nonzero kernel vector"):
            is_effective(action)


class TestClassifyQuotient:
    def test_monomial_cases(self):
        assert classify_quotient(rank_one_subgroup((1, 1))) == (1, 1)
        assert classify_quotient(rank_one_subgroup((1, 0))) == (1, 0)
        assert classify_quotient(subgroup_from_weights(weight([[0, 1]]))) == (1, 0)

    def test_point_case(self):
        assert classify_quotient(rank_one_subgroup((1, -1))) is None
        assert classify_quotient(subgroup_from_weights(weight([[1, 1]]))) is None

    def test_negative_generator_normalized(self):
        assert classify_quotient(rank_one_subgroup((-1, -2))) == (1, 2)

    def test_hypothesis_errors(self):
        with pytest.raises(HypothesisError, match="not connected"):
            classify_quotient(rank_one_subgroup((2, 2)))
        with pytest.raises(HypothesisError, match="dimension 1, expected 2"):
            classify_quotient(DiagonalizableSubgroup(3, IntMatrix.from_columns(
                [(1, 0, 0), (0, 1, 0)], rows=3)))

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=5).filter(any))
    def test_monomial_iff_one_signed(self, a):
        g = gcd(*a)
        a = tuple(x // g for x in a)
        result = classify_quotient(rank_one_subgroup(a))
        one_signed = all(x >= 0 for x in a) or all(x <= 0 for x in a)
        assert (result is not None) == one_signed
        if result is not None:
            assert gcd(*result) == 1
            assert all(x >= 0 for x in result)

    def test_dependent_relation_columns(self):
        # a rank-one relation matrix with columns a and 2a has one generator
        g = DiagonalizableSubgroup(2, IntMatrix.from_columns([(1, 2), (2, 4)], rows=2))
        assert g.dimension == 1
        assert classify_quotient(g) == (1, 2)
        with pytest.raises(HypothesisError, match="dimension 1, expected 2"):
            classify_quotient(DiagonalizableSubgroup(3, IntMatrix.from_columns(
                [(1, 0, 0), (0, 2, 0), (1, 2, 0)], rows=3)))

    @given(relation_matrices)
    def test_agrees_with_the_cokernel_decomposition(self, relations):
        # the verdicts of classifying through the Smith form of the relations
        g = DiagonalizableSubgroup(relations.rows, relations)
        dimension, torsion = decompose_subgroup(g)
        assert g.dimension == dimension == relations.rows - relations.rank()
        if dimension != relations.rows - 1:
            with pytest.raises(HypothesisError, match=f"dimension {dimension},"):
                classify_quotient(g)
        elif torsion:
            with pytest.raises(HypothesisError, match="not connected"):
                classify_quotient(g)
        else:
            gen = lattice_canonical_form(relations).column(0)
            # a Hermite column is led by its positive pivot
            assert next(x for x in gen if x) > 0
            one_signed = min(gen) >= 0 or max(gen) <= 0
            result = classify_quotient(g)
            assert result == (tuple(abs(x) for x in gen) if one_signed else None)

    def test_takes_no_smith_form(self, count_calls):
        calls = count_calls(intlin, "smith_normal_form")
        g = DiagonalizableSubgroup(3, IntMatrix.from_columns([(1, 0, 0), (0, 1, 0)], rows=3))
        with pytest.raises(HypothesisError, match="dimension 1, expected 2"):
            classify_quotient(g)
        assert classify_quotient(rank_one_subgroup((1, 2))) == (1, 2)
        with pytest.raises(HypothesisError, match="not connected"):
            classify_quotient(rank_one_subgroup((2, 4)))
        assert calls == {"smith_normal_form": 0}

    def test_takes_no_bareiss_rank(self, monkeypatch):
        # dimension and connectedness both come from the canonical relations
        calls = []
        real = IntMatrix.rank
        monkeypatch.setattr(IntMatrix, "rank", lambda self: calls.append(self) or real(self))
        assert classify_quotient(rank_one_subgroup((1, 2))) == (1, 2)
        assert calls == []


class TestMonomialMatrix:
    def test_scalars_reduced(self):
        g = MonomialMatrix((0, 1), (Fraction(3, 2), Fraction(-1, 3)))
        assert g.scalars == (Fraction(1, 2), Fraction(2, 3))

    @given(st.lists(st.one_of(
        st.integers(-7, 7),
        st.fractions(min_value=-5, max_value=5, max_denominator=12),
        st.tuples(st.integers(-30, 30), st.integers(1, 12)).map(lambda t: f"{t[0]}/{t[1]}")),
        min_size=1, max_size=5))
    def test_scalars_are_reduced_modulo_one(self, scalars):
        g = MonomialMatrix(tuple(range(len(scalars))), tuple(scalars))
        assert g.scalars == tuple(Fraction(s) % 1 for s in scalars)
        assert all(type(s) is Fraction for s in g.scalars)

    def test_not_a_permutation(self):
        with pytest.raises(ShapeError):
            MonomialMatrix((0, 0), (0, 0))

    @pytest.mark.parametrize("scalar", ["1/2", "-1/3", "+2/4", "0", 0, -3, Fraction(7, 3),
                                        pytest.param("1/" + "7" * 4300, id="1/<4300 digits>")])
    def test_accepted_scalar_forms(self, scalar):
        assert MonomialMatrix((0,), (scalar,)).scalars == (Fraction(scalar) % 1,)

    @pytest.mark.parametrize("scalar, error", [
        ("1e-3", ValueError), ("0.5", ValueError), (" 1/2", ValueError), ("1_0", ValueError),
        ("\u0661/\u0662", ValueError), (Decimal("0.25"), TypeError), ("1/0", ZeroDivisionError),
        pytest.param("1/" + "7" * 4301, ValueError, id="1/<4301 digits>"),
        ("1e-4000000", ValueError)])
    def test_refused_scalar_forms(self, scalar, error):
        # Fraction takes each of these but "1/0" and the 4301 digits, and
        # reads "1e-4000000" as an exact 4,000,000-digit denominator, in seconds
        start = time.perf_counter()
        with pytest.raises(error):
            MonomialMatrix((0,), (scalar,))
        assert time.perf_counter() - start < 1

    @given(st.integers(), st.integers(min_value=1))
    def test_p_over_q_is_read_exactly(self, p, q):
        assert MonomialMatrix((0,), (f"{p}/{q}",)).scalars == (Fraction(p, q) % 1,)

    def test_float_scalar_is_refused(self):
        # Fraction(0.1) is 3602879701896397/2**55, a root of unity of order 2**55
        with pytest.raises(TypeError, match="float"):
            MonomialMatrix((0,), (0.1,))

    @pytest.mark.parametrize("perm", [(1.0, 0.0), ("1/2", 0), (1, Fraction(0)), (0, None)])
    def test_non_integer_permutation_is_refused(self, perm):
        # (1.0, 0.0) sorts to [0, 1], but could not index a list later
        with pytest.raises(ShapeError, match="not a permutation"):
            MonomialMatrix(perm, (0, 0))

    def test_permutation_is_stored_as_ints(self):
        g = MonomialMatrix([True, False], (0, 0))
        assert g.perm == (1, 0)
        assert all(type(i) is int for i in g.perm)

    def test_order_of_a_three_cycle(self):
        perm, scalars = (1, 2, 0), (Fraction(1, 2), 0, Fraction(1, 3))
        n = MonomialMatrix(perm, scalars).order()
        assert n == 18  # permutation order 3, scalar denominators 2 and 3
        assert n == order_by_powers(perm, scalars)

    def test_str_subclass_scalar_is_read_as_its_string(self):
        class Exponent(str):
            pass

        g = MonomialMatrix((0, 1), (Exponent("3/4"), Exponent("-7/6")))
        assert g.scalars == (Fraction(3, 4), Fraction(5, 6))
        assert all(type(s) is Fraction for s in g.scalars)

    @pytest.mark.parametrize("scalar, p", [("1/0", 1), ("-07/0", -7), ("+0/00", 0)])
    def test_zero_denominator_raises_as_fraction_does(self, scalar, p):
        # the message `coxtoric diag` prints, as Fraction(p, 0) words it
        with pytest.raises(ZeroDivisionError) as raised:
            MonomialMatrix((0,), (scalar,))
        with pytest.raises(ZeroDivisionError) as direct:
            Fraction(p, 0)
        assert str(raised.value) == str(direct.value) == f"Fraction({p}, 0)"

    @given(st.integers(0, 5).flatmap(lambda m: st.tuples(
        st.permutations(list(range(m))),
        st.lists(st.fractions(max_denominator=6), min_size=m, max_size=m))))
    def test_order_is_the_brute_force_order(self, drawn):
        perm, scalars = drawn
        assert MonomialMatrix(tuple(perm), tuple(scalars)).order() == order_by_powers(perm, scalars)

    def test_order_of_a_root_of_unity_of_large_order(self):
        # read off the cycle: as repeated products it takes 2,000,000,014 of them
        start = time.perf_counter()
        assert MonomialMatrix((1, 0), ("1/1000000007", "0")).order() == 2000000014
        assert time.perf_counter() - start < 1


class TestCommutesWithTorus:
    @given(relation_matrices, st.data())
    def test_verdicts_agree_with_the_given_relations(self, relations, data):
        # each verdict against an independent test of the given relations.
        # A permutation P has finite order, so P*L in L already gives P*L = L
        m = relations.rows
        perm = tuple(data.draw(st.permutations(range(m))))
        g = MonomialMatrix(perm, (0,) * m)
        if data.draw(st.booleans()):
            # add the copies permuted by each power of perm, so that the
            # lattice is preserved
            orbit, power = list(relations.columns()), perm
            while power != tuple(range(m)):
                orbit += [tuple(c[j] for j in power) for c in relations.columns()]
                power = tuple(perm[j] for j in power)
            relations = IntMatrix.from_columns(orbit, rows=m)
        group = DiagonalizableSubgroup(m, relations)
        assert commutes_with_torus(g, group) == all(
            in_lattice_by_minors(relations, tuple(c[j] for j in perm)) for c in relations.columns())
        comparisons = [[(k == i) - (k == pi) for k in range(m)]
                       for i, pi in enumerate(perm) if pi != i]
        assert centralizes_torus(g, group) == all(
            in_lattice_by_minors(relations, chi) for chi in comparisons)

    def test_identity_always(self):
        g0 = rank_one_subgroup((1, 1))
        assert commutes_with_torus(MonomialMatrix((0, 1), (0, 0)), g0)

    def test_symmetric_lattice(self):
        swap = MonomialMatrix((1, 0), (0, 0))
        assert commutes_with_torus(swap, rank_one_subgroup((1, 1)))
        assert not commutes_with_torus(swap, rank_one_subgroup((1, 0)))

    def test_normalizing_does_not_imply_centralizing(self):
        # swapping coordinates of {(t, 1/t)} inverts every element: the swap
        # normalizes the subtorus but does not commute with it elementwise
        swap = MonomialMatrix((1, 0), (0, 0))
        g0 = rank_one_subgroup((1, 1))
        assert commutes_with_torus(swap, g0)
        assert not centralizes_torus(swap, g0)

    def test_normalizer_counterexample_to_pointwise_fixing(self):
        # Swapping the two zero-support coordinates of a = (0, 0, 1)
        # normalizes {(t, s, 1)} yet moves V(z_0) and V(z_1); only the
        # elementwise-commuting matrices must fix the zero support pointwise.
        g0 = rank_one_subgroup((0, 0, 1))
        swap01 = MonomialMatrix((1, 0, 2), (0, 0, 0))
        assert commutes_with_torus(swap01, g0)
        assert not centralizes_torus(swap01, g0)
        report = hyperplane_permutation_report(swap01, (0, 0, 1))
        assert report.permutes_positive_support
        assert not report.fixes_zero_support

    def test_centralizing_diagonal(self):
        g0 = rank_one_subgroup((1, 1, 0))
        diag = MonomialMatrix((0, 1, 2), (Fraction(1, 2), Fraction(1, 3), 0))
        assert centralizes_torus(diag, g0)
        assert commutes_with_torus(diag, g0)

    def test_canonical_relations_taken_once_per_subgroup(self, monkeypatch):
        calls = []
        real = groups.lattice_canonical_form
        monkeypatch.setattr(groups, "lattice_canonical_form",
                            lambda a: calls.append(a) or real(a))
        g0 = rank_one_subgroup((1, 1, 0))
        for perm in [(0, 1, 2), (1, 0, 2), (2, 1, 0)]:
            commutes_with_torus(MonomialMatrix(perm, (0, 0, 0)), g0)
        # a rank-one lattice takes only its own form: its generator is
        # compared with the permuted one up to sign
        assert len(calls) == 1
        g1 = DiagonalizableSubgroup(4, IntMatrix.from_columns([(1, 1, 0, 0), (0, 1, 2, 1)], rows=4))
        for perm in [(0, 1, 2, 3), (1, 0, 2, 3), (3, 2, 1, 0)]:
            commutes_with_torus(MonomialMatrix(perm, (0,) * 4), g1)
        # a rank-two lattice: one form per permuted lattice, plus its own
        assert len(calls) == 1 + 4

    def test_centralizing_takes_no_reduction_past_the_subgroups_own(self, count_calls):
        # each moved coordinate's character is back-substituted against the
        # canonical relations, already in Hermite form, with pivots read once
        group = DiagonalizableSubgroup(5, IntMatrix.from_columns(
            [(1, -1, 0, 0, 0), (0, 0, 1, -1, 0)], rows=5))
        calls = count_calls(intlin, "_column_hermite")
        assert centralizes_torus(MonomialMatrix((1, 0, 3, 2, 4), (0,) * 5), group)
        assert not centralizes_torus(MonomialMatrix((2, 1, 0, 3, 4), (0,) * 5), group)
        assert calls == {"_column_hermite": 1}

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=5).filter(any))
    @settings(max_examples=25)
    def test_rank_one_verdict_is_the_hermite_comparison(self, a):
        # Z*a is kept iff the permuted generator lies in it
        g = gcd(*a)
        generator = tuple(x // g for x in a)
        group = rank_one_subgroup(generator)
        for perm in permutations(range(len(a))):
            mm = MonomialMatrix(perm, (0,) * len(a))
            assert commutes_with_torus(mm, group) == in_lattice_by_minors(
                group.relations, tuple(generator[j] for j in perm))


@st.composite
def rank_one_generators(draw):
    """A nonzero generator in Z^m, m <= 5: arbitrary, or one with two nonzero
    entries k*e_i + l*e_j, k and l in +-{1, 2, 3}, the generators that a
    comparison character e_i - e_j nearly matches: k*(e_i - e_j) among them."""
    m = draw(st.integers(1, 5))
    if m > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(m)))[:2]
        k = draw(st.sampled_from([1, 2, 3, -1, -2, -3]))
        l = draw(st.sampled_from([-k, -k, 1, 2, 3, -1, -2, -3]))
        return tuple(k * (t == i) + l * (t == j) for t in range(m))
    return tuple(draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m).filter(any)))


class TestCentralizesRankOne:
    @staticmethod
    def check_every_permutation(a):
        # the generator is taken as given, primitive or not
        m = len(a)
        group = rank_one_subgroup(a)
        member = {(i, j): in_lattice_by_minors(group.relations, [(t == i) - (t == j) for t in range(m)])
                  for i in range(m) for j in range(m) if i != j}
        for perm in permutations(range(m)):
            expected = all(member[i, pi] for i, pi in enumerate(perm) if pi != i)
            assert centralizes_torus(MonomialMatrix(perm, (0,) * m), group) == expected

    @given(rank_one_generators())
    @settings(max_examples=60)
    def test_verdict_agrees_with_the_minors_oracle_for_every_permutation(self, a):
        self.check_every_permutation(a)

    @pytest.mark.parametrize("a", [(1, -1, 0), (-1, 1, 0, 0), (2, -2, 0), (-3, 0, 3), (1, 1, 0),
                                   (0, 0, 1, -1), (1, -1, 1), (1, -2, 0)])
    def test_verdict_on_generators_near_a_comparison_character(self, a):
        self.check_every_permutation(a)

    def test_takes_no_back_substitution(self, count_calls):
        calls = count_calls(intlin, "_back_substitute")
        swap = MonomialMatrix((1, 0, 2), (0, 0, 0))
        assert centralizes_torus(swap, rank_one_subgroup((1, -1, 0)))
        assert centralizes_torus(swap, rank_one_subgroup((-1, 1, 0)))
        assert not centralizes_torus(swap, rank_one_subgroup((2, -2, 0)))
        assert not centralizes_torus(MonomialMatrix((1, 2, 0), (0, 0, 0)), rank_one_subgroup((1, -1, 0)))
        assert calls == {"_back_substitute": 0}
        # a rank-two lattice keeps its back-substitutions, one per moved coordinate
        group = DiagonalizableSubgroup(3, IntMatrix.from_columns([(1, -1, 0), (0, 1, -1)], rows=3))
        assert centralizes_torus(MonomialMatrix((1, 2, 0), (0, 0, 0)), group)
        assert calls == {"_back_substitute": 3}


class TestHyperplaneReport:
    def test_identity(self):
        rep = hyperplane_permutation_report(MonomialMatrix((0, 1, 2), (0, 0, 0)), (2, 0, 1))
        assert rep.fixes_zero_support and rep.permutes_positive_support

    def test_swap_of_positive_support(self):
        rep = hyperplane_permutation_report(MonomialMatrix((1, 0, 2), (0, 0, 0)), (1, 1, 0))
        assert rep.fixes_zero_support and rep.permutes_positive_support

    def test_mixing_supports(self):
        rep = hyperplane_permutation_report(MonomialMatrix((0, 2, 1), (0, 0, 0)), (1, 1, 0))
        assert not rep.permutes_positive_support

    def test_negative_exponent_rejected(self):
        with pytest.raises(HypothesisError):
            hyperplane_permutation_report(MonomialMatrix((0, 1), (0, 0)), (1, -1))


class TestCharacterRootIsogeny:
    def test_zero_character(self, count_calls):
        # no branch of its own: the gcd transform of 0 is I
        calls = count_calls(groups, "gcd_transform")
        kappa, xi0 = character_root_isogeny((0, 0, 0), 7)
        assert kappa == IntMatrix.identity(3)
        assert xi0 == (0, 0, 0)
        assert calls == {"gcd_transform": 1}

    def test_minimal_determinant_is_two(self):
        kappa, xi0 = character_root_isogeny((1, 0), 2)
        assert abs(det_cofactor(kappa.entries)) == 2
        assert kappa.transpose().apply((1, 0)) == tuple(2 * x for x in xi0)
        # brute force: any 2x2 integer kappa with kappa^T xi divisible by 2
        # has even determinant, so 2 is the least possible absolute value
        best = None
        for k11 in range(-2, 3):
            for k12 in range(-2, 3):
                for k21 in range(-2, 3):
                    for k22 in range(-2, 3):
                        if k11 % 2 or k12 % 2:
                            continue
                        det = k11 * k22 - k12 * k21
                        if det and (best is None or abs(det) < best):
                            best = abs(det)
        assert best == 2

    def test_gcd_absorbs_degree(self):
        kappa, xi0 = character_root_isogeny((2,), 2)
        assert kappa == IntMatrix.identity(1)
        assert xi0 == (1,)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            character_root_isogeny((1, 2), 0)

    def test_inconsistent_smith_form_raises_arithmetic_error(self, monkeypatch):
        # an empty row log replays to U = I, which leaves (1, 2) as it is
        real = intlin._smith_elimination

        def forgetful(a):
            D, _, cols = real(a)
            return D, [], cols

        monkeypatch.setattr(intlin, "_smith_elimination", forgetful)
        with pytest.raises(ArithmeticError, match="does not send"):
            character_root_isogeny((1, 2), 2)

    def test_takes_one_elimination_and_no_product(self, count_calls):
        calls = count_calls(intlin, "_smith_elimination", "smith_normal_form")
        products = count_calls(IntMatrix, "__matmul__")
        kappa, xi0 = character_root_isogeny((4, 6, -10), 3)
        assert kappa.transpose().apply((4, 6, -10)) == tuple(3 * x for x in xi0)
        assert calls == {"_smith_elimination": 1, "smith_normal_form": 0}
        assert products == {"__matmul__": 0}

    def test_non_integer_character_is_refused(self):
        # int() would answer as if xi were (2,)
        for xi in ((2.7,), (Fraction(5, 2), 1), ("2",)):
            with pytest.raises(TypeError):
                character_root_isogeny(xi, 2)

    def test_indivisible_image_raises_arithmetic_error(self, monkeypatch):
        # a gcd that answers its first argument leaves kappa = 1, and
        # kappa^T * (2) = (2) is not divisible by 4
        monkeypatch.setattr(groups, "gcd", lambda a, b: a)
        with pytest.raises(ArithmeticError, match="not divisible by 4"):
            character_root_isogeny((2,), 4)

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=5).filter(any))
    def test_smith_form_of_a_column_takes_no_column_operation(self, xi):
        # the isogeny reads U alone: V = [1] and U * xi = (gcd(xi), 0, ..., 0)
        snf = smith_normal_form(IntMatrix.from_columns([xi], rows=len(xi)))
        assert snf.V == IntMatrix.identity(1)
        assert snf.D.entries[0][0] == gcd(*xi)
        assert snf.U.apply(xi) == (gcd(*xi),) + (0,) * (len(xi) - 1)

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=5), st.integers(1, 40))
    def test_equals_the_diagonal_product(self, xi, d):
        assert character_root_isogeny(xi, d) == isogeny_by_diagonal_product(xi, d)

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=4), st.integers(1, 12))
    def test_identity_and_determinant(self, xi, d):
        kappa, xi0 = character_root_isogeny(xi, d)
        assert kappa.transpose().apply(xi) == tuple(d * x for x in xi0)
        g = gcd(*xi)
        expected = 1 if g == 0 else d // gcd(d, g)
        assert abs(det_cofactor(kappa.entries)) == expected


class TestDecompose:
    def test_cases(self):
        assert decompose_subgroup(rank_one_subgroup((1, 1))) == (1, ())
        trivial = DiagonalizableSubgroup(2, IntMatrix.identity(2))
        assert decompose_subgroup(trivial) == (0, ())
        mu2 = DiagonalizableSubgroup(2, IntMatrix.from_columns([(1, 1), (0, 2)], rows=2))
        assert decompose_subgroup(mu2) == (0, (2,))

    def test_full_torus_weights_give_trivial_relations(self):
        for m in range(1, 4):
            g = subgroup_from_weights(WeightAction(m, IntMatrix.identity(m)))
            assert g.relations.cols == 0
            assert decompose_subgroup(g) == (m, ())


class TestSmallExhaustive:
    def test_normalizing_matrices_respect_support_partition(self):
        # small-bound version of the exhaustive acceptance sweep (m <= 3)
        from itertools import product
        for m in range(1, 4):
            for a in product(range(-2, 3), repeat=m):
                if not any(a) or gcd(*a) != 1:
                    continue
                group = rank_one_subgroup(a)
                result = classify_quotient(group)
                if result is None:
                    continue
                for perm in permutations(range(m)):
                    g = MonomialMatrix(perm, (0,) * m)
                    if commutes_with_torus(g, group):
                        rep = hyperplane_permutation_report(g, result)
                        assert rep.permutes_positive_support
                        if centralizes_torus(g, group):
                            assert rep.fixes_zero_support
