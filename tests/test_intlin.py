import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coxtoric import intlin
from coxtoric.errors import InvalidRayError, ShapeError
from coxtoric.intlin import (
    IntMatrix,
    cokernel_invariants,
    column_hermite_normal_form,
    divisibility_index,
    dot,
    gcd_transform,
    instance_memo,
    invert_unimodular,
    kernel_basis,
    kernel_generator,
    lattice_canonical_form,
    lattice_membership,
    minors_vector,
    primitive_vector,
    saturation_basis,
    smith_normal_form,
    smith_row_transform,
    solve_integer,
    solve_scaled,
)
from oracles import (
    brute_divisibility_index,
    brute_lattice_member,
    det_cofactor,
    det_fraction_gauss,
    invariant_factors_by_minors,
    inverse_fraction_gauss_jordan,
    rank_fraction_gauss,
)

matrices = st.integers(0, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-10, 10), min_size=n, max_size=n),
        min_size=0, max_size=5,
    ).map(lambda rows: IntMatrix.from_rows(rows, cols=n))
)


def M(rows):
    return IntMatrix.from_rows(rows)


@st.composite
def degenerate_matrices(draw):
    """Matrices up to 5 x 5, often with a zero row or column, a row that
    combines two others, or no rows or columns at all."""
    a = draw(matrices)
    rows = [list(r) for r in a.entries]
    if rows and a.cols and draw(st.booleans()):
        k = draw(st.integers(0, len(rows) - 1))
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        c, d = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[k] = [c * x + d * y for x, y in zip(rows[i], rows[j])]
    if rows and a.cols and draw(st.booleans()):
        j = draw(st.integers(0, a.cols - 1))
        for row in rows:
            row[j] = 0
    return IntMatrix.from_rows(rows, cols=a.cols)


@st.composite
def unimodular_matrices(draw):
    """Products of elementary row operations on the n x n identity."""
    n = draw(st.integers(1, 6))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    ops = st.tuples(st.integers(0, 2), st.integers(0, n - 1), st.integers(0, n - 1),
                    st.integers(-3, 3))
    for op, i, j, c in draw(st.lists(ops, max_size=12)):
        if op == 0 and i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return IntMatrix.from_rows(rows)


class TestSmithNormalForm:
    def test_identity(self):
        s = smith_normal_form(IntMatrix.identity(3))
        assert s.D == IntMatrix.identity(3)
        assert s.U == IntMatrix.identity(3)
        assert s.V == IntMatrix.identity(3)

    def test_diag_2_3(self):
        # minors oracle: gcd of 1-minors is 1, the only 2-minor is 6
        assert invariant_factors_by_minors([[2, 0], [0, 3]]) == [1, 6]
        s = smith_normal_form(M([[2, 0], [0, 3]]))
        assert s.D == M([[1, 0], [0, 6]])

    def test_tall_projective_relations(self):
        rows = [[1, 0], [0, 1], [-1, -1]]
        assert invariant_factors_by_minors(rows) == [1, 1]
        s = smith_normal_form(M(rows))
        assert s.D == M([[1, 0], [0, 1], [0, 0]])

    def test_empty(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            a = IntMatrix.zero(*shape)
            s = smith_normal_form(a)
            assert s.D == a
            assert s.U == IntMatrix.identity(shape[0])
            assert s.V == IntMatrix.identity(shape[1])

    @given(matrices)
    def test_properties(self, a):
        s = smith_normal_form(a)
        assert s.U @ a @ s.V == s.D
        assert abs(det_cofactor(s.U.entries)) == 1
        assert abs(det_cofactor(s.V.entries)) == 1
        d = s.invariant_factors()
        assert all(x > 0 for x in d)
        assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))
        diag = s.D.diagonal_entries()
        assert all(x == 0 for x in diag[len(d):])
        assert all(s.D.entries[i][j] == 0
                   for i in range(a.rows) for j in range(a.cols) if i != j)

    @given(matrices)
    def test_unique_against_minors_oracle(self, a):
        s = smith_normal_form(a)
        assert list(s.invariant_factors()) == invariant_factors_by_minors(
            [list(r) for r in a.entries])

    @given(matrices, st.randoms(use_true_random=False))
    def test_invariant_under_unimodular_change_of_basis(self, a, rnd):
        def random_unimodular(n):
            rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for _ in range(4):
                if n < 2:
                    break
                i, j = rnd.sample(range(n), 2)
                c = rnd.choice((-1, 1))
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            return IntMatrix.from_rows(rows)

        u = random_unimodular(a.rows)
        v = random_unimodular(a.cols)
        assert smith_normal_form(u @ a @ v).D == smith_normal_form(a).D

    def test_adversarial_entries(self):
        # large entries and awkward shapes must still reduce exactly
        a = M([[10**12, 10**9 + 7], [3, 10**15]])
        s = smith_normal_form(a)
        assert s.U @ a @ s.V == s.D
        assert abs(det_cofactor(s.U.entries)) == 1 and abs(det_cofactor(s.V.entries)) == 1
        b = M([[0, 1], [2, -1], [0, 0], [7, 7]])
        s = smith_normal_form(b)
        assert s.U @ b @ s.V == s.D
        d = s.invariant_factors()
        assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))

    @given(matrices)
    def test_rank_matches_fraction_free_elimination(self, a):
        assert smith_normal_form(a).rank() == a.rank()
        assert a.rank() == rank_fraction_gauss([list(r) for r in a.entries], a.cols)


class TestProducts:
    def test_empty_inner_dimension(self):
        assert IntMatrix.zero(2, 0) @ IntMatrix.zero(0, 3) == IntMatrix.zero(2, 3)

    def test_no_rows(self):
        assert IntMatrix.zero(0, 2) @ M([[1, 2, 3], [4, 5, 6]]) == IntMatrix.zero(0, 3)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            M([[1, 2]]) @ M([[1, 2]])
        with pytest.raises(ShapeError):
            M([[1, 2]]).apply((1, 2, 3))
        with pytest.raises(ShapeError):
            dot((1, 2), (1, 2, 3))
        with pytest.raises(ShapeError, match="row of length 1 in a 2x2 matrix"):
            IntMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ShapeError, match="expected 3 rows, got 2"):
            IntMatrix(3, 2, ((1, 2), (3, 4)))

    def test_apply_to_fractions(self):
        image = M([[2, 4], [0, 3]]).apply((Fraction(1, 2), Fraction(-1, 4)))
        assert image == (Fraction(0), Fraction(-3, 4))
        assert M([[2, 4], [0, 3]]).apply((Fraction(1, 2), 0)) == (1, 0)
        assert dot((2, 3), (Fraction(1, 2), Fraction(-1, 3))) == 0
        assert dot((Fraction(1, 3), 1), (Fraction(1, 2), 2)) == Fraction(13, 6)


def bareiss_det(rows):
    """The signed last Bareiss pivot, which is the determinant at full rank;
    saturation_basis's |det W| = 1 certificate reads it."""
    rank, pivot, _ = intlin._bareiss([list(r) for r in rows], len(rows))
    return pivot if rank == len(rows) else 0


class TestDeterminant:
    @given(st.integers(0, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(-10, 10), min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_matches_cofactor_expansion(self, rows):
        assert bareiss_det(rows) == det_cofactor(rows)

    def test_examples(self):
        assert bareiss_det([]) == 1
        assert bareiss_det([[0, 1], [1, 0]]) == -1
        assert bareiss_det([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 0


@st.composite
def square_matrices(draw):
    """n x n integer matrices, n from 0 to 8; about half are made singular by
    replacing a row with an integer combination of two others, or by zero."""
    n = draw(st.integers(0, 8))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n and draw(st.booleans()):
        k, i, j = (draw(st.integers(0, n - 1)) for _ in range(3))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])] if i != k != j else [0] * n
    return rows


class TestScaledInverse:
    @given(square_matrices())
    @settings(max_examples=300)
    @example([])
    @example([[0]])
    @example([[0, 1], [1, 0]])
    def test_agrees_with_the_fraction_oracle(self, rows):
        # M*X = c*I with c = det M, X = c * M^-1; None iff M is singular
        found = intlin._scaled_inverse(rows)
        inverse = inverse_fraction_gauss_jordan(rows)
        if inverse is None:
            assert found is None
            return
        c, columns = found
        assert c == det_fraction_gauss(rows)
        assert [list(row) for row in zip(*columns)] == [[c * x for x in row] for row in inverse]
        assert all(type(x) is int for column in columns for x in column)


class TestCokernel:
    def test_index_two_sublattice(self):
        cols = [(1, 1), (0, 2)]
        # brute-force coset enumeration on a window
        reps = []
        for x in range(4):
            for y in range(4):
                v = (x, y)
                if not any(brute_lattice_member(cols, [a - b for a, b in zip(v, r)])
                           for r in reps):
                    reps.append(v)
        assert len(reps) == 2
        orders = sorted(brute_divisibility_index(cols, r) for r in reps)
        assert orders == [1, 2]
        assert cokernel_invariants(M([[1, 0], [1, 2]])) == (0, (2,))

    def test_identity(self):
        assert cokernel_invariants(IntMatrix.identity(2)) == (0, ())

    def test_free_rank_one(self):
        a = M([[1, 0], [0, 1], [-1, -1]])
        assert rank_fraction_gauss([[1, 0], [0, 1], [-1, -1]], 2) == 2
        assert cokernel_invariants(a) == (1, ())

    @given(degenerate_matrices())
    @settings(max_examples=300)
    @example(IntMatrix.zero(0, 3))
    @example(IntMatrix.zero(3, 0))
    @example(M([[2, 1], [0, 3], [4, 5], [6, 0]]))
    @example(M([[2, 4, 4, 1], [-6, 6, 12, 3]]))
    @example(M([[1, 2, 3], [2, 4, 6], [1, 0, 1]]))
    @example(IntMatrix.zero(2, 3))
    def test_agrees_with_the_minors_oracle_on_every_shape(self, a):
        # no rows or columns, tall, wide, rank-deficient both ways, zero
        factors = invariant_factors_by_minors([list(row) for row in a.entries])
        assert cokernel_invariants(a) == (a.rows - len(factors), tuple(f for f in factors if f > 1))

    @pytest.mark.parametrize("rows, expected", [
        ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], (0, (2, 6, 12))),
        ([[2, 4, 4], [-6, 6, 12]], (0, (2, 6))),
        ([[2, -6], [4, 6], [4, 12]], (1, (2, 6))),
    ], ids=["square", "wide", "tall"])
    def test_full_rank_takes_no_smith_form_and_no_replay(self, rows, expected, count_calls):
        # square, wide and tall: one elimination modulo the pivot minor
        calls = count_calls(intlin, "smith_normal_form", "_replay", "_smith_elimination")
        assert cokernel_invariants(M(rows)) == expected
        assert calls == {"smith_normal_form": 0, "_replay": 0, "_smith_elimination": 1}

    @pytest.mark.parametrize("rows, expected", [
        ([[1, 2, 3], [0, 1, 4]], (0, ())), ([[3, 1], [5, 2], [7, 7]], (1, ())),
        ([], (0, ())), ([[], []], (2, ()))], ids=["wide", "tall", "no-rows", "no-columns"])
    def test_unit_pivot_minor_takes_no_elimination(self, rows, expected, count_calls):
        # at D = 1 the column lattice of B is all of Z^r
        calls = count_calls(intlin, "smith_normal_form", "_smith_elimination")
        assert cokernel_invariants(IntMatrix.from_rows(rows, cols=3 if rows == [] else None)) == expected
        assert calls == {"smith_normal_form": 0, "_smith_elimination": 0}

    def test_every_operation_meets_entries_reduced_below_the_modulus(self, monkeypatch):
        # the bound on coefficient growth: each row or column operation of an
        # elimination modulo D finds every entry already in [0, D)
        seen = []

        def watching(real):
            def operation(rows, op):
                seen.append((min(map(min, rows)), max(map(max, rows))))
                return real(rows, op)
            return operation

        for name in ("_row_op", "_col_op"):
            monkeypatch.setattr(intlin, name, watching(getattr(intlin, name)))
        for s in range(6):
            rng = random.Random(s)
            a = M([[rng.randint(-9, 9) for _ in range(8)] for _ in range(6)])
            modulus = abs(a._echelon[1])
            seen.clear()
            cokernel_invariants(a)
            assert seen and all(0 <= low and high < modulus for low, high in seen), s

    @staticmethod
    def _planted(monkeypatch, fault):
        # a fault planted into what the elimination modulo D returns
        real = intlin._smith_elimination

        def eliminate(a, modulus=0):
            return fault(*real(a, modulus), modulus)

        monkeypatch.setattr(intlin, "_smith_elimination", eliminate)

    @pytest.mark.parametrize("fault, message", [
        # a wrong logged operation: one extra row subtraction
        (lambda D, rows, cols, d: (D, rows + [(0, 1, 1)], cols), "does not give the diagonal"),
        # a non-unimodular 2x2 step, x*p + y*q = 2, which the replay meets first
        (lambda D, rows, cols, d: (D, [(0, 1, 1, 1, 1, 1)] + rows, cols), "not unimodular"),
        # a wrong d_1
        (lambda D, rows, cols, d: ([[(D[0][0] + 1) % d] + D[0][1:]] + D[1:], rows, cols),
         "does not give the diagonal"),
    ], ids=["wrong-operation", "non-unimodular-step", "wrong-d1"])
    def test_planted_fault_raises_arithmetic_error(self, fault, message, monkeypatch):
        self._planted(monkeypatch, fault)
        with pytest.raises(ArithmeticError, match=message):
            cokernel_invariants(M([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))

    def test_diagonal_outside_the_divisibility_chain_raises(self, monkeypatch):
        # the empty logs replay diag(2, 3) onto itself, but 2 does not divide 3
        self._planted(monkeypatch, lambda D, rows, cols, d: ([[2, 0], [0, 3]], [], []))
        with pytest.raises(ArithmeticError, match="divisibility chain"):
            cokernel_invariants(M([[2, 0], [0, 3]]))

    def test_modulus_that_is_not_a_minor_raises(self):
        # a planted last pivot 2 in place of det = 4: mod 2, diag(2, 2) reads
        # factors (2, 2), whose product does not divide 2
        a = M([[2, 0], [0, 2]])
        a.__dict__["_echelon"] = a._echelon[:1] + (2,) + a._echelon[2:]
        with pytest.raises(ArithmeticError, match="do not divide the minor 2"):
            cokernel_invariants(a)

    def test_pivot_minor_planted_into_the_record_raises(self):
        # a last pivot 3 planted into [[2]]'s record: modulo 3 the one factor
        # is gcd(2, 3) = 1 and the log, chain and product checks pass, but no
        # integer X has [[2]] * X = +-3 * I
        a = M([[2]])
        a.__dict__["_echelon"] = (1, 3, (0,), ((2,),), (0,))
        with pytest.raises(ArithmeticError, match="3 \\* Z\\^1 is not shown"):
            cokernel_invariants(a)

    @pytest.mark.parametrize("fault", [
        # column 0 of X plus column 1: no longer zero off the diagonal
        lambda c, X: (c, [[a + b for a, b in zip(X[0], X[1])]] + X[1:]),
        lambda c, X: (2 * c, X),
        lambda c, X: None,
    ], ids=["wrong-column", "wrong-scale", "singular"])
    def test_planted_scaled_inverse_raises(self, fault, monkeypatch):
        real = intlin._scaled_inverse
        monkeypatch.setattr(intlin, "_scaled_inverse", lambda rows: fault(*real(rows)))
        with pytest.raises(ArithmeticError, match="144 \\* Z\\^3 is not shown"):
            cokernel_invariants(M([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))

    def test_tall_matrix_certifies_on_its_swapped_pivot_rows(self):
        # Bareiss swaps rows 1 and 2 into place: the pivot minor is on rows
        # (1, 2) of A, where rows (0, 1) are singular
        a = M([[0, 0], [3, 0], [0, 6]])
        assert a._echelon[4] == (1, 2)
        assert cokernel_invariants(a) == (1, (3, 6))
        a = M([[0, 0], [3, 0], [0, 6]])
        a.__dict__["_echelon"] = a._echelon[:4] + ((0, 1),)
        with pytest.raises(ArithmeticError, match="do not give 18 \\* I"):
            cokernel_invariants(a)

    @pytest.mark.parametrize("n", [35, 40, 45])
    def test_corank_one_matrices_take_under_a_second(self, n):
        # ROADMAP item 3's 18 seeded (n-1) x n matrices; through the Smith form
        # with transforms, 14 s at n = 35 and over 25 s at n = 40
        for s in range(6):
            rng = random.Random(1000 * n + s)
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n - 1)]
            start = time.perf_counter()
            free, torsion = cokernel_invariants(M(rows))
            assert time.perf_counter() - start < 1, s
            # the order of the torsion is the gcd of the maximal minors
            assert (free, prod(torsion)) == (0, gcd(*minors_vector(rows, n))), s


@st.composite
def full_column_rank_matrices(draw):
    """n x k integer matrices of rank k, with n from k to k + 2."""
    k = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(st.integers(-10, 10), min_size=k, max_size=k),
                         min_size=k, max_size=k + 2))
    assume(rank_fraction_gauss(rows, k) == k)
    return IntMatrix.from_rows(rows, cols=k)


class TestKernel:
    def test_difference(self):
        [v] = kernel_basis(M([[1, -1]]))
        assert M([[1, -1]]).apply(v) == (0,)
        assert primitive_vector(v) == v
        assert v in [(1, 1), (-1, -1)]

    def test_injective(self):
        assert kernel_basis(IntMatrix.identity(2)) == []

    @given(full_column_rank_matrices())
    def test_full_column_rank_takes_no_smith_elimination(self, a):
        # A is injective iff it has full column rank, which the Bareiss rank
        # decides before any elimination
        calls = []
        real = intlin._smith_elimination
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intlin, "_smith_elimination",
                       lambda *args, **kw: calls.append(args) or real(*args, **kw))
            assert kernel_basis(a) == []
        assert calls == []

    @given(degenerate_matrices())
    @settings(max_examples=100)
    def test_is_the_trailing_columns_of_the_smith_transform(self, a):
        s = smith_normal_form(a)
        assert kernel_basis(a) == [s.V.column(j) for j in range(s.rank(), a.cols)]

    def test_takes_no_smith_form(self, count_calls):
        calls = count_calls(intlin, "smith_normal_form")
        assert len(kernel_basis(M([[1, 2, 3], [2, 4, 6]]))) == 2
        assert calls == {"smith_normal_form": 0}

    @pytest.mark.parametrize("corrupt", ["column", "rank"])
    def test_corrupt_transform_raises_arithmetic_error(self, corrupt, monkeypatch):
        real = intlin._smith_elimination

        def corrupted(a):
            D, rows, cols = real(a)
            if corrupt == "column":
                # one more logged column operation, col_last += col_0: a
                # kernel column of V no longer annihilated by A
                cols = cols + [(0, a.cols - 1, -1)]
            else:
                # a zero pivot: one kernel vector too many
                D[0][0] = 0
            return D, rows, cols

        monkeypatch.setattr(intlin, "_smith_elimination", corrupted)
        with pytest.raises(ArithmeticError):
            kernel_basis(M([[1, 2, 3], [2, 4, 6]]))

    @given(matrices)
    def test_saturated_and_annihilated(self, a):
        basis = kernel_basis(a)
        assert len(basis) == a.cols - a.rank()
        for v in basis:
            assert a.apply(v) == (0,) * a.rows
            assert primitive_vector(v) == v


@st.composite
def corank_one_shapes(draw):
    """(rows, d): a (d-1) x d integer matrix, rank-deficient about half the
    time, by a zero row or a row that combines two others."""
    d = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=d, max_size=d),
                         min_size=d - 1, max_size=d - 1))
    if rows and draw(st.booleans()):
        k = draw(st.integers(0, len(rows) - 1))
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])] if i != k != j \
            else [0] * d
    return rows, d


class TestKernelGenerator:
    @given(corank_one_shapes())
    @settings(max_examples=200)
    def test_agrees_with_kernel_basis_up_to_sign(self, shape):
        rows, d = shape
        basis = kernel_basis(IntMatrix.from_rows(rows, cols=d))
        u = kernel_generator(rows, d)
        if len(basis) == 1:
            assert u in (basis[0], tuple(-x for x in basis[0]))
        else:
            assert u is None

    def test_examples(self):
        assert kernel_generator([], 1) == (1,)
        assert kernel_generator([[2, 4]], 2) in [(2, -1), (-2, 1)]
        assert kernel_generator([[0, 0]], 2) is None
        assert kernel_generator([[1, 0], [0, 1]], 2) is None
        # the signed maximal minors of [[1, 2, 3], [4, 5, 6]] are (-3, 6, -3)
        assert kernel_generator([[1, 2, 3], [4, 5, 6]], 3) in [(1, -2, 1), (-1, 2, -1)]


class TestPrimitiveVector:
    def test_examples(self):
        assert primitive_vector((2, 4)) == (1, 2)
        assert primitive_vector((0, -3)) == (0, -1)
        assert gcd(6, gcd(10, 15)) == 1
        assert primitive_vector((6, 10, 15)) == (6, 10, 15)

    def test_zero_rejected(self):
        with pytest.raises(InvalidRayError):
            primitive_vector((0, 0, 0))

    def test_primitive_int_tuple_comes_back_as_it_is(self):
        v = (6, -10, 15)
        assert primitive_vector(v) is v
        # anything else is rebuilt as a tuple of plain ints
        for w in ([6, -10, 15], (True, False, True), (True, 2)):
            p = primitive_vector(w)
            assert type(p) is tuple and all(type(x) is int for x in p), w
        assert primitive_vector((True, False)) == (1, 0)

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=6),
           st.integers(1, 5))
    def test_scaling_invariance(self, v, k):
        if not any(v):
            return
        p = primitive_vector(v)
        assert primitive_vector([k * x for x in v]) == p
        g = 0
        for x in p:
            g = gcd(g, x)
        assert g == 1


class TestMembershipAndSolve:
    def test_membership_examples(self):
        L = M([[1, 1], [0, 2]])  # columns (1,0) and (1,2)
        assert brute_divisibility_index(L.columns(), (0, 1)) == 2
        assert lattice_membership(L, (0, 1)) is False
        assert divisibility_index(L, (0, 1)) == 2
        assert lattice_membership(IntMatrix.identity(3), (4, -5, 6)) is True
        assert divisibility_index(IntMatrix.identity(3), (4, -5, 6)) == 1
        L2 = M([[2], [0]])
        assert lattice_membership(L2, (1, 1)) is False
        assert divisibility_index(L2, (1, 1)) is None
        with pytest.raises(ShapeError):
            lattice_membership(L2, (1, 1, 1))

    def test_solve_examples(self):
        assert solve_integer(IntMatrix.identity(3), (7, -2, 0)) == (7, -2, 0)
        assert solve_integer(M([[2]]), (1,)) is None
        assert solve_integer(M([[1, 1], [0, 2]]), (0, 2)) == (-1, 1)
        with pytest.raises(ShapeError):
            solve_integer(IntMatrix.zero(2, 0), (1,))

    @given(matrices, st.data())
    def test_solve_roundtrip(self, a, data):
        x = data.draw(st.lists(st.integers(-7, 7), min_size=a.cols, max_size=a.cols))
        b = a.apply(x)
        s = solve_integer(a, b)
        assert s is not None
        assert a.apply(s) == b

    @given(matrices, st.data())
    def test_solve_scaled_takes_the_lcm_of_the_indices(self, a, data):
        # a right-hand side is either arbitrary or in the column lattice
        vectors = st.lists(st.integers(-8, 8), min_size=a.rows, max_size=a.rows)
        images = st.lists(st.integers(-3, 3), min_size=a.cols, max_size=a.cols).map(a.apply)
        rhs = data.draw(st.lists(st.one_of(vectors, images), min_size=1, max_size=3))
        indices = [divisibility_index(a, b) for b in rhs]
        solved = solve_scaled(a, rhs)
        if None in indices:
            assert solved is None
            return
        d, xs = solved
        assert d == lcm(*indices)
        assert [a.apply(x) for x in xs] == [tuple(d * t for t in b) for b in rhs]
        if d == 1:
            assert xs == [solve_integer(a, b) for b in rhs]
        else:
            assert any(solve_integer(a, b) is None for b in rhs)

    def test_solve_scaled_examples(self):
        # columns (1, 0) and (1, 2): (0, 1) has index 2 and (3, 2) is in the
        # lattice, so d = 2 for both
        L = M([[1, 1], [0, 2]])
        d, xs = solve_scaled(L, [(0, 1), (3, 2)])
        assert d == 2
        assert [L.apply(x) for x in xs] == [(0, 2), (6, 4)]
        assert solve_scaled(L, []) == (1, [])
        assert solve_scaled(M([[2], [0]]), [(2, 0), (1, 1)]) is None

    def test_wrong_hermite_transform_fails_substitution(self, monkeypatch):
        # H = A * V must hold for the back-substitution to solve A * x = d * b;
        # an empty column log replays to V = I
        real = intlin._column_hermite

        def identity_transform(a):
            h, pivots, _ = real(a)
            return h, pivots, []

        monkeypatch.setattr(intlin, "_column_hermite", identity_transform)
        with pytest.raises(ArithmeticError, match="fails substitution"):
            solve_scaled(M([[2, 1]]), [(1,)])
        with pytest.raises(ArithmeticError, match="fails substitution"):
            solve_integer(M([[2, 1]]), (1,))

    @given(degenerate_matrices(), st.data())
    @settings(max_examples=100)
    def test_solve_scaled_is_v_times_the_back_substitution(self, a, data):
        # the Hermite log replayed onto each y against the V that
        # column_hermite_normal_form builds; b / gcd(b) can need d > 1
        xs = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=a.cols,
                                         max_size=a.cols), max_size=3))
        rhs = [a.apply(x) for x in xs]
        rhs += [tuple(t // (gcd(*b) or 1) for t in b) for b in rhs]
        h, v, _ = column_hermite_normal_form(a)
        found = [intlin._back_substitute(h.entries, b, a.cols) for b in rhs]
        d = lcm(*(dj for dj, _ in found))
        assert solve_scaled(a, rhs) == (d, [v.apply([d // dj * t for t in y]) for dj, y in found])

    @given(matrices, st.data())
    def test_membership_routes_agree(self, a, data):
        # Hermite back-substitution against the index read off U and D of the
        # Smith form: d*v is in the lattice iff d*(U*v)_i is divisible by d_i
        # below the rank and (U*v)_i = 0 from the rank on
        v = data.draw(st.lists(st.integers(-8, 8), min_size=a.rows, max_size=a.rows))
        s = smith_normal_form(a)
        w = s.U.apply(v)
        smith_index = None
        if not any(w[s.rank():]):
            smith_index = 1
            for d, x in zip(s.invariant_factors(), w):
                smith_index = lcm(smith_index, d // gcd(d, x))
        index = divisibility_index(a, v)
        assert index == smith_index
        assert lattice_membership(a, v) == (index == 1)
        if index is not None:
            assert lattice_membership(a, [index * x for x in v])

    @given(st.integers(0, 2).flatmap(lambda n: st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=2).map(
            lambda rows: IntMatrix.from_rows(rows, cols=n))), st.data())
    @settings(max_examples=25)
    def test_index_matches_brute_force_on_tiny_lattices(self, a, data):
        # with entries in [-2, 2] the index is at most 8 and every solution
        # has coefficients far inside the oracle's search box
        v = data.draw(st.lists(st.integers(-2, 2), min_size=a.rows, max_size=a.rows))
        assert divisibility_index(a, v) == brute_divisibility_index(a.columns(), v)

    @pytest.mark.parametrize("basis", [[[0, 1], [1, 0]], [[1, 1], [0, 1]]],
                             ids=["pivot_rows_unordered", "row_echelon"])
    def test_back_substitution_rejects_a_basis_out_of_form(self, basis):
        with pytest.raises(ValueError, match="not column echelon"):
            intlin._back_substitute(basis, (1, 1), 2)

    def test_membership_in_an_echelon_basis_out_of_hermite_form(self):
        # a negative pivot, an unreduced entry and a zero column leave the
        # lattice and the verdict as they are
        H = M([[-2, 0, 0], [3, 1, 0]])
        assert lattice_membership(H, (2, 0)) is True
        assert lattice_membership(H, (1, 0)) is False
        assert lattice_membership(H, (0, 5)) is True

    def test_takes_no_normal_form_with_transforms(self, count_calls):
        calls = count_calls(intlin, "smith_normal_form", "column_hermite_normal_form")
        L = M([[1, 1], [0, 2]])
        assert divisibility_index(L, (0, 1)) == 2
        assert lattice_membership(L, (1, 2)) is True
        assert calls == {"smith_normal_form": 0, "column_hermite_normal_form": 0}


class TestHermite:
    @given(matrices)
    def test_factorization(self, a):
        h, v, pivots = column_hermite_normal_form(a)
        assert a @ v == h
        assert abs(det_cofactor(v.entries)) == 1
        rows_seen = [i for i, _ in pivots]
        assert rows_seen == sorted(rows_seen)
        for i, c in pivots:
            assert h.entries[i][c] > 0
            for j in range(c):
                assert 0 <= h.entries[i][j] < h.entries[i][c]
        # the elimination without V leaves the same pivot columns
        assert lattice_canonical_form(a) == IntMatrix.from_columns(
            [h.column(c) for _, c in pivots], rows=a.rows)

    @given(matrices)
    def test_canonical_form_is_lattice_invariant(self, a):
        # permuting / negating generator columns leaves the canonical form alone
        cols = a.columns()
        shuffled = IntMatrix.from_columns(
            [tuple(-x for x in c) for c in reversed(cols)], rows=a.rows)
        assert lattice_canonical_form(a) == lattice_canonical_form(shuffled)


class TestConstruction:
    @given(degenerate_matrices())
    def test_every_result_goes_through_init(self, a):
        built = []
        real = IntMatrix.__init__

        def counting(self, *args):
            built.append(self)
            real(self, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(IntMatrix, "__init__", counting)
            # results built from no other matrix: one construction each
            t = a.transpose()
            product = a @ t
            h, v, _ = column_hermite_normal_form(a)
            canonical = lattice_canonical_form(a)
            assert len(built) == 5
            # the Smith form's check multiplies twice; a saturation builds
            # only its basis, its certificate runs on row lists
            snf = smith_normal_form(a)
            assert len(built) == 5 + 3 + 2
            sat = saturation_basis(a)
            assert len(built) == 10 + 1
        results = [t, product, h, v, canonical, snf.U, snf.D, snf.V, sat]
        assert all(any(r is b for b in built) for r in results)
        assert all(type(x) is int for r in results for row in r.entries for x in row)

    def test_from_rows_coerces_user_entries(self):
        m = IntMatrix.from_rows([[True, 2]])
        assert m.entries == ((1, 2),)
        assert type(m.entries[0][0]) is int
        assert type(IntMatrix.from_columns([[True], [False]]).entries[0][1]) is int

    @pytest.mark.parametrize("build", [IntMatrix.from_rows, IntMatrix.from_columns])
    @pytest.mark.parametrize("entry", [0.5, 1.9, 2.0, Fraction(7, 2), Fraction(2), "3"])
    def test_non_integer_entries_are_refused(self, build, entry):
        # int() would truncate 1.9 to 1 and 7/2 to 3, and parse "3"
        with pytest.raises(TypeError):
            build([[entry, 1], [0, 2]])

    @pytest.mark.parametrize("cols, rows, message", [
        ([[1, 2, 3]], 2, "column 0 has length 3, expected 2"),
        ([[1, 2], [3, 4, 5]], None, "column 1 has length 3, expected 2"),
        ([[1, 2, 3], [4, 5]], None, "column 1 has length 2, expected 3"),
    ], ids=["cols0-2", "cols1-None", "cols2-None"])
    def test_columns_of_the_wrong_length_are_refused(self, cols, rows, message):
        # neither cut to the expected length nor an IndexError, and the
        # message names the column, not a row of the transpose
        with pytest.raises(ShapeError, match=f"^{message}$"):
            IntMatrix.from_columns(cols, rows)


class TestSaturationAndInverse:
    def test_invert_unimodular(self, count_calls):
        # one solve against the identity, which forms no Hermite transform V
        u = M([[1, 2], [0, 1]])
        calls = count_calls(intlin, "column_hermite_normal_form", "solve_scaled")
        assert u @ invert_unimodular(u) == IntMatrix.identity(2)
        assert calls == {"column_hermite_normal_form": 0, "solve_scaled": 1}

    @given(unimodular_matrices())
    def test_inverse_of_random_unimodular(self, u):
        inv = invert_unimodular(u)
        assert u @ inv == inv @ u == IntMatrix.identity(u.rows)

    @pytest.mark.parametrize("rows", [
        [[2]], [[1, 1], [1, 1]], [[2, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]]])
    def test_invert_rejects_non_unimodular(self, rows):
        with pytest.raises(ShapeError):
            invert_unimodular(M(rows))

    def test_saturation_forms_no_inverse(self, count_calls):
        calls = count_calls(intlin, "column_hermite_normal_form", "solve_integer",
                            "invert_unimodular")
        saturation_basis(M([[2, 4, 0], [0, 6, 3], [1, 1, 1], [3, 0, 2]]))
        assert calls == {"column_hermite_normal_form": 0, "solve_integer": 0,
                         "invert_unimodular": 0}

    @given(degenerate_matrices())
    @settings(max_examples=100)
    def test_saturation_is_the_leading_columns_of_u_inverse(self, a):
        # U^-1 by rational Gauss-Jordan elimination, not by the library
        s = smith_normal_form(a)
        u_inv = inverse_fraction_gauss_jordan(s.U.entries)
        assert [list(row) for row in saturation_basis(a).entries] == [
            row[:s.rank()] for row in u_inv]

    @pytest.mark.parametrize("corrupt", ["factor", "past_rank"])
    def test_corrupt_smith_form_raises_arithmetic_error(self, corrupt, monkeypatch):
        real = intlin._smith_elimination

        def corrupted(a):
            D, rows, cols = real(a)
            if corrupt == "factor":
                # a logged row operation that triples row 0: U^-1 is not
                # unimodular
                return D, rows + [(0, 1, 3, 0, 1, 0)], cols
            # rank 1 claimed for a rank-2 matrix, on a copy of D
            D = [list(row) for row in D]
            D[1][1] = 0
            return D, rows, cols

        monkeypatch.setattr(intlin, "_smith_elimination", corrupted)
        with pytest.raises(ArithmeticError):
            saturation_basis(M([[1, 0], [0, 2]]))
        monkeypatch.undo()
        # a fresh instance: the corrupted elimination stays on the one above
        assert saturation_basis(M([[1, 0], [0, 2]])) == IntMatrix.identity(2)

    @pytest.mark.parametrize("fault, message", [
        ("doubled_column", "not unimodular"), ("rank_too_large", "Bareiss rank"),
        ("misses_span", "miss the span")])
    def test_certificate_rejects_a_wrong_basis(self, fault, message, monkeypatch):
        # each part of the certificate on its own: |det W| = 1, the Bareiss
        # rank of A, and rank [B | A] = rho, for W = U^-1 and B its first
        # rho columns
        real_elimination, real_replay = intlin._smith_elimination, intlin._replay

        def elimination(a):
            D, rows, cols = real_elimination(a)
            if fault == "rank_too_large":
                D = [list(row) for row in D]
                D[1][1] = 1
            return D, rows, cols

        def replay(log, rows, how=""):
            # saturation_basis replays W^T, whose rows are the columns of W
            Wt = real_replay(log, rows, how)
            if fault == "doubled_column":
                Wt[0] = [2 * x for x in Wt[0]]
            elif fault == "misses_span":
                Wt[0], Wt[-1] = Wt[-1], Wt[0]
            return Wt

        monkeypatch.setattr(intlin, "_smith_elimination", elimination)
        monkeypatch.setattr(intlin, "_replay", replay)
        with pytest.raises(ArithmeticError, match=message):
            saturation_basis(M([[1, 2], [2, 4], [0, 0]]))
        monkeypatch.undo()
        # a fresh instance: the corrupted elimination stays on the one above
        assert saturation_basis(M([[1, 2], [2, 4], [0, 0]])) == M([[1], [2], [0]])

    def test_saturation_of_doubled_lattice(self):
        sat = saturation_basis(M([[2], [0]]))
        assert sat.cols == 1
        assert sat.column(0) in [(1, 0), (-1, 0)]

    @given(matrices)
    def test_saturation_spans_and_is_saturated(self, a):
        sat = saturation_basis(a)
        assert sat.cols == a.rank()
        # every original column is an integer combination of the basis
        for c in a.columns():
            assert solve_integer(sat, c) is not None
        assert cokernel_invariants(sat)[1] == ()


class TestEliminationMemo:
    """One Smith elimination, one Hermite elimination and one Bareiss rank
    per instance serve every public function; every check still runs."""

    @staticmethod
    def _count_ranks(monkeypatch, a):
        # the Bareiss calls that eliminate A itself, whatever the caller
        ranks = []
        real = intlin._bareiss

        def counting(rows, cols, *order):
            if rows == [list(row) for row in a.entries]:
                ranks.append(cols)
            return real(rows, cols, *order)

        monkeypatch.setattr(intlin, "_bareiss", counting)
        return ranks

    def test_smith_questions_take_one_elimination(self, monkeypatch):
        # a, rank-deficient both ways, answers every Smith question from one
        # integer elimination; b, of full rank, answers the same questions
        # from one integer elimination and its cokernel from one more, modulo
        # |det b| = 144; one Bareiss per instance serves rank, kernel,
        # saturation and modulus
        a = M([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        b = M([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        seen = []
        real = intlin._smith_elimination
        monkeypatch.setattr(intlin, "_smith_elimination",
                            lambda x, modulus=0: seen.append((x, modulus)) or real(x, modulus))
        ranks = self._count_ranks(monkeypatch, a), self._count_ranks(monkeypatch, b)
        for x, expected in ((a, (1, (2,))), (b, (0, (2, 6, 12)))):
            s = smith_normal_form(x)
            assert len(kernel_basis(x)) == 3 - s.rank()
            assert saturation_basis(x).cols == s.rank()
            assert cokernel_invariants(x) == expected
            assert x.rank() == s.rank()
        assert [(x is a, x is b, modulus) for x, modulus in seen] == [
            (True, False, 0), (False, True, 0), (False, True, 144)]
        assert [len(r) for r in ranks] == [1, 1]

    def test_hermite_questions_take_one_elimination(self, count_calls):
        a = M([[2, 4, 0], [0, 6, 3]])
        calls = count_calls(intlin, "_column_hermite")
        H, V, _ = column_hermite_normal_form(a)
        assert a @ V == H
        assert solve_integer(a, (2, 3)) is not None
        assert lattice_canonical_form(a).cols == 2
        assert divisibility_index(a, (1, 0)) == 2
        assert calls == {"_column_hermite": 1}

    def test_ladder_op_takes_one_of_each(self, count_calls, monkeypatch):
        # the five questions perfbench's lattice_ladder asks of one matrix
        a = M([[3, 1, 4, 1, 5], [9, 2, 6, 5, 3], [6, 1, 2, -4, -2]])
        calls = count_calls(intlin, "_smith_elimination", "_column_hermite")
        ranks = self._count_ranks(monkeypatch, a)
        smith_normal_form(a)
        column_hermite_normal_form(a)
        assert len(kernel_basis(a)) == 2
        saturation_basis(a)
        solve_integer(a, (1, 0, 0))
        assert calls == {"_smith_elimination": 1, "_column_hermite": 1}
        assert len(ranks) == 1

    def test_equal_instances_eliminate_separately(self, count_calls, monkeypatch):
        rows = [[1, 2, 3], [2, 4, 6]]
        a, b = M(rows), M(rows)
        assert a == b and a is not b
        calls = count_calls(intlin, "_smith_elimination", "_column_hermite")
        ranks = self._count_ranks(monkeypatch, a)
        for x in (a, b, a, b):
            kernel_basis(x)
            smith_normal_form(x)
            lattice_canonical_form(x)
        assert calls == {"_smith_elimination": 2, "_column_hermite": 2}
        assert len(ranks) == 2

    QUESTIONS = {
        "smith": lambda a, b: smith_normal_form(a),
        "hermite": lambda a, b: column_hermite_normal_form(a),
        "kernel": lambda a, b: kernel_basis(a),
        "saturation": lambda a, b: saturation_basis(a),
        "cokernel": lambda a, b: cokernel_invariants(a),
        "canonical": lambda a, b: lattice_canonical_form(a),
        "rank": lambda a, b: a.rank(),
        "solve": lambda a, b: solve_integer(a, b),
        "scaled": lambda a, b: solve_scaled(a, [b]),
        "index": lambda a, b: divisibility_index(a, b),
        "inverse": lambda a, b: invert_unimodular(a),
        "minors": lambda a, b: a.kernel_minors(),
    }

    @staticmethod
    def _ask(question, a, b):
        try:
            return question(a, b)
        except ShapeError as e:
            return type(e)

    @given(degenerate_matrices(), st.data())
    @settings(max_examples=60)
    def test_any_order_on_one_instance_answers_as_fresh_instances(self, a, data):
        b = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=a.rows, max_size=a.rows)))
        names = data.draw(st.lists(st.sampled_from(sorted(self.QUESTIONS)), min_size=1,
                                   max_size=15))
        for name in names:
            fresh = IntMatrix.from_rows(a.entries, cols=a.cols)
            question = self.QUESTIONS[name]
            assert self._ask(question, a, b) == self._ask(question, fresh, b), name

    @pytest.mark.parametrize("ask", [smith_normal_form, kernel_basis])
    def test_planted_bad_smith_memo_is_caught(self, ask):
        # a wrong column log kept on the instance: a memo hit skips no check
        a = M([[1, 2, 3], [2, 4, 6]])
        D, rows, cols = a._smith
        a.__dict__["_smith"] = (D, rows, cols + ((0, a.cols - 1, -1),))
        with pytest.raises(ArithmeticError):
            ask(a)

    def test_planted_bad_rank_is_caught(self):
        a = M([[1, 2, 3], [2, 4, 6]])
        a.__dict__["_echelon"] = (2,) + a._echelon[1:]
        with pytest.raises(ArithmeticError, match="generators"):
            kernel_basis(a)
        with pytest.raises(ArithmeticError, match="Bareiss rank"):
            saturation_basis(a)

    def test_planted_bad_hermite_memo_fails_substitution(self):
        # an empty column log replays to V = I
        a = M([[2, 1]])
        H, pivots, _ = a._hermite
        a.__dict__["_hermite"] = (H, pivots, ())
        with pytest.raises(ArithmeticError, match="fails substitution"):
            solve_scaled(a, [(1,)])

    def test_planted_bad_hermite_memo_fails_inversion(self):
        # H = I is kept, but an empty column log replays to X = I, and A * I != I
        a = M([[1, 2], [0, 1]])
        H, pivots, _ = a._hermite
        a.__dict__["_hermite"] = (H, pivots, ())
        with pytest.raises(ArithmeticError, match="fails substitution"):
            invert_unimodular(a)

    def test_memo_is_frozen(self):
        a = M([[2, 4], [6, 8]])
        for D, first, second in (a._smith, a._hermite):
            assert type(D) is tuple and all(type(row) is tuple for row in D)
            assert type(first) is tuple and type(second) is tuple
        _, _, pivots, rows, pivot_rows = a._echelon
        assert type(pivots) is tuple and all(type(row) is tuple for row in rows)
        assert type(pivot_rows) is tuple


@dataclass(frozen=True)
class Doubling:
    """A frozen dataclass, as IntMatrix is, whose `doubled` logs each computation."""

    x: int
    log: list

    @instance_memo
    def doubled(self):
        """Twice x."""
        self.log.append(self.x)
        return 2 * self.x


class TestInstanceMemo:
    def test_computed_once_per_instance_and_not_shared_by_equal_ones(self):
        log = []
        a, b = Doubling(3, log), Doubling(3, log)
        assert a == b
        assert (a.doubled, a.doubled) == (6, 6)
        assert log == [3]
        assert a.__dict__["doubled"] == 6 and "doubled" not in b.__dict__
        assert b.doubled == 6
        assert log == [3, 3]

    def test_the_class_attribute_is_the_descriptor(self):
        assert isinstance(Doubling.doubled, instance_memo)
        assert Doubling.doubled.__doc__ == "Twice x."
        for name in ("_echelon", "_smith", "_hermite"):
            assert isinstance(getattr(IntMatrix, name), instance_memo)

    def test_a_value_planted_in_the_instance_dict_is_read_as_it_is(self):
        log = []
        a = Doubling(3, log)
        a.__dict__["doubled"] = 7
        assert a.doubled == 7
        assert log == []


class TestGcdTransform:
    @given(st.lists(st.integers(-30, 30), max_size=6))
    def test_is_the_row_transform_of_the_smith_form_of_a_column(self, v):
        u = gcd_transform(v)
        assert u == smith_normal_form(IntMatrix.from_columns([v], rows=len(v))).U
        assert u.apply(v) == ((gcd(*v),) + (0,) * len(v))[:len(v)]
        assert all(type(x) is int for row in u.entries for x in row)

    def test_zero_and_empty_vectors(self):
        assert gcd_transform((0, 0, 0)) == IntMatrix.identity(3)
        assert gcd_transform(()) == IntMatrix.identity(0)

    def test_planted_bad_row_log_is_caught(self, monkeypatch):
        # a swap appended to the row log moves g out of row 0
        real = intlin._smith_elimination

        def swapped(a):
            D, rows, cols = real(a)
            return D, rows + [(0, 1)], cols

        monkeypatch.setattr(intlin, "_smith_elimination", swapped)
        with pytest.raises(ArithmeticError, match="does not send"):
            gcd_transform((2, 3))

    def test_eliminates_once_and_keeps_nothing_on_its_column(self, monkeypatch):
        # the throwaway column is eliminated directly: no Smith record is
        # frozen onto an instance that nothing reads again
        columns = []
        real = intlin._smith_elimination
        monkeypatch.setattr(intlin, "_smith_elimination",
                            lambda a, *modulus: columns.append(a) or real(a, *modulus))
        assert gcd_transform((4, 6, -10)).apply((4, 6, -10)) == (2, 0, 0)
        assert [c.entries for c in columns] == [((4,), (6,), (-10,))]
        assert "_smith" not in columns[0].__dict__


class TestSmithRowTransform:
    @given(degenerate_matrices())
    @settings(max_examples=150)
    def test_is_the_u_of_the_smith_form_with_the_minors_diagonal(self, a):
        u, d = smith_row_transform(a)
        assert u == smith_normal_form(a).U
        assert list(d) == invariant_factors_by_minors([list(r) for r in a.entries])

    def test_builds_no_v(self, monkeypatch):
        # one replay, of the row log onto the 3 x 3 identity; none of the column log
        calls = []
        real = intlin._replay
        monkeypatch.setattr(intlin, "_replay", lambda log, rows, how="":
                            calls.append((log, len(rows))) or real(log, rows, how))
        a = M([[2, 4], [6, 8], [1, 1]])
        assert smith_row_transform(a)[1] == (1, 2)
        assert calls == [(a._smith[1], 3)]

    @pytest.mark.parametrize("rows, plant, match", [
        # row 1 of U*A lands past the rank
        ([[1, 0], [0, 2], [0, 0]], lambda u: [u[0], u[2], u[1]], "not zero past row 2"),
        # the one row read, doubled: Z/2 is no longer reached
        ([[2]], lambda u: [[2 * x for x in u[0]]], "does not map"),
        # the free row, doubled: Z is no longer reached
        ([[1], [1]], lambda u: [u[0], [2 * x for x in u[1]]], "does not map"),
    ], ids=["past-the-rank", "torsion-row", "free-row"])
    def test_planted_wrong_u_raises(self, rows, plant, match, monkeypatch):
        real = intlin._row_transform
        monkeypatch.setattr(intlin, "_row_transform",
                            lambda log, m: M(plant([list(r) for r in real(log, m).entries])))
        with pytest.raises(ArithmeticError, match=match):
            smith_row_transform(M(rows))

    def test_planted_wrong_diagonal_raises(self):
        a = M([[1, 0], [0, 2]])
        D, rows, cols = a._smith
        a.__dict__["_smith"] = (((1, 0), (0, 4)), rows, cols)
        with pytest.raises(ArithmeticError, match="not zero past row 2 and divisible"):
            smith_row_transform(a)
