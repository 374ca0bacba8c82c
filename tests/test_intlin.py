from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxtoric.errors import InvalidRayError, ShapeError
from coxtoric.intlin import (
    IntMatrix,
    cokernel_invariants,
    column_hermite_normal_form,
    divisibility_index,
    invert_unimodular,
    kernel_basis,
    lattice_canonical_form,
    lattice_membership,
    primitive_vector,
    saturation_basis,
    smith_normal_form,
    solve_integer,
)
from oracles import (
    brute_divisibility_index,
    brute_lattice_member,
    det_cofactor,
    invariant_factors_by_minors,
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
        assert s.D == IntMatrix.diagonal([1, 6])

    def test_tall_projective_relations(self):
        rows = [[1, 0], [0, 1], [-1, -1]]
        assert invariant_factors_by_minors(rows) == [1, 1]
        s = smith_normal_form(M(rows))
        assert s.D == IntMatrix.diagonal([1, 1], rows=3, cols=2)

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
        assert abs(s.U.det()) == 1
        assert abs(s.V.det()) == 1
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
        assert abs(s.U.det()) == 1 and abs(s.V.det()) == 1
        b = M([[0, 1], [2, -1], [0, 0], [7, 7]])
        s = smith_normal_form(b)
        assert s.U @ b @ s.V == s.D
        d = s.invariant_factors()
        assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))

    @given(matrices)
    def test_rank_matches_fraction_free_elimination(self, a):
        assert smith_normal_form(a).rank() == a.rank()
        assert a.rank() == rank_fraction_gauss([list(r) for r in a.entries], a.cols)


class TestDeterminant:
    @given(st.integers(0, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(-10, 10), min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_matches_cofactor_expansion(self, rows):
        assert IntMatrix.from_rows(rows, cols=len(rows)).det() == det_cofactor(rows)

    def test_examples(self):
        assert IntMatrix.zero(0, 0).det() == 1
        assert M([[0, 1], [1, 0]]).det() == -1
        assert M([[1, 2, 3], [2, 4, 6], [0, 0, 1]]).det() == 0
        with pytest.raises(ShapeError):
            M([[1, 2]]).det()


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


class TestKernel:
    def test_difference(self):
        [v] = kernel_basis(M([[1, -1]]))
        assert M([[1, -1]]).apply(v) == (0,)
        assert primitive_vector(v) == v
        assert v in [(1, 1), (-1, -1)]

    def test_injective(self):
        assert kernel_basis(IntMatrix.identity(2)) == []

    @given(matrices)
    def test_saturated_and_annihilated(self, a):
        basis = kernel_basis(a)
        assert len(basis) == a.cols - a.rank()
        for v in basis:
            assert a.apply(v) == (0,) * a.rows
            assert primitive_vector(v) == v


class TestPrimitiveVector:
    def test_examples(self):
        assert primitive_vector((2, 4)) == (1, 2)
        assert primitive_vector((0, -3)) == (0, -1)
        assert gcd(6, gcd(10, 15)) == 1
        assert primitive_vector((6, 10, 15)) == (6, 10, 15)

    def test_zero_rejected(self):
        with pytest.raises(InvalidRayError):
            primitive_vector((0, 0, 0))

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

    def test_solve_examples(self):
        assert solve_integer(IntMatrix.identity(3), (7, -2, 0)) == (7, -2, 0)
        assert solve_integer(M([[2]]), (1,)) is None
        assert solve_integer(M([[1, 1], [0, 2]]), (0, 2)) == (-1, 1)

    @given(matrices, st.data())
    def test_solve_roundtrip(self, a, data):
        x = data.draw(st.lists(st.integers(-7, 7), min_size=a.cols, max_size=a.cols))
        b = a.apply(x)
        s = solve_integer(a, b)
        assert s is not None
        assert a.apply(s) == b

    @given(matrices, st.data())
    def test_membership_routes_agree(self, a, data):
        # Hermite-backed membership vs the Smith-form divisibility index
        v = data.draw(st.lists(st.integers(-8, 8), min_size=a.rows, max_size=a.rows))
        member = lattice_membership(a, v)
        index = divisibility_index(a, v)
        assert member == (index == 1)
        if index is not None:
            assert lattice_membership(a, [index * x for x in v])


class TestHermite:
    @given(matrices)
    def test_factorization(self, a):
        h, v, pivots = column_hermite_normal_form(a)
        assert a @ v == h
        assert abs(v.det()) == 1
        rows_seen = [i for i, _ in pivots]
        assert rows_seen == sorted(rows_seen)
        for i, c in pivots:
            assert h.entries[i][c] > 0
            for j in range(c):
                assert 0 <= h.entries[i][j] < h.entries[i][c]

    @given(matrices)
    def test_canonical_form_is_lattice_invariant(self, a):
        # permuting / negating generator columns leaves the canonical form alone
        cols = a.columns()
        shuffled = IntMatrix.from_columns(
            [tuple(-x for x in c) for c in reversed(cols)], rows=a.rows)
        assert lattice_canonical_form(a) == lattice_canonical_form(shuffled)


class TestSaturationAndInverse:
    def test_invert_unimodular(self):
        u = M([[1, 2], [0, 1]])
        assert u @ invert_unimodular(u) == IntMatrix.identity(2)

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
