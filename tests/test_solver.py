from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coincidence_lab import (
    CoincidencePoint,
    DimensionMismatch,
    IntegerMatrix,
    NonTransverse,
    PointSet,
    index_sum,
    multi_class_torus,
    solve_coincidences,
    stacked_difference,
    TorusMapModel,
)
from coincidence_lab.solver import format_coordinate

from _oracles import closure_numerators, perm_det, random_transverse_system


def system(*rows_list, translations=()):
    return TorusMapModel.from_matrices(
        [IntegerMatrix(rows) for rows in rows_list], translations
    )


def coords(point):
    return tuple(str(c) for c in point.coordinates)


# --- spec'd example systems ---------------------------------------------------


def test_unique_solution_system():
    maps = system([[0, 0]], [[2, 1]], [[1, 1]])
    points = solve_coincidences(maps)
    assert [coords(p) for p in points] == [("0", "0")]
    assert points[0].local_index == 1
    assert index_sum(points) == 1


def test_six_point_diagonal_system():
    maps = system([[0, 0]], [[2, 0]], [[0, 3]])
    points = solve_coincidences(maps)
    expected = sorted(
        (Fraction(a, 2), Fraction(b, 3)) for a in range(2) for b in range(3)
    )
    assert [p.coordinates for p in points] == expected
    assert all(p.local_index == 1 for p in points)
    assert index_sum(points) == 6


def test_negative_determinant_flips_indices():
    # stacked difference diag(-2, 1): two points, each of index -1
    maps = system([[0, 0]], [[-2, 0]], [[0, 1]])
    points = solve_coincidences(maps)
    assert len(points) == 2
    assert all(p.local_index == -1 for p in points)
    assert index_sum(points) == -2


def test_translations_shift_the_points():
    # 2x = 1/2 on the circle: x in {1/4, 3/4}
    maps = system([[0]], [[2]], translations=[(0,), (Fraction(1, 2),)])
    points = solve_coincidences(maps)
    assert [p.coordinates for p in points] == [(Fraction(1, 4),), (Fraction(3, 4),)]
    assert index_sum(points) == 2


def test_enumeration_budget(monkeypatch):
    from coincidence_lab import EnumerationLimit, solver

    def refuse(*args, **kwargs):
        raise AssertionError("the solver worked past the budget check")

    monkeypatch.setattr(solver, "_adjugate", refuse)
    maps = system([[0, 0]], [[501, 0]], [[0, 500]])  # 250,500 points
    with pytest.raises(EnumerationLimit, match="250500 points") as refused:
        solve_coincidences(maps)
    assert refused.value.det == 250500


def test_non_transverse_is_an_error():
    maps = system([[0, 0]], [[1, 0]], [[1, 0]])
    with pytest.raises(NonTransverse):
        solve_coincidences(maps)
    identical = system([[1]], [[1]])
    with pytest.raises(NonTransverse):
        solve_coincidences(identical)


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        solve_coincidences(system([[1, 0]]))
    with pytest.raises(DimensionMismatch):
        solve_coincidences(system([[1, 0]], [[1]]))
    with pytest.raises(DimensionMismatch):
        # m = 3 but (k-1)*n = 2
        solve_coincidences(system([[0, 0, 0]], [[1, 0, 0]], [[0, 1, 0]]))


def test_index_sum_plumbing():
    assert index_sum([]) == 0
    pts = [
        CoincidencePoint((Fraction(0),), -1),
        CoincidencePoint((Fraction(1, 2),), -1),
    ]
    assert index_sum(pts) == -2


def test_point_validation():
    with pytest.raises(ValueError):
        CoincidencePoint((Fraction(0),), 0)
    with pytest.raises(ValueError):
        CoincidencePoint((Fraction(3, 2),), 1)


def test_point_set_is_a_lazy_sequence():
    points = solve_coincidences(system([[0, 0]], [[-2, 0]], [[0, 3]]))
    assert isinstance(points, PointSet)
    assert (points.denominator, points.local_index) == (6, -1)
    assert tuple(points.numerators) == ((0, 0), (0, 2), (0, 4), (3, 0), (3, 2), (3, 4))
    assert points[-1] == CoincidencePoint((Fraction(1, 2), Fraction(2, 3)), -1)
    assert list(points) == [points[i] for i in range(len(points))]
    with pytest.raises(IndexError):
        points[6]


def test_point_set_walks_its_basis_in_order():
    # offset (1, 3) plus the span of (2, 4) and (0, 3) modulo 6; the top row's
    # radix-3 multiple 3 * (2, 4) = (0, 0) mod 6 needs no fold
    points = PointSet(6, (1, 3), ((2, 4), (0, 3)), 1)
    assert len(points) == 6
    assert tuple(points.numerators) == ((1, 0), (1, 3), (3, 1), (3, 4), (5, 2), (5, 5))
    assert [p.coordinates for p in points] == [
        tuple(Fraction(v, 6) for v in nums) for nums in points.numerators
    ]
    # a pivot equal to the denominator is a zero row: one point per level
    assert tuple(PointSet(6, (1, 5), ((6, 0), (0, 6)), 1).numerators) == ((1, 5),)


@pytest.mark.parametrize(
    "offset, basis, index, fragment",
    [
        ((0, 0), ((2, 0), (0, 3)), 0, "local index"),
        ((0, 6), ((2, 0), (0, 3)), 1, "offset numerator is not reduced"),
        ((0, -1), ((2, 0), (0, 3)), 1, "offset numerator is not reduced"),
        ((0, 0), ((2, 0), (1, 3)), 1, "row 1 is nonzero before its pivot"),
        ((0, 0), ((4, 0), (0, 3)), 1, "pivot 4 does not divide 6"),
        ((0, 0), ((2, 0), (0, 0)), 1, "pivot 0 does not divide 6"),
    ],
)
def test_point_set_constructor_checks_its_basis(offset, basis, index, fragment):
    with pytest.raises(ValueError, match=fragment):
        PointSet(6, offset, basis, index)


# every (m, n) with m = (k - 1) n <= 8
SHAPES = [(q * n, n) for n in range(1, 9) for q in range(1, 8 // n + 1)]


@pytest.mark.parametrize("m, n", SHAPES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_walk_lists_the_closure_in_order(m, n, data):
    k = m // n + 1
    entries = st.lists(st.integers(-1, 1), min_size=m, max_size=m)
    rational = st.builds(Fraction, st.integers(0, 5), st.integers(1, 6))
    matrices = [data.draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(k)]
    translations = [data.draw(st.tuples(*[rational] * n)) for _ in range(k)]
    maps = system(*matrices, translations=translations)
    assume(0 < abs(stacked_difference(maps).det()) <= 2000)
    assert tuple(solve_coincidences(maps).numerators) == closure_numerators(maps)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_format_coordinate_matches_fraction_str(data):
    d = data.draw(st.integers(min_value=1, max_value=10**30))
    v = data.draw(st.integers(min_value=0, max_value=d - 1))
    assert format_coordinate(v, d) == str(Fraction(v, d))


# --- randomized properties ----------------------------------------------------


def test_lazy_points_are_the_numerators_over_the_denominator():
    rng = Random(16180)
    for _ in range(300):
        maps = random_transverse_system(rng)
        det = perm_det([list(r) for r in stacked_difference(maps).entries])
        points = solve_coincidences(maps)
        d = points.denominator
        for point, nums in zip(points, points.numerators, strict=True):
            assert point.coordinates == tuple(Fraction(v, d) for v in nums)
            assert point.local_index == points.local_index
        assert index_sum(points) == points.local_index * len(points) == det


def test_oracle_equality_randomized():
    rng = Random(14142)
    for _ in range(300):
        maps = random_transverse_system(rng)
        points = solve_coincidences(maps)
        value = multi_class_torus(maps)
        assert index_sum(points) == value.value


def test_point_count_is_absolute_determinant():
    rng = Random(8675309)
    for _ in range(200):
        maps = random_transverse_system(rng)
        det = perm_det([list(r) for r in stacked_difference(maps).entries])
        points = solve_coincidences(maps)
        assert len(points) == abs(det)
        assert all(p.local_index == (1 if det > 0 else -1) for p in points)


def test_points_are_sorted_and_distinct():
    rng = Random(5005)
    for _ in range(100):
        maps = random_transverse_system(rng)
        points = solve_coincidences(maps)
        seq = [p.coordinates for p in points]
        assert seq == sorted(seq)
        assert len(set(seq)) == len(seq)


def test_translations_never_change_index_sum():
    rng = Random(271828)
    for _ in range(150):
        maps = random_transverse_system(rng, with_translations=False)
        base = index_sum(solve_coincidences(maps))
        shifted = TorusMapModel.from_matrices(
            maps.matrices,
            [
                tuple(
                    Fraction(rng.randint(0, 4), rng.randint(1, 5))
                    for _ in range(mat.rows)
                )
                for mat in maps.matrices
            ],
        )
        assert index_sum(solve_coincidences(shifted)) == base


def test_brute_force_grid_finds_the_same_solution_set():
    # every solution has coordinates with denominator dividing |det| * lcm of
    # the translation denominators, so scanning that grid is exhaustive
    from math import lcm

    rng = Random(1313)
    cases = 0
    while cases < 40:
        mats = [
            IntegerMatrix([[rng.randint(-2, 2), rng.randint(-2, 2)]])
            for _ in range(3)
        ]
        det = (mats[1][0, 0] - mats[0][0, 0]) * (mats[2][0, 1] - mats[0][0, 1]) - (
            mats[1][0, 1] - mats[0][0, 1]
        ) * (mats[2][0, 0] - mats[0][0, 0])
        if det == 0 or abs(det) > 8:
            continue
        maps = TorusMapModel.from_matrices(
            mats,
            [(Fraction(rng.randint(0, 2), rng.choice([1, 2, 3])) % 1,) for _ in mats],
        )
        cden = lcm(*(t[0].denominator for t in maps.translations))
        grid = abs(det) * cden
        expected = []
        for i in range(grid):
            for j in range(grid):
                x = (Fraction(i, grid), Fraction(j, grid))
                hit = all(
                    (
                        (a[0, 0] - mats[0][0, 0]) * x[0]
                        + (a[0, 1] - mats[0][0, 1]) * x[1]
                        - (maps.translations[0][0] - b[0])
                    )
                    % 1
                    == 0
                    for a, b in zip(mats[1:], maps.translations[1:])
                )
                if hit:
                    expected.append(x)
        points = solve_coincidences(maps)
        assert [p.coordinates for p in points] == sorted(expected)
        cases += 1


def test_solutions_actually_solve_the_congruence():
    rng = Random(99999)
    for _ in range(100):
        maps = random_transverse_system(rng)
        for point in solve_coincidences(maps):
            images = []
            for mat, translation in zip(maps.matrices, maps.translations):
                img = tuple(
                    (
                        sum(
                            mat[i, j] * point.coordinates[j]
                            for j in range(mat.cols)
                        )
                        + translation[i]
                    )
                    % 1
                    for i in range(mat.rows)
                )
                images.append(img)
            assert all(img == images[0] for img in images[1:])


def test_small_det_m12_systems_enumerate_exactly():
    # 12 x 12 stacked systems with entries in {-1, 0, 1} and a small |det|:
    # Smith normal form transforms for them can leave int64 although the
    # answer is small, so this pins the solver to an exact route.
    from math import lcm

    rng = Random(3)
    draws = 0
    while draws < 24:
        n = (2, 3, 4, 6)[draws % 4]
        k = 12 // n + 1
        mats = [
            IntegerMatrix([[rng.randint(-1, 1) for _ in range(12)] for _ in range(n)])
            for _ in range(k)
        ]
        translations = [
            tuple(Fraction(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(n))
            for _ in range(k)
        ]
        maps = TorusMapModel.from_matrices(mats, translations)
        det = stacked_difference(maps).det()
        if not 0 < abs(det) <= 600:
            continue
        draws += 1
        points = solve_coincidences(maps)
        seq = [p.coordinates for p in points]
        assert len(seq) == abs(det)
        assert all(a < b for a, b in zip(seq, seq[1:]))
        shift_den = lcm(*(t.denominator for tr in maps.translations for t in tr))
        for x in seq:
            # all images agree mod 1: exact numerators over one denominator q
            q = shift_den * lcm(*(c.denominator for c in x))
            nums = [c.numerator * (q // c.denominator) for c in x]
            images = {
                tuple(
                    (sum(a * v for a, v in zip(row, nums)) + t.numerator * (q // t.denominator))
                    % q
                    for row, t in zip(mat.entries, translation)
                )
                for mat, translation in zip(maps.matrices, maps.translations)
            }
            assert len(images) == 1
        assert index_sum(points) == multi_class_torus(maps).value
