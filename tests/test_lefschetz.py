from fractions import Fraction
from random import Random

import pytest

from coincidence_lab import (
    ArityMismatch,
    ClassValue,
    CohomologyGroupVanishes,
    DimensionMismatch,
    ExteriorElement,
    FactContext,
    IndexOutOfRange,
    IntegerMatrix,
    PairClassZero,
    PullbackOfFundamentalClassVanishes,
    TorusMapModel,
    UnknownIdentifier,
    class_from_facts,
    multi_class_torus,
    pair_class_torus,
    sphere_class,
)

from _oracles import perm_det, random_matrix


def model_of(*rows_list):
    return TorusMapModel.from_matrices([IntegerMatrix(rows) for rows in rows_list])


# --- ClassValue ---------------------------------------------------------------


def test_integer_zero_and_symbolic_zero_are_distinct():
    computed = ClassValue.integer(0, "somewhere")
    symbolic = ClassValue.zero("a reason")
    assert computed.kind != symbolic.kind
    assert computed.is_vanishing() and symbolic.is_vanishing()
    assert not ClassValue.integer(3, "somewhere").is_vanishing()
    assert not ClassValue.unknown("nothing known").is_vanishing()


def test_class_value_validation():
    with pytest.raises(ValueError):
        ClassValue("integer")
    with pytest.raises(ValueError):
        ClassValue("zero")
    with pytest.raises(ValueError):
        ClassValue("unknown", value=3, reason="r")
    with pytest.raises(ValueError):
        ClassValue("squishy", value=1)


# --- pair classes -------------------------------------------------------------


def test_pair_class_vanishes_for_equal_matrices():
    model = model_of([[1, 2]], [[1, 2]], [[3, 4]])
    assert pair_class_torus(model, 2).is_zero()
    assert not pair_class_torus(model, 3).is_zero()


def test_pair_class_row_example():
    model = model_of([[0, 0]], [[2, 1]])
    assert pair_class_torus(model, 2) == ExteriorElement(2, {(1,): 2, (2,): 1})


def test_pair_class_square_case_is_determinant():
    rng = Random(1234)
    for _ in range(100):
        n = rng.randint(1, 4)
        a1 = random_matrix(rng, n, n)
        a2 = random_matrix(rng, n, n)
        model = TorusMapModel.from_matrices([a1, a2])
        diff = [[a2[i, j] - a1[i, j] for j in range(n)] for i in range(n)]
        assert pair_class_torus(model, 2).top_coefficient() == perm_det(diff)


def test_pair_class_index_bounds():
    model = model_of([[0, 0]], [[2, 1]], [[1, 1]])
    with pytest.raises(IndexOutOfRange):
        pair_class_torus(model, 1)
    with pytest.raises(IndexOutOfRange):
        pair_class_torus(model, 4)


# --- multi class --------------------------------------------------------------


def test_multi_class_hand_example():
    model = model_of([[0, 0]], [[2, 1]], [[1, 1]])
    value = multi_class_torus(model)
    assert value.kind == "integer" and value.value == 1


def test_multi_class_diagonal_example():
    model = model_of([[0, 0]], [[2, 0]], [[0, 3]])
    assert multi_class_torus(model).value == 6


def test_multi_class_zero_factor():
    model = model_of([[1, 1]], [[1, 1]], [[5, -7]])
    assert multi_class_torus(model).value == 0


def test_any_vanishing_pair_factor_kills_the_class():
    rng = Random(777)
    for _ in range(100):
        n = rng.choice([1, 2])
        k = rng.choice([2, 3])
        m = (k - 1) * n
        mats = [random_matrix(rng, n, m) for _ in range(k)]
        j = rng.randint(1, k - 1)
        mats[j] = mats[0]  # force pair factor j+1 to vanish
        model = TorusMapModel.from_matrices(mats)
        assert pair_class_torus(model, j + 1).is_zero()
        assert multi_class_torus(model).value == 0


def test_translations_default_to_zero_and_reduce_into_unit_interval():
    a, b = IntegerMatrix([[1]]), IntegerMatrix([[3]])
    assert TorusMapModel.from_matrices([a, b]).translations == ((0,), (0,))
    model = TorusMapModel.from_matrices([a, b], [(Fraction(5, 2),), (Fraction(-1, 3),)])
    assert model.translations == ((Fraction(1, 2),), (Fraction(2, 3),))
    assert all(type(t) is Fraction for tr in model.translations for t in tr)
    with pytest.raises(DimensionMismatch):
        TorusMapModel.from_matrices([a, b], [(0,)])


def test_multi_class_dimension_gate():
    with pytest.raises(DimensionMismatch):
        multi_class_torus(model_of([[0, 0, 0]], [[1, 0, 0]], [[0, 1, 0]]))


def test_multi_class_equals_stacked_determinant():
    # the chosen cup-product order makes the global sign exactly +1
    rng = Random(192837)
    for _ in range(1000):
        n = rng.choice([1, 2])
        k = rng.choice([2, 3])
        m = (k - 1) * n
        mats = [random_matrix(rng, n, m) for _ in range(k)]
        model = TorusMapModel.from_matrices(mats)
        stacked = [
            [mats[i][r, c] - mats[0][r, c] for c in range(m)]
            for i in range(1, k)
            for r in range(n)
        ]
        assert multi_class_torus(model).value == perm_det(stacked)


# --- sphere formula -----------------------------------------------------------


def test_sphere_even_dimension_pair():
    assert sphere_class(2, 2, [3, 5]).value == 8


def test_sphere_even_dimension_triple_is_plain_sum():
    for d in ([1, 2, 3], [-4, 0, 9], [5, 5, 5]):
        assert sphere_class(2, 3, d).value == sum(d)
        assert sphere_class(4, 3, d).value == sum(d)


def test_sphere_all_zero_degrees():
    assert sphere_class(3, 4, [0, 0, 0, 0]).value == 0


def test_sphere_pair_identity_all_small_degrees():
    for n in (1, 2, 3):
        sign = (-1) ** n
        for d1 in range(-5, 6):
            for d2 in range(-5, 6):
                assert sphere_class(n, 2, [d1, d2]).value == d2 + sign * d1


def test_sphere_arity_checks():
    with pytest.raises(ArityMismatch):
        sphere_class(2, 3, [1, 2])
    with pytest.raises(ArityMismatch):
        sphere_class(2, 1, [1])
    with pytest.raises(ArityMismatch):
        sphere_class(0, 2, [1, 2])


# --- facts route --------------------------------------------------------------


def test_vanishing_cohomology_forces_zero():
    context = FactContext(
        map_ids=("f1", "f2", "f3"),
        space_id="X",
        pair_class_degree=2,
    )
    value = class_from_facts(
        3, [CohomologyGroupVanishes("X", 2, "H^2(X)=0")], context
    )
    assert value.kind == "zero"
    assert value.reason == "H^2(X)=0 forces all pair classes to vanish"


def test_vanishing_cohomology_in_other_degree_is_not_enough():
    context = FactContext(map_ids=("f1", "f2"), space_id="X", pair_class_degree=2)
    value = class_from_facts(2, [CohomologyGroupVanishes("X", 3)], context)
    assert value.kind == "unknown"
    assert value.reason == "insufficient facts"


def test_fundamental_class_pullback_with_constant_partner():
    context = FactContext(map_ids=("p", "cbar"), constant_maps=frozenset({"cbar"}))
    value = class_from_facts(
        2, [PullbackOfFundamentalClassVanishes("p", "p^*([T^2])=0")], context
    )
    assert value.kind == "zero"
    assert value.reason == "p^*([T^2])=0"
    assert value.provenance == "p^*([T^2])=0"


def test_fundamental_class_pullback_without_constant_partner():
    context = FactContext(map_ids=("p", "q"))
    value = class_from_facts(2, [PullbackOfFundamentalClassVanishes("p")], context)
    assert value.kind == "unknown"


def test_pair_class_zero_fact():
    value = class_from_facts(3, [PairClassZero(1, 2, "declared")])
    assert value.kind == "zero" and value.reason == "declared"
    with pytest.raises(UnknownIdentifier):
        class_from_facts(3, [PairClassZero(1, 4)])
    with pytest.raises(UnknownIdentifier):
        class_from_facts(3, [PairClassZero(2, 2)])


def test_no_facts_is_unknown():
    value = class_from_facts(2, [])
    assert value.kind == "unknown"
    assert value.reason == "insufficient facts"


def test_undeclared_identifiers_raise():
    with pytest.raises(UnknownIdentifier):
        class_from_facts(2, [PullbackOfFundamentalClassVanishes("p")])
    with pytest.raises(UnknownIdentifier):
        class_from_facts(2, [CohomologyGroupVanishes("X", 2)])
    with pytest.raises(UnknownIdentifier):
        FactContext(map_ids=("f1",), constant_maps=frozenset({"ghost"}))


def test_facts_never_fabricate_a_nonzero_class():
    # every reachable outcome is zero or unknown
    context = FactContext(map_ids=("a", "b"), constant_maps=frozenset({"b"}))
    outcomes = {
        class_from_facts(2, [], context).kind,
        class_from_facts(2, [PullbackOfFundamentalClassVanishes("a")], context).kind,
        class_from_facts(2, [PairClassZero(1, 2)], context).kind,
    }
    assert outcomes <= {"zero", "unknown"}
