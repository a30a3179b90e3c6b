"""Tests for matrix Lie algebra numerics: brackets, structure constants,
exponentials, adjoint action, fiber quotients."""

import math

import numpy as np
import pytest

from curvcheck.errors import ClosureViolation, DomainError, SingularMatrix
from curvcheck.lie import (
    AlgebraElement,
    GroupElement,
    MatrixLieAlgebra,
    bracket,
    builtin_algebra,
    conjugate,
    exp,
    expm,
    fiber_quotient,
    group_stack,
)
from curvcheck.rng import SplitMix64
from curvcheck.sampling import sample_algebra_element

SO2 = builtin_algebra("so2")
SO3 = builtin_algebra("so3")
SL2 = builtin_algebra("sl2")
ALL = (SO2, SO3, SL2)


def _rotation(angle: float) -> GroupElement:
    c, s = math.cos(angle), math.sin(angle)
    return GroupElement(np.array([[c, -s], [s, c]]))


# --- algebra construction ---------------------------------------------------


def test_builtin_names_and_dimensions():
    assert (SO2.d, SO2.k) == (2, 1)
    assert (SO3.d, SO3.k) == (3, 3)
    assert (SL2.d, SL2.k) == (2, 3)


def test_builtin_aliases():
    assert builtin_algebra("SO(3)").name == "so3"
    assert builtin_algebra("sl(2,R)").name == "sl2"
    with pytest.raises(ValueError):
        builtin_algebra("e8")


def test_so3_structure_constants_cyclic():
    c = SO3.structure
    assert np.allclose(c[0, 1], (0.0, 0.0, 1.0))
    assert np.allclose(c[1, 2], (1.0, 0.0, 0.0))
    assert np.allclose(c[2, 0], (0.0, 1.0, 0.0))


def test_sl2_structure_constants():
    c = SL2.structure
    # Basis order (H, E, F): [H,E] = 2E, [H,F] = -2F, [E,F] = H.
    assert np.allclose(c[0, 1], (0.0, 2.0, 0.0))
    assert np.allclose(c[0, 2], (0.0, 0.0, -2.0))
    assert np.allclose(c[1, 2], (1.0, 0.0, 0.0))


def test_so2_is_abelian():
    assert np.all(SO2.structure == 0.0)


def test_structure_antisymmetry_and_jacobi():
    for alg in ALL:
        c = alg.structure
        assert np.max(np.abs(c + np.transpose(c, (1, 0, 2)))) <= 1e-10
        cyc = (
            np.einsum("abe,egh->abgh", c, c)
            + np.einsum("bge,eah->abgh", c, c)
            + np.einsum("gae,ebh->abgh", c, c)
        )
        assert np.max(np.abs(cyc)) <= 1e-10


def test_from_basis_rejects_dependent_basis():
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        MatrixLieAlgebra.from_basis((e, 2.0 * e))


def test_from_basis_rejects_non_closed_span():
    # span{E, F} in 2x2 matrices: [E, F] = H falls outside.
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ClosureViolation):
        MatrixLieAlgebra.from_basis((e, f))


def test_expand_recovers_coefficients_and_rejects_outsiders():
    x = SO3.element((0.5, -1.25, 2.0))
    assert np.allclose(SO3.expand(x.matrix), (0.5, -1.25, 2.0), atol=1e-12)
    with pytest.raises(ClosureViolation):
        SO3.expand(np.eye(3))


# --- elements ---------------------------------------------------------------


def test_element_arithmetic_and_norm():
    x = SO3.element((1.0, 2.0, 2.0))
    y = SO3.element((0.0, 1.0, -1.0))
    assert np.allclose((x + y).coeffs, (1.0, 3.0, 1.0))
    assert np.allclose((x - y).coeffs, (1.0, 1.0, 3.0))
    assert np.allclose((-x).coeffs, (-1.0, -2.0, -2.0))
    assert np.allclose(x.scaled(0.5).coeffs, (0.5, 1.0, 1.0))
    assert x.norm() == 3.0


def test_element_matrix_reconstruction():
    x = SL2.element((1.5, -0.5, 2.0))
    expected = (
        1.5 * SL2.basis[0] - 0.5 * SL2.basis[1] + 2.0 * SL2.basis[2]
    )
    assert np.array_equal(x.matrix, expected)


def test_element_coefficient_count_validated():
    with pytest.raises(ValueError):
        SO3.element((1.0, 2.0))


# --- brackets ---------------------------------------------------------------


def test_bracket_with_itself_vanishes():
    x = SO3.element((0.3, -0.7, 1.1))
    assert np.allclose(bracket(x, x).coeffs, 0.0, atol=1e-12)


def test_bracket_so3_basis():
    e1 = SO3.element((1.0, 0.0, 0.0))
    e2 = SO3.element((0.0, 1.0, 0.0))
    assert np.allclose(bracket(e1, e2).coeffs, (0.0, 0.0, 1.0), atol=1e-12)


def test_bracket_abelian_always_zero():
    x = SO2.element((2.5,))
    y = SO2.element((-1.75,))
    assert np.allclose(bracket(x, y).coeffs, 0.0, atol=1e-15)


def test_bracket_matches_matrix_commutator():
    rng = SplitMix64(31)
    for alg in ALL:
        for _ in range(10):
            x = sample_algebra_element(rng, alg)
            y = sample_algebra_element(rng, alg)
            expected = x.matrix @ y.matrix - y.matrix @ x.matrix
            assert np.max(np.abs(bracket(x, y).matrix - expected)) <= 1e-12


def test_bracket_rejects_mixed_algebras():
    with pytest.raises(ValueError):
        bracket(SO3.element((1.0, 0.0, 0.0)), SL2.element((1.0, 0.0, 0.0)))


# --- exponential ------------------------------------------------------------


def test_exp_of_zero_is_identity():
    assert np.array_equal(exp(SO3.zero()).g, np.eye(3))


def test_exp_so2_quarter_turn():
    theta = math.pi / 2.0
    out = exp(SO2.element((theta,)))
    expected = np.array(
        [
            [math.cos(theta), -math.sin(theta)],
            [math.sin(theta), math.cos(theta)],
        ]
    )
    assert np.max(np.abs(out.g - expected)) <= 1e-12
    assert np.max(np.abs(out.g - np.array([[0.0, -1.0], [1.0, 0.0]]))) <= 1e-12


def test_exp_inverse_property():
    rng = SplitMix64(37)
    for alg in ALL:
        for _ in range(5):
            x = sample_algebra_element(rng, alg)
            prod = exp(x) @ exp(-x)
            assert np.max(np.abs(prod.g - np.eye(alg.d))) <= 1e-12


def _series_exp(matrix: np.ndarray, terms: int = 60) -> np.ndarray:
    acc = np.eye(matrix.shape[0])
    term = np.eye(matrix.shape[0])
    for j in range(1, terms + 1):
        term = term @ matrix / j
        acc = acc + term
    return acc


def test_exp_matches_series_oracle():
    rng = SplitMix64(41)
    for alg in ALL:
        for _ in range(5):
            x = sample_algebra_element(rng, alg)
            frob = float(np.linalg.norm(x.matrix))
            if frob > 2.0:
                x = x.scaled(2.0 / frob)
            assert np.max(np.abs(exp(x).g - _series_exp(x.matrix))) <= 1e-12


def _so2_closed_form(coeffs):
    return _rotation(coeffs[0]).g


def _so3_rodrigues(coeffs):
    w = SO3.element(coeffs).matrix
    theta = float(np.linalg.norm(coeffs))
    return (
        np.eye(3)
        + math.sin(theta) / theta * w
        + (1.0 - math.cos(theta)) / theta**2 * (w @ w)
    )


def _sl2_hyperbolic(coeffs):
    # X = hH + eE + fF squares to (h^2 + ef) I
    x = SL2.element(coeffs).matrix
    h, e, f = coeffs
    delta = math.sqrt(h * h + e * f)
    return math.cosh(delta) * np.eye(2) + math.sinh(delta) / delta * x


@pytest.mark.parametrize(
    "alg, coeffs, closed_form",
    [
        (SO2, (0.3,), _so2_closed_form),
        (SO2, (40.0 * math.pi + 0.3,), _so2_closed_form),
        (SO3, (0.2, -0.1, 0.2), _so3_rodrigues),
        (SO3, (20.0, -10.0, 20.0), _so3_rodrigues),
        (SL2, (0.4, 0.3, 0.2), _sl2_hyperbolic),
        (SL2, (4.0, 3.0, 2.0), _sl2_hyperbolic),
        (SL2, (0.0, 9.0, 4.0), _sl2_hyperbolic),
    ],
    ids=["so2", "so2-40pi", "so3", "so3-30", "sl2", "sl2-norm7", "sl2-norm9"],
)
def test_exp_matches_closed_forms(alg, coeffs, closed_form):
    # the larger inputs have 1-norm past theta_13 = 5.37, so they also run
    # the squaring phase
    expected = closed_form(coeffs)
    out = exp(alg.element(coeffs)).g
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_expm_of_a_stack_is_the_stack_of_expms():
    # each matrix of a stack is scaled and squared on its own
    rng = SplitMix64(43)
    x = sample_algebra_element(rng, SO3)
    mats = np.array([x.scaled(s).matrix for s in (1e-4, 1.0, 30.0)])
    stacked = expm(mats.reshape(3, 1, 3, 3))
    assert stacked.shape == (3, 1, 3, 3)
    for m, out in zip(mats, stacked):
        assert np.array_equal(out[0], expm(m))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_expm_of_non_finite_matrix_is_a_domain_error(bad):
    with pytest.raises(DomainError):
        expm(np.array([[0.0, bad], [1.0, 0.0]]))


# --- adjoint action: conjugate of one element -------------------------------


def test_adjoint_by_identity_is_identity():
    x = SO3.element((0.4, -1.2, 0.9))
    out = conjugate(SO3, SO3.identity_group().g, x.coeffs)
    assert np.allclose(out, x.coeffs, atol=1e-14)


def test_adjoint_rotates_so3_basis():
    # Conjugating E1 by a quarter turn about the third axis gives E2.
    g = exp(SO3.element((0.0, 0.0, math.pi / 2.0)))
    out = conjugate(SO3, g.g, SO3.element((1.0, 0.0, 0.0)).coeffs)
    assert np.allclose(out, (0.0, 1.0, 0.0), atol=1e-12)


def test_adjoint_trivial_on_abelian():
    g = _rotation(0.8)
    x = SO2.element((1.7,))
    assert np.allclose(conjugate(SO2, g.g, x.coeffs), x.coeffs, atol=1e-12)


def test_adjoint_matches_conjugation_oracle():
    rng = SplitMix64(43)
    for alg in ALL:
        for _ in range(5):
            x = sample_algebra_element(rng, alg)
            g = exp(sample_algebra_element(rng, alg, scale=0.5))
            expected = g.g @ x.matrix @ np.linalg.inv(g.g)
            out = AlgebraElement(alg, conjugate(alg, g.g, x.coeffs))
            assert np.max(np.abs(out.matrix - expected)) <= 1e-10


def test_adjoint_is_a_bracket_homomorphism():
    rng = SplitMix64(47)
    for alg in ALL:
        for _ in range(5):
            x = sample_algebra_element(rng, alg)
            y = sample_algebra_element(rng, alg)
            g = exp(sample_algebra_element(rng, alg, scale=0.5))
            left = conjugate(alg, g.g, bracket(x, y).coeffs)
            gx, gy = (AlgebraElement(alg, conjugate(alg, g.g, z.coeffs)) for z in (x, y))
            right = bracket(gx, gy)
            assert np.max(np.abs(left - right.coeffs)) <= 1e-9


def test_stacked_expand_and_conjugate_are_per_matrix_bit_for_bit():
    rng = SplitMix64(53)
    for alg in ALL:
        coeffs = np.array([sample_algebra_element(rng, alg, 3.0).coeffs for _ in range(50)])
        groups = [exp(sample_algebra_element(rng, alg)) for _ in range(50)]
        mats = alg.matrix(coeffs)
        assert np.array_equal(mats, [alg.element(c).matrix for c in coeffs])
        assert np.array_equal(alg.expand(mats), [alg.expand(m) for m in mats])
        stacked = conjugate(alg, np.array([g.g for g in groups]), coeffs)
        assert np.array_equal(stacked, [conjugate(alg, g.g, c) for g, c in zip(groups, coeffs)])
        # one group element against a stack of coefficients, and empty stacks
        shared = conjugate(alg, groups[0].g[None], coeffs)
        assert np.array_equal(shared, [conjugate(alg, groups[0].g, c) for c in coeffs])
        assert conjugate(alg, groups[0].g[None, None], np.empty((2, 0, alg.k))).shape == (2, 0, alg.k)


def test_a_stack_names_its_first_failing_matrix():
    inside = SO3.element((0.5, -1.25, 2.0)).matrix
    with pytest.raises(ClosureViolation, match="residual 2.000e"):
        SO3.expand(np.array([inside, 2.0 * np.eye(3), 3.0 * np.eye(3)]))
    singular = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]], 1e-6 * np.eye(2)])
    with pytest.raises(SingularMatrix, match=r"\|det\| = 0.000e\+00"):
        group_stack(singular)
    assert group_stack(singular[:1]) is not None


# --- group elements and quotients -------------------------------------------


def test_group_element_rejects_singular_matrix():
    with pytest.raises(SingularMatrix):
        GroupElement(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_group_element_rejects_non_square():
    with pytest.raises(ValueError):
        GroupElement(np.zeros((2, 3)))


def test_fiber_quotient_of_element_with_itself():
    g = exp(SO3.element((0.3, 0.1, -0.4)))
    assert np.max(np.abs(fiber_quotient(g, g).g - np.eye(3))) <= 1e-12


def test_fiber_quotient_from_identity():
    h = _rotation(1.1)
    out = fiber_quotient(GroupElement(np.eye(2)), h)
    assert np.max(np.abs(out.g - h.g)) <= 1e-15


def test_fiber_quotient_of_rotations_subtracts_angles():
    alpha, beta = 0.7, 2.1
    out = fiber_quotient(_rotation(alpha), _rotation(beta))
    assert np.max(np.abs(out.g - _rotation(beta - alpha).g)) <= 1e-12


def test_fiber_quotient_solves_left_division():
    rng = SplitMix64(53)
    for _ in range(5):
        g = exp(sample_algebra_element(rng, SL2))
        h = exp(sample_algebra_element(rng, SL2))
        q = fiber_quotient(g, h)
        assert np.max(np.abs((g @ q).g - h.g)) <= 1e-12
