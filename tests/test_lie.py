"""Tests for matrix Lie algebra numerics: brackets, structure constants,
exponentials, adjoint action."""

import math

import numpy as np
import pytest

from curvcheck.errors import ClosureViolation, DomainError, SingularMatrix
from curvcheck.lie import (
    MatrixLieAlgebra,
    bracket,
    builtin_algebra,
    conjugate,
    exp,
    expm,
    group_stack,
)
from curvcheck.rng import SplitMix64
from curvcheck.sampling import sample_algebra_element

SO2 = builtin_algebra("so2")
SO3 = builtin_algebra("so3")
SL2 = builtin_algebra("sl2")
ALL = (SO2, SO3, SL2)


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return group_stack(np.array([[c, -s], [s, c]]))


# --- algebra construction ---------------------------------------------------


def test_builtin_names_and_dimensions():
    assert (SO2.d, SO2.k) == (2, 1)
    assert (SO3.d, SO3.k) == (3, 3)
    assert (SL2.d, SL2.k) == (2, 3)


def test_builtin_aliases():
    for alias, algebra in (("SO(3)", SO3), ("sl(2,R)", SL2)):
        assert np.array_equal(builtin_algebra(alias).basis, algebra.basis)
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
    x = SO3.matrix((0.5, -1.25, 2.0))
    assert np.allclose(SO3.expand(x), (0.5, -1.25, 2.0), atol=1e-12)
    with pytest.raises(ClosureViolation):
        SO3.expand(np.eye(3))


# --- elements ---------------------------------------------------------------


def test_element_arithmetic_and_norm():
    # an element is its coefficients, so its arithmetic is theirs, and the
    # matrix of a sum is the sum of the matrices
    x = np.array((1.0, 2.0, 2.0))
    y = np.array((0.0, 1.0, -1.0))
    assert np.allclose(x + y, (1.0, 3.0, 1.0))
    assert np.allclose(SO3.matrix(x + y), SO3.matrix(x) + SO3.matrix(y))
    assert np.allclose(x - y, (1.0, 1.0, 3.0))
    assert np.allclose(-x, (-1.0, -2.0, -2.0))
    assert np.allclose(0.5 * x, (0.5, 1.0, 1.0))
    assert np.linalg.norm(x) == 3.0


def test_element_matrix_reconstruction():
    x = SL2.matrix((1.5, -0.5, 2.0))
    expected = (
        1.5 * SL2.basis[0] - 0.5 * SL2.basis[1] + 2.0 * SL2.basis[2]
    )
    assert np.array_equal(x, expected)


def test_element_coefficient_count_validated():
    # too few, too many, a scalar, and stacks whose rows are too long or too
    # short: none is read as its first coefficients or fails on an index
    for coeffs in ((1.0, 2.0), (1.0, 2.0, 3.0, 4.0), 1.0, np.zeros((2, 4)), np.zeros((3, 2))):
        for use in (SO3.matrix, lambda c: conjugate(SO3, np.eye(3), c), lambda c: exp(SO3, c)):
            with pytest.raises(ValueError, match="expected 3 coefficients"):
                use(coeffs)
    assert SO3.matrix(np.zeros((2, 5, 3))).shape == (2, 5, 3, 3)


# --- brackets ---------------------------------------------------------------


def test_bracket_with_itself_vanishes():
    x = (0.3, -0.7, 1.1)
    assert np.allclose(bracket(SO3, x, x), 0.0, atol=1e-12)


def test_bracket_so3_basis():
    e1, e2, e3 = np.eye(3)
    assert np.allclose(bracket(SO3, e1, e2), e3, atol=1e-12)
    assert np.allclose(bracket(SO3, e2, e1), -e3, atol=1e-12)


def test_bracket_is_antisymmetric():
    rng = SplitMix64(29)
    for alg in ALL:
        for _ in range(10):
            x = sample_algebra_element(rng, alg)
            y = sample_algebra_element(rng, alg)
            assert np.array_equal(bracket(alg, x, y), -bracket(alg, y, x))


def test_bracket_abelian_always_zero():
    assert np.allclose(bracket(SO2, (2.5,), (-1.75,)), 0.0, atol=1e-15)


def test_bracket_matches_matrix_commutator():
    rng = SplitMix64(31)
    for alg in ALL:
        for _ in range(10):
            x = sample_algebra_element(rng, alg)
            y = sample_algebra_element(rng, alg)
            xm, ym = alg.matrix(x), alg.matrix(y)
            expected = xm @ ym - ym @ xm
            assert np.max(np.abs(alg.matrix(bracket(alg, x, y)) - expected)) <= 1e-12


# --- exponential ------------------------------------------------------------


def test_exp_of_zero_is_identity():
    assert np.array_equal(exp(SO3, np.zeros(SO3.k)), np.eye(3))


def test_exp_so2_quarter_turn():
    theta = math.pi / 2.0
    out = exp(SO2, (theta,))
    expected = np.array(
        [
            [math.cos(theta), -math.sin(theta)],
            [math.sin(theta), math.cos(theta)],
        ]
    )
    assert np.max(np.abs(out - expected)) <= 1e-12
    assert np.max(np.abs(out - np.array([[0.0, -1.0], [1.0, 0.0]]))) <= 1e-12


def test_exp_inverse_property():
    rng = SplitMix64(37)
    for alg in ALL:
        for _ in range(5):
            x = sample_algebra_element(rng, alg)
            prod = exp(alg, x) @ exp(alg, -x)
            assert np.max(np.abs(prod - np.eye(alg.d))) <= 1e-12


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
            frob = float(np.linalg.norm(alg.matrix(x)))
            if frob > 2.0:
                x = 2.0 / frob * x
            assert np.max(np.abs(exp(alg, x) - _series_exp(alg.matrix(x)))) <= 1e-12


def _so2_closed_form(coeffs):
    return _rotation(coeffs[0])


def _so3_rodrigues(coeffs):
    w = SO3.matrix(coeffs)
    theta = float(np.linalg.norm(coeffs))
    return (
        np.eye(3)
        + math.sin(theta) / theta * w
        + (1.0 - math.cos(theta)) / theta**2 * (w @ w)
    )


def _sl2_hyperbolic(coeffs):
    # X = hH + eE + fF squares to (h^2 + ef) I
    x = SL2.matrix(coeffs)
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
    out = exp(alg, coeffs)
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_expm_of_a_stack_is_the_stack_of_expms():
    # each matrix of a stack is scaled and squared on its own
    rng = SplitMix64(43)
    x = sample_algebra_element(rng, SO3)
    mats = np.array([SO3.matrix(s * x) for s in (1e-4, 1.0, 30.0)])
    stacked = expm(mats.reshape(3, 1, 3, 3))
    assert stacked.shape == (3, 1, 3, 3)
    for m, out in zip(mats, stacked):
        assert np.array_equal(out[0], expm(m))


@pytest.mark.parametrize("alg", ALL, ids=["so2", "so3", "sl2"])
def test_exp_of_a_stack_is_exp_of_each_row_bit_for_bit(alg):
    rng = SplitMix64(59)
    # scales past theta_13 run the squaring phase, each row its own count
    logs = np.array([[sample_algebra_element(rng, alg, s) for s in (1e-3, 0.5, 4.0, 30.0)]])
    stacked = exp(alg, logs)
    assert stacked.shape == (1, 4, alg.d, alg.d)
    for log, out in zip(logs[0], stacked[0]):
        assert exp(alg, log).tobytes() == out.tobytes()


def test_exp_is_read_only():
    for out in (exp(SO3, (0.1, 0.2, 0.3)), exp(SO3, np.zeros((2, 3)))):
        with pytest.raises(ValueError, match="read-only"):
            out[0, 0] = 2.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_expm_of_non_finite_matrix_is_a_domain_error(bad):
    with pytest.raises(DomainError):
        expm(np.array([[0.0, bad], [1.0, 0.0]]))


# --- adjoint action: conjugate of one element -------------------------------


def test_adjoint_by_identity_is_identity():
    x = (0.4, -1.2, 0.9)
    out = conjugate(SO3, np.eye(SO3.d), x)
    assert np.allclose(out, x, atol=1e-14)


def test_adjoint_rotates_so3_basis():
    # Conjugating E1 by a quarter turn about the third axis gives E2.
    g = exp(SO3, (0.0, 0.0, math.pi / 2.0))
    out = conjugate(SO3, g, (1.0, 0.0, 0.0))
    assert np.allclose(out, (0.0, 1.0, 0.0), atol=1e-12)


def test_adjoint_trivial_on_abelian():
    g = _rotation(0.8)
    assert np.allclose(conjugate(SO2, g, (1.7,)), (1.7,), atol=1e-12)


def test_adjoint_matches_conjugation_oracle():
    rng = SplitMix64(43)
    for alg in ALL:
        for _ in range(5):
            x = sample_algebra_element(rng, alg)
            g = exp(alg, sample_algebra_element(rng, alg, scale=0.5))
            expected = g @ alg.matrix(x) @ np.linalg.inv(g)
            out = conjugate(alg, g, x)
            assert np.max(np.abs(alg.matrix(out) - expected)) <= 1e-10


def test_adjoint_is_a_bracket_homomorphism():
    rng = SplitMix64(47)
    for alg in ALL:
        for _ in range(5):
            x = sample_algebra_element(rng, alg)
            y = sample_algebra_element(rng, alg)
            g = exp(alg, sample_algebra_element(rng, alg, scale=0.5))
            left = conjugate(alg, g, bracket(alg, x, y))
            right = bracket(alg, conjugate(alg, g, x), conjugate(alg, g, y))
            assert np.max(np.abs(left - right)) <= 1e-9


def test_stacked_expand_and_conjugate_are_per_matrix_bit_for_bit():
    rng = SplitMix64(53)
    for alg in ALL:
        coeffs = np.array([sample_algebra_element(rng, alg, 3.0) for _ in range(50)])
        groups = [exp(alg, sample_algebra_element(rng, alg)) for _ in range(50)]
        mats = alg.matrix(coeffs)
        assert np.array_equal(mats, [alg.matrix(c) for c in coeffs])
        assert np.array_equal(alg.expand(mats), [alg.expand(m) for m in mats])
        stacked = conjugate(alg, np.array(groups), coeffs)
        assert np.array_equal(stacked, [conjugate(alg, g, c) for g, c in zip(groups, coeffs)])
        # one group element against a stack of coefficients, and empty stacks
        shared = conjugate(alg, groups[0][None], coeffs)
        assert np.array_equal(shared, [conjugate(alg, groups[0], c) for c in coeffs])
        assert conjugate(alg, groups[0][None, None], np.empty((2, 0, alg.k))).shape == (2, 0, alg.k)


def test_a_stack_names_its_first_failing_matrix():
    inside = SO3.matrix((0.5, -1.25, 2.0))
    with pytest.raises(ClosureViolation, match="residual 2.000e"):
        SO3.expand(np.array([inside, 2.0 * np.eye(3), 3.0 * np.eye(3)]))
    singular = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]], 1e-6 * np.eye(2)])
    with pytest.raises(SingularMatrix, match=r"\|det\| = 0.000e\+00"):
        group_stack(singular)
    assert group_stack(singular[:1]) is not None


# --- group elements ---------------------------------------------------------


def test_group_element_rejects_singular_matrix():
    with pytest.raises(SingularMatrix):
        group_stack(np.array([[1.0, 2.0], [2.0, 4.0]]))
    # exp of a log with trace -60 has determinant e^-60, under the floor
    with pytest.raises(SingularMatrix, match=r"\|det\| = 8.757e-27"):
        exp(MatrixLieAlgebra.from_basis([[[-60.0]]]), (1.0,))


def test_group_element_rejects_non_square():
    with pytest.raises(ValueError):
        group_stack(np.zeros((2, 3)))
