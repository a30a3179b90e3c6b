"""Tests for second jets, the slot swap, the double projection, chart
changes, the induced vertical connection, and the commutator identity."""

import numpy as np
import pytest

from _reference import covariant_derivative, parse_grid
from curvcheck import _symbolic, prolong
from curvcheck.bundle import (
    BundlePatch,
    ChristoffelField,
    Section,
    curvature_coefficients,
)
from curvcheck.errors import FiberMismatch
from curvcheck.exprdsl import parse
from curvcheck.numcore import EvalPoint, evaluate
from curvcheck.prolong import (
    SLOTS,
    _second_covariants,
    affine_diff,
    commutator_tensor,
    pi,
    pushforward_second_jet,
    theta,
    vertical_connection,
)
from curvcheck.rng import SplitMix64
from curvcheck.sampling import (
    sample_christoffel,
    sample_second_jet,
    sample_section,
    sample_transition,
)

P11 = BundlePatch(1, 1)
P21 = BundlePatch(2, 1)
SKEW = ChristoffelField(P21, parse_grid([["0", "x1"]], P21.dims))


def _jet1(f, fdot, fcirc, fcircdot):
    return np.array([[f], [fdot], [fcirc], [fcircdot]], dtype=float)


def _same(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# --- theta and pi -----------------------------------------------------------


def test_slots_name_the_rows_of_a_jet():
    assert SLOTS == ("f", "fdot", "fcirc", "fcircdot")
    assert sample_second_jet(SplitMix64(3), 2, 3).shape == (len(SLOTS), 3)


def test_theta_swaps_velocity_slots():
    assert _same(theta(_jet1(1, 2, 3, 4)), _jet1(1, 3, 2, 4))


def test_theta_is_an_involution():
    rng = SplitMix64(11)
    for _ in range(20):
        j = sample_second_jet(rng, 2, 3)
        assert _same(theta(theta(j)), j)


def test_theta_fixes_symmetric_jets():
    j = _jet1(1.0, 2.0, 2.0, 7.0)
    assert _same(theta(j), j)


def test_pi_orders_variation_first():
    assert _same(pi(_jet1(1, 2, 3, 4)), np.array([[1.0], [3.0], [2.0]]))


def test_pi_after_theta_swaps_the_pair():
    rng = SplitMix64(13)
    for _ in range(20):
        j = sample_second_jet(rng, 1, 2)
        assert _same(pi(theta(j)), pi(j)[[0, 2, 1]])


def test_pi_of_zero_jet_is_zero():
    assert _same(pi(np.zeros((4, 1))), np.zeros((3, 1)))


# --- affine differences -----------------------------------------------------


def test_affine_diff_subtracts_mixed_slots():
    assert _same(affine_diff(_jet1(1, 2, 3, 7), _jet1(1, 2, 3, 4)), np.array([3.0]))


def test_affine_diff_of_jet_with_itself_is_zero():
    j = _jet1(1, 2, 3, 4)
    assert _same(affine_diff(j, j), np.array([0.0]))


def test_affine_diff_rejects_a_non_finite_deviation():
    # Python's max drops a NaN that is not its first argument; the slot
    # with the NaN must still be named
    j1 = _jet1(0, float("nan"), 2, 5)
    j2 = _jet1(0, 1, 2, 3)
    for a, b in ((j1, j2), (j2, j1)):
        with pytest.raises(FiberMismatch, match="slot 'fdot' differs by nan"):
            affine_diff(a, b)


def test_affine_diff_rejects_different_fibers():
    j1 = _jet1(1, 2, 3, 7)
    j2 = _jet1(1, 2.5, 3, 4)
    with pytest.raises(FiberMismatch):
        affine_diff(j1, j2)


# --- stacks of jets ---------------------------------------------------------


def _jet_stack(seed: int, shape=(3, 2), n: int = 2) -> np.ndarray:
    rng = SplitMix64(seed)
    return np.array([sample_second_jet(rng, 1, n) for _ in range(np.prod(shape))]).reshape(
        shape + (4, n)
    )


def test_theta_and_pi_of_a_stack_are_those_of_each_jet():
    jets = _jet_stack(41)
    for index in np.ndindex(jets.shape[:2]):
        assert _same(theta(jets)[index], theta(jets[index]))
        assert _same(pi(jets)[index], pi(jets[index]))


def test_affine_diff_of_a_stack_is_that_of_each_pair():
    # the second jets share the lower slots of the first, with mixed slots
    # of their own
    j1 = _jet_stack(43)
    j2 = j1.copy()
    j2[..., 3, :] = _jet_stack(47)[..., 3, :]
    out = affine_diff(j1, j2)
    assert out.shape == (3, 2, 2)
    for index in np.ndindex(j1.shape[:2]):
        assert _same(out[index], affine_diff(j1[index], j2[index]))


def test_a_stack_names_the_slot_of_its_first_failing_pair():
    # the second pair of the first sample has a NaN in fdot; a later pair
    # moves f, which a stack that judged its pairs out of order would name
    j1 = _jet_stack(53)
    j2 = j1.copy()
    j2[0, 1, 1, 0] = float("nan")
    j2[2, 0, 0, 1] += 1.0
    with pytest.raises(FiberMismatch) as alone:
        affine_diff(j1[0, 1], j2[0, 1])
    with pytest.raises(FiberMismatch) as stacked:
        affine_diff(j1, j2)
    assert "slot 'fdot' differs by nan" in str(alone.value)
    assert str(stacked.value) == str(alone.value)


def test_affine_diff_rejects_jets_of_different_shapes():
    with pytest.raises(FiberMismatch, match="different shapes"):
        affine_diff(np.zeros((4, 2)), np.zeros((4, 3)))
    with pytest.raises(FiberMismatch, match="different shapes"):
        affine_diff(_jet_stack(59), _jet_stack(59)[:, :1])


# --- chart changes ----------------------------------------------------------


def test_pushforward_identity_transition():
    j = _jet1(2, 3, 5, 7)
    h = (parse("f1", (1, 1)),)
    assert _same(pushforward_second_jet(h, j), j)


def test_pushforward_squaring_transition():
    # h(f) = f^2: f' = 4, first-order slots scale by h' = 2f = 4, and the
    # mixed slot is h''*fcirc*fdot + h'*fcircdot = 2*5*3 + 4*7 = 58.
    j = _jet1(2, 3, 5, 7)
    h = (parse("f1^2", (1, 1)),)
    assert _same(pushforward_second_jet(h, j), _jet1(4, 12, 20, 58))


def test_pushforward_theta_equivariance_on_example():
    j = _jet1(2, 3, 5, 7)
    h = (parse("f1^2", (1, 1)),)
    expected = _jet1(4, 20, 12, 58)
    assert _same(pushforward_second_jet(h, theta(j)), expected)
    assert _same(theta(pushforward_second_jet(h, j)), expected)


def test_pushforward_theta_equivariance_random():
    rng = SplitMix64(17)
    for _ in range(50):
        n = 1 + rng.int_below(3)
        h = sample_transition(rng, n)
        j = sample_second_jet(rng, 2, n)
        left = pushforward_second_jet(h, theta(j))
        right = theta(pushforward_second_jet(h, j))
        assert np.max(np.abs(left - right)) <= 1e-9


# --- the induced vertical connection ----------------------------------------


def test_vertical_connection_of_flat_is_flat():
    flat = ChristoffelField(P11, parse_grid([["0"]], P11.dims))
    prolonged = vertical_connection(flat)
    assert prolonged.patch.dims == (1, 2)
    p = EvalPoint((0.3,), (0.7, -0.2))
    for row in prolonged.gamma:
        for e in row:
            assert evaluate(e, p) == 0.0


def test_vertical_connection_variation_block():
    # Gamma^1_1 = f1: position symbol keeps its value, variation symbol is
    # dGamma/df * u = u, so at (x, f=2, u=3) the symbols read (2, 3).
    field = ChristoffelField(P11, parse_grid([["f1"]], P11.dims))
    prolonged = vertical_connection(field)
    p = EvalPoint((0.9,), (2.0, 3.0))
    values = tuple(evaluate(row[0], p) for row in prolonged.gamma)
    assert values == (2.0, 3.0)


def test_vertical_connection_of_linear_field_acts_diagonally():
    # Gamma^1_1 = x1*f1 prolongs to x1*u on the variation block: the same
    # linear action on both slots.
    field = ChristoffelField(P11, parse_grid([["x1*f1"]], P11.dims))
    prolonged = vertical_connection(field)
    for x, f, u in ((0.5, 2.0, 3.0), (-1.2, 0.4, -0.7), (2.0, 0.0, 1.0)):
        p = EvalPoint((x,), (f, u))
        assert abs(evaluate(prolonged.gamma[0][0], p) - x * f) <= 1e-15
        assert abs(evaluate(prolonged.gamma[1][0], p) - x * u) <= 1e-15


def test_vertical_connection_belongs_to_its_field():
    field = ChristoffelField(P11, parse_grid([["f1^2"]], P11.dims))
    twin = ChristoffelField(P11, parse_grid([["f1^2"]], P11.dims))
    assert vertical_connection(field) is not vertical_connection(twin)
    assert vertical_connection(field) == vertical_connection(twin)


def test_velocity_sections_follow_the_field():
    # A section's jets under one field and then another are those of a fresh
    # section: nothing computed under the first field is reused.
    s = Section(P21, parse_grid(["x1*x2 + 1"], P21.dims))
    skew = ChristoffelField(P21, parse_grid([["0", "x1"]], P21.dims))
    other = ChristoffelField(P21, parse_grid([["f1^2", "x2*f1"]], P21.dims))
    x = (0.3, -0.6)
    first = _second_covariants(skew, [(s, x)], ((1, 2),))[0]
    fresh = Section(P21, parse_grid(["x1*x2 + 1"], P21.dims))
    again = _second_covariants(other, [(s, x)], ((1, 2),))[0]
    assert _same(again, _second_covariants(other, [(fresh, x)], ((1, 2),))[0])
    assert _same(_second_covariants(skew, [(s, x)], ((1, 2),))[0], first)


# --- second covariant derivatives -------------------------------------------


def test_second_covariant_flat_reduces_to_mixed_partial():
    flat = ChristoffelField(P21, parse_grid([["0", "0"]], P21.dims))
    s = Section(P21, parse_grid(["x1*x2"], P21.dims))
    jet = _second_covariants(flat, [(s, (0.0, 0.0))], ((1, 2),))[0][0, 0]
    assert jet[3].tolist() == [1.0]


def test_second_covariant_skew_jets():
    s = Section(P21, parse_grid(["0"], P21.dims))
    for x in ((0.7, -0.3), (2.0, 1.0)):
        ((jet, other),), _ = _second_covariants(SKEW, [(s, x)], ((1, 2), (2, 1)))
        assert jet.tolist() == [[0.0], [x[0]], [0.0], [1.0]]
        assert other[1:].tolist() == [[0.0], [x[0]], [0.0]]


def test_second_covariant_validates_indices():
    s = Section(P11, parse_grid(["x1"], P11.dims))
    flat = ChristoffelField(P11, parse_grid([["0"]], P11.dims))
    with pytest.raises(ValueError):
        _second_covariants(flat, [(s, (0.0,))], ((1, 2),))


def test_second_covariant_matches_section_family_variation():
    # The prolonged connection is defined so that differentiating a varied
    # family of sections commutes with the variation: the variation block
    # of the prolonged covariant derivative of (s, u) must equal the
    # epsilon-derivative of the covariant derivative of s + eps*u.
    rng = SplitMix64(19)
    eps = 1e-4
    for _ in range(5):
        m, n = 1 + rng.int_below(2), 1 + rng.int_below(2)
        patch = BundlePatch(m, n)
        field = sample_christoffel(rng, patch)
        s = sample_section(rng, patch)
        u = sample_section(rng, patch)
        prolonged = vertical_connection(field)
        stacked = Section(prolonged.patch, s.comps + u.comps)
        x = tuple(rng.symmetric(1.0) for _ in range(m))
        mu = 1 + rng.int_below(m)

        def shifted(sign):
            comps = tuple(
                _symbolic.add(a, _symbolic.mul(_symbolic.const(sign * eps), b))
                for a, b in zip(s.comps, u.comps)
            )
            return covariant_derivative(field, Section(patch, comps), mu, x)

        direct = covariant_derivative(prolonged, stacked, mu, x)
        plus = shifted(1.0)
        minus = shifted(-1.0)
        for a in range(n):
            fd = (plus[a] - minus[a]) / (2.0 * eps)
            assert abs(direct[n + a] - fd) <= 1e-5


def test_prolonged_route_is_the_covariant_derivative_of_the_velocity_section():
    # Reference: the section (s, ds/dx^nu + Gamma_nu(x, s)) of the vertical
    # bundle built as expressions, through the covariant_derivative of
    # tests/_reference.py.
    rng = SplitMix64(31)
    for m, n in ((1, 1), (2, 2), (3, 2)):
        patch = BundlePatch(m, n)
        for _ in range(3):
            field = sample_christoffel(rng, patch)
            s = sample_section(rng, patch)
            x = tuple(rng.symmetric(1.0) for _ in range(m))
            pairs = [(mu, nu) for mu in range(1, m + 1) for nu in range(1, m + 1)]
            routes = prolong._prolonged_covariants(field, [(s, EvalPoint.of(x))], pairs)
            for (mu, nu), route in zip(pairs, routes[:, :, 0].T.tolist()):
                velocity = tuple(
                    _symbolic.add(
                        _symbolic.derivative(c, "x", nu),
                        _symbolic.substitute_fiber(row[nu - 1], s.comps),
                    )
                    for c, row in zip(s.comps, field.gamma)
                )
                paired = Section(vertical_connection(field).patch, s.comps + velocity)
                reference = covariant_derivative(vertical_connection(field), paired, mu, x)
                assert route == pytest.approx(reference, rel=1e-12, abs=1e-12)


# --- commutator curvature ---------------------------------------------------


def test_commutator_flat_vanishes():
    flat = ChristoffelField(P21, parse_grid([["0", "0"]], P21.dims))
    s = Section(P21, parse_grid(["x1^2 + x2"], P21.dims))
    out = commutator_tensor(flat, [(s, (0.4, -1.1))])[0][:, 0, 1, 0]
    assert max(abs(v) for v in out) <= 1e-12


def test_commutator_skew_recovers_unit_curvature():
    s = Section(P21, parse_grid(["0"], P21.dims))
    out = commutator_tensor(SKEW, [(s, (0.7, -0.3))])[0][:, 0, 1, 0]
    assert abs(out[0] - 1.0) <= 1e-12


def test_commutator_equal_indices_vanishes():
    field = ChristoffelField(P21, parse_grid([["f1^2", "x1*f1"]], P21.dims))
    s = Section(P21, parse_grid(["x1 + x2^2"], P21.dims))
    # commutator_tensor sets the diagonal to zero; the jets give it
    ((j1, j2),), _ = _second_covariants(field, [(s, (0.5, 0.25))], ((1, 1), (1, 1)))
    out = affine_diff(j1, theta(j2))
    assert max(abs(v) for v in out) <= 1e-12


def test_commutator_matches_curvature_coefficients():
    rng = SplitMix64(23)
    for _ in range(5):
        m, n = 1 + rng.int_below(3), 1 + rng.int_below(3)
        patch = BundlePatch(m, n)
        field = sample_christoffel(rng, patch)
        s = sample_section(rng, patch)
        x = tuple(rng.symmetric(1.0) for _ in range(m))
        base_pt = EvalPoint.of(x)
        at = EvalPoint(base_pt.x, tuple(evaluate(c, base_pt) for c in s.comps))
        R = curvature_coefficients(field, at)
        tensor = commutator_tensor(field, [(s, x)])[0][..., 0]
        for mu in range(1, m + 1):
            for nu in range(1, m + 1):
                if mu < nu:
                    out = tensor[:, mu - 1, nu - 1]
                else:
                    # the tensor's diagonal and lower triangle are set by
                    # construction; here the jets of the pair give them
                    ((j1, j2),), _ = _second_covariants(field, [(s, x)], ((mu, nu), (nu, mu)))
                    out = affine_diff(j1, theta(j2))
                for a in range(n):
                    assert abs(out[a] - R[a, mu - 1, nu - 1]) <= 1e-9


_SECOND_COVARIANT_ROUTES = pytest.mark.parametrize(
    "route",
    [
        lambda field, s, x: commutator_tensor(field, [(s, x)]),
        lambda field, s, x: _second_covariants(field, [(s, x)], ((1, 2),)),
    ],
    ids=["commutator-tensor", "second-covariant"],
)


@_SECOND_COVARIANT_ROUTES
def test_second_covariants_reject_a_section_of_another_patch(route):
    s = Section(BundlePatch(2, 2), parse_grid(["x1", "x2"], (2, 2)))
    with pytest.raises(ValueError, match="section and connection patches differ"):
        route(SKEW, s, (0.5, 0.25))


@_SECOND_COVARIANT_ROUTES
@pytest.mark.parametrize("x", [(0.5, 0.25, 7.0), (0.5,)], ids=["extra", "missing"])
def test_second_covariants_reject_a_base_point_of_another_dimension(route, x):
    s = Section(P21, parse_grid(["x1*x2"], P21.dims))
    expected = rf"base point has dims \({len(x)}, 0\), expected \(2, 0\)"
    with pytest.raises(ValueError, match=expected):
        route(SKEW, s, x)


@pytest.mark.parametrize("size", [3, 11])
def test_the_commutator_route_of_many_samples_gives_each_its_own_numbers(size):
    # 3 samples are swept on floats and 11 as one stack; either way every
    # sample's tensor and gap are bit for bit those of that sample alone,
    # here with sections that divide, take logarithms and sines
    rng = SplitMix64(size)
    for m, n in ((2, 2), (3, 2)):
        patch = BundlePatch(m, n)
        field = sample_christoffel(rng, patch)
        samples = [(sample_section(rng, patch), tuple(rng.symmetric(1.0) for _ in range(m)))
                   for _ in range(size)]
        comps = ["sin(x1)/(2 + x2)"] + ["log(3 + x1*x2)"] * (n - 1)
        samples[1] = (Section(patch, parse_grid(comps, (m, n))), samples[1][1])
        R, gaps = commutator_tensor(field, samples)
        assert R.shape == (n, m, m, size) and gaps.shape == (size,)
        for sample, (s, x) in enumerate(samples):
            tensor, gap = commutator_tensor(field, [(s, x)])
            assert R[..., sample].tobytes() == tensor[..., 0].tobytes()
            assert gaps[sample] == gap[0]


def test_commutator_tensor_slices_are_the_per_pair_values():
    rng = SplitMix64(29)
    for m, n in ((2, 2), (3, 3)):
        patch = BundlePatch(m, n)
        for _ in range(3):
            field = sample_christoffel(rng, patch)
            s = sample_section(rng, patch)
            x = tuple(rng.symmetric(1.0) for _ in range(m))
            R, gap = commutator_tensor(field, [(s, x)])
            R, gap = R[..., 0], gap[0]
            assert 0.0 <= gap <= 1e-12
            assert R.shape == (n, m, m)
            assert np.array_equal(R, -R.transpose(0, 2, 1))
            assert np.all(np.diagonal(R, axis1=1, axis2=2) == 0.0)
            for mu in range(1, m + 1):
                for nu in range(1, m + 1):
                    ((j1, j2),), _ = _second_covariants(field, [(s, x)], ((mu, nu), (nu, mu)))
                    out = affine_diff(j1, theta(j2))
                    assert np.array_equal(out, R[:, mu - 1, nu - 1])
