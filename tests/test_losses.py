"""Margin losses: printed-formula values, subgradients, curvatures, convexity,
bounds, and bit identity with the per-quantity tables the losses once had."""

import numpy as np
import pytest

from claslab.base import sign_labels
from claslab.losses import LN2, LOSS_NAMES, MARGIN_LOSSES, get_loss

SURROGATES = [n for n in LOSS_NAMES if n != "zero_one"]
SMOOTH = ["logistic", "squared", "exponential", "truncated_squared"]


def central_difference(loss, a, b, h=1e-6):
    return (loss.value(a + h, b) - loss.value(a - h, b)) / (2 * h)


class TestValues:
    def test_all_surrogates_equal_one_at_zero_margin(self):
        for name in SURROGATES:
            assert get_loss(name).value(0.0, 1) == pytest.approx(1.0, abs=1e-12), name

    def test_zero_loss_beyond_margin(self):
        assert get_loss("hinge").value(2.0, 1) == 0.0
        assert get_loss("squared").value(1.0, 1) == 0.0
        assert get_loss("truncated_squared").value(3.0, 1) == 0.0

    def test_hand_evaluations(self):
        assert get_loss("squared").value(-1.0, 1) == 4.0
        # log2(1 + e^{+1}); second path: ln(1+e)/ln 2
        expected = np.log(1.0 + np.e) / np.log(2.0)
        assert get_loss("logistic").value(-1.0, 1) == pytest.approx(expected, rel=1e-12)
        assert get_loss("exponential").value(-1.0, 1) == pytest.approx(np.e, rel=1e-12)
        assert get_loss("absolute").value(3.0, 1) == pytest.approx(2.0, abs=1e-12)

    def test_zero_one_uses_positive_tie(self):
        zo = get_loss("zero_one")
        assert zo.value(0.0, 1) == 0.0  # sign(0) = +1 matches
        assert zo.value(0.0, -1) == 1.0
        assert zo.value(-0.5, -1) == 0.0

    def test_logistic_stable_at_large_margins(self):
        log = get_loss("logistic")
        assert np.isfinite(log.value(-1000.0, 1))
        assert log.value(1000.0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            get_loss("perceptron")


class TestGradients:
    def test_squared_zero_at_fit(self):
        assert get_loss("squared").grad(1.0, 1) == 0.0

    def test_squared_formula(self):
        sq = get_loss("squared")
        for a, b in [(0.3, 1), (-0.7, -1), (2.0, 1)]:
            assert sq.grad(a, b) == pytest.approx(-2 * b * (1 - b * a), rel=1e-12)

    def test_hinge_piecewise(self):
        hinge = get_loss("hinge")
        assert hinge.grad(2.0, 1) == 0.0  # margin > 1
        assert hinge.grad(0.5, 1) == -1.0  # margin < 1, b = +1
        assert hinge.grad(-0.5, -1) == 1.0
        assert hinge.grad(1.0, 1) == 0.0  # kink: subgradient choice

    def test_absolute_kink_subgradient_zero(self):
        assert get_loss("absolute").grad(1.0, 1) == 0.0

    def test_logistic_at_zero(self):
        expected = -1.0 / (2.0 * np.log(2.0))
        assert get_loss("logistic").grad(0.0, 1) == pytest.approx(expected, rel=1e-12)

    def test_zero_one_has_no_gradient(self):
        with pytest.raises(ValueError):
            get_loss("zero_one").grad(0.5, 1)

    @pytest.mark.parametrize("name", SURROGATES)
    def test_matches_central_differences(self, name):
        loss = get_loss(name)
        rng = np.random.default_rng(20260810)
        for _ in range(1000):
            a = float(rng.uniform(-5, 5))
            b = int(rng.choice([-1, 1]))
            g = loss.grad(a, b)
            fd = central_difference(loss, a, b)
            assert abs(g - fd) <= 1e-5 * (1 + abs(g)), (name, a, b)


class TestProperties:
    def test_surrogates_upper_bound_zero_one(self):
        margins = np.linspace(-10, 10, 2001)
        zo_of_margin = (margins < 0).astype(float)  # b=+1 view; m=0 is correct
        for name in SURROGATES:
            vals = get_loss(name).value(margins, np.ones_like(margins, dtype=int))
            assert np.all(vals >= zo_of_margin), name
            assert np.all(vals >= 0), name

    def test_margin_dependence(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-4, 4, size=200)
        for name in LOSS_NAMES:
            loss = get_loss(name)
            np.testing.assert_allclose(
                loss.value(a, np.ones_like(a, dtype=int)),
                loss.value(-a, -np.ones_like(a, dtype=int)),
                atol=0,
            )

    def test_convexity_midpoint(self):
        rng = np.random.default_rng(13)
        for name in SURROGATES:
            loss = get_loss(name)
            for _ in range(300):
                a1, a2 = rng.uniform(-6, 6, size=2)
                b = int(rng.choice([-1, 1]))
                mid = loss.value((a1 + a2) / 2, b)
                chord = 0.5 * (loss.value(a1, b) + loss.value(a2, b))
                assert mid <= chord + 1e-12, name


class TestCurvatures:
    @pytest.mark.parametrize("name", SMOOTH)
    def test_matches_central_differences_of_the_gradient(self, name):
        loss = get_loss(name)
        rng = np.random.default_rng(20261019)
        h = 1e-6
        for _ in range(1000):
            a = float(rng.uniform(-5, 5))
            b = int(rng.choice([-1, 1]))
            if abs(b * a - 1.0) < 1e-3:  # truncated_squared's kink at m = 1
                continue
            c = loss.curvature(a, b)
            fd = (loss.grad(a + h, b) - loss.grad(a - h, b)) / (2 * h)
            assert abs(c - fd) <= 1e-5 * (1 + abs(c)), (name, a, b)

    @pytest.mark.parametrize("name", ["hinge", "absolute", "zero_one"])
    def test_loss_without_curvature_names_itself(self, name):
        with pytest.raises(ValueError, match=f"^the {name} loss has no curvature$"):
            get_loss(name).curvature(0.3, 1)

    @pytest.mark.parametrize("name", SMOOTH)
    def test_scalar_in_float_out_like_value_and_grad(self, name):
        loss = get_loss(name)
        assert type(loss.curvature(0.3, 1)) is float
        assert type(loss.value(0.3, 1)) is float
        assert type(loss.grad(0.3, 1)) is float
        assert loss.curvature([0.3, -2.0], [1, -1]).tolist() == loss.curvature(
            np.array([0.3, -2.0]), np.array([1, -1])
        ).tolist()


class TestFlags:
    def test_smooth_exactly_when_the_row_has_a_curvature(self):
        smooth = [n for n in LOSS_NAMES if get_loss(n).smooth]
        assert smooth == [n for n, row in MARGIN_LOSSES.items() if row[2] is not None]
        assert smooth == SMOOTH

    def test_positive_exactly_when_the_value_stays_above_zero(self):
        margins = np.linspace(-30, 30, 6001)
        ones = np.ones_like(margins, dtype=int)
        for name in LOSS_NAMES:
            loss = get_loss(name)
            assert loss.positive == bool(np.all(loss.value(margins, ones) > 0)), name
        assert [n for n in LOSS_NAMES if get_loss(n).positive] == ["logistic", "exponential"]


def _reference_logistic(m):
    return np.logaddexp(0.0, -m) / LN2


def _reference_logistic_grad(m):
    return -0.5 * (1.0 - np.tanh(0.5 * m)) / LN2


def _reference_logistic_curvature(m):
    e = np.exp(-np.abs(m))
    return e / (1.0 + e) ** 2 / LN2


# The per-quantity tables the losses were defined by before they became one
# row per loss, kept verbatim as the reference for bit identity.
REFERENCE_VALUES = {
    "logistic": _reference_logistic,
    "hinge": lambda m: np.maximum(1.0 - m, 0.0),
    "squared": lambda m: (1.0 - m) ** 2,
    "exponential": lambda m: np.exp(-m),
    "truncated_squared": lambda m: np.maximum(1.0 - m, 0.0) ** 2,
    "absolute": lambda m: np.abs(1.0 - m),
}
REFERENCE_GRADS = {
    "logistic": _reference_logistic_grad,
    "hinge": lambda m: np.where(m < 1.0, -1.0, 0.0),
    "squared": lambda m: -2.0 * (1.0 - m),
    "exponential": lambda m: -np.exp(-m),
    "truncated_squared": lambda m: -2.0 * np.maximum(1.0 - m, 0.0),
    "absolute": lambda m: -np.sign(1.0 - m),
}
REFERENCE_CURVATURES = {
    "logistic": _reference_logistic_curvature,
    "squared": lambda m: np.full_like(m, 2.0),
    "exponential": lambda m: np.exp(-m),
    "truncated_squared": lambda m: np.where(m < 1.0, 2.0, 0.0),
}
REFERENCE_POSITIVE = ("logistic", "exponential")


def reference_scores():
    special = [0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 800.0, -800.0]
    special += [1e300, -1e300]
    rng = np.random.default_rng(2026)
    return np.concatenate([special, rng.uniform(-40, 40, size=2000)])


class TestBitIdentityWithTheReferenceTables:
    @pytest.mark.parametrize("name", LOSS_NAMES)
    @pytest.mark.parametrize("b", [1, -1])
    def test_values_gradients_and_curvatures(self, name, b):
        loss = get_loss(name)
        a = reference_scores()
        y = np.full(a.shape, b)
        expected = {}
        with np.errstate(all="ignore"):
            if name == "zero_one":
                expected["value"] = np.where(sign_labels(a) != y, 1.0, 0.0)
            else:
                expected["value"] = REFERENCE_VALUES[name](y * a)
                expected["grad"] = y * REFERENCE_GRADS[name](y * a)
            if name in REFERENCE_CURVATURES:
                expected["curvature"] = y * y * REFERENCE_CURVATURES[name](y * a)
            for method, ref in expected.items():
                f = getattr(loss, method)
                assert f(a, y).tobytes() == ref.tobytes(), method
                for i in range(9):  # the scalar path, on the special scores
                    assert np.float64(f(a[i], b)).tobytes() == ref[i].tobytes(), (method, a[i])

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_flags(self, name):
        loss = get_loss(name)
        assert loss.differentiable == (name in REFERENCE_VALUES)
        assert loss.smooth == (name in REFERENCE_CURVATURES)
        assert loss.positive == (name in REFERENCE_POSITIVE)
