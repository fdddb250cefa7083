import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from fiscalsvar.dgp import reference_spec, simulate_var
from fiscalsvar.errors import (
    DecompositionError,
    DegenerateDenominatorError,
    ShapeError,
)
from fiscalsvar.svar import (
    IrfSet,
    cholesky_factor,
    cumulative_ratio,
    identify_cholesky,
    irf,
    lower_cholesky,
    multiplier_path,
    propagate_impulse,
)
from fiscalsvar.var import companion_matrix, estimate_var


def random_pd(k, rng):
    A = rng.normal(size=(k, k))
    return A @ A.T + k * np.eye(k)


class TestLowerCholesky:
    def test_known_factor(self):
        sigma = np.array([[4.0, 2.0], [2.0, 3.0]])
        L = lower_cholesky(sigma)
        assert np.array_equal(L, np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]]))

    def test_matches_lapack(self):
        rng = np.random.default_rng(42)
        for k in (2, 3, 4, 6):
            sigma = random_pd(k, rng)
            assert lower_cholesky(sigma) == pytest.approx(np.linalg.cholesky(sigma))

    def test_reconstruction(self):
        rng = np.random.default_rng(9)
        sigma = random_pd(4, rng)
        L = lower_cholesky(sigma)
        assert np.max(np.abs(L @ L.T - sigma)) < 1e-12
        assert np.array_equal(np.triu(L, 1), np.zeros((4, 4)))

    def test_zero_pivot_reported_one_based(self):
        with pytest.raises(DecompositionError) as err:
            lower_cholesky(np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert err.value.pivot == 1

    def test_second_pivot_failure(self):
        # 1 - 2^2 = -3 at the second step
        with pytest.raises(DecompositionError) as err:
            lower_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert err.value.pivot == 2

    def test_rounding_level_negative_pivot_not_repaired(self):
        sigma = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-14]])
        with pytest.raises(DecompositionError) as err:
            lower_cholesky(sigma)
        assert err.value.pivot == 2

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            lower_cholesky(np.zeros((2, 3)))


class TestCholeskyFactor:
    def test_stack_matches_single_factor(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(30, 4, 4))
        sigma = A @ A.transpose(0, 2, 1) + 0.1 * np.eye(4)
        L, pivots = cholesky_factor(sigma)
        assert np.all(pivots > 0.0)
        for s, factor in zip(sigma, L):
            assert np.array_equal(factor, lower_cholesky(s))

    def test_pivots_flag_what_the_single_factor_rejects(self):
        sigma = np.stack([np.eye(3), np.diag([1.0, -1.0, 1.0]), np.ones((3, 3))])
        L, pivots = cholesky_factor(sigma)
        assert (pivots <= 0.0).any(axis=1).tolist() == [False, True, True]
        assert np.array_equal(L[0], np.eye(3))
        for s, expected in zip(sigma[1:], (2, 2)):
            with pytest.raises(DecompositionError) as err:
                lower_cholesky(s)
            assert err.value.pivot == expected


class TestIdentify:
    def test_b_reconstructs_sigma(self):
        panel = simulate_var(reference_spec(T=120, seed=1))
        est = estimate_var(panel, p=4)
        model = identify_cholesky(est, panel.x_labels)
        assert np.max(np.abs(model.B @ model.B.T - est.sigma)) < 1e-14

    def test_ordering_length_checked(self):
        panel = simulate_var(reference_spec(T=120, seed=1))
        est = estimate_var(panel, p=4)
        with pytest.raises(ShapeError):
            identify_cholesky(est, ("G", "Y"))


class TestIrf:
    def test_closed_form_half_identity(self):
        # VAR(1) with Gamma = 0.5 I: response at h is 0.5^h times the B column
        spec = reference_spec(T=84)
        est = estimate_var(simulate_var(spec), p=1)
        B = np.array(
            [
                [2.0, 0.0, 0.0, 0.0],
                [-1.0, 1.5, 0.0, 0.0],
                [0.5, 0.2, 1.0, 0.0],
                [0.1, -0.3, 0.7, 0.25],
            ]
        )
        est = replace(
            est, gammas=0.5 * np.eye(4)[np.newaxis], sigma=B @ B.T
        )
        model = identify_cholesky(est, ("G", "T", "Y", "i"))
        out = irf(model, "G", 20)
        for h in range(21):
            assert out.responses[h] == pytest.approx(0.5**h * B[:, 0], rel=1e-13)

    def test_matches_matrix_power_oracle(self):
        panel = simulate_var(reference_spec(T=140, seed=8))
        est = estimate_var(panel, p=4)
        model = identify_cholesky(est, panel.x_labels)
        out = irf(model, "G", 12)
        F = companion_matrix(est.gammas)
        col = model.B[:, 0]
        for h in range(13):
            direct = np.linalg.matrix_power(F, h)[:4, :4] @ col
            assert out.responses[h] == pytest.approx(direct, rel=1e-10, abs=1e-14)

    def test_impact_is_b_column(self):
        panel = simulate_var(reference_spec(T=100, seed=3))
        est = estimate_var(panel, p=2)
        model = identify_cholesky(est, panel.x_labels)
        for j, shock in enumerate(panel.x_labels):
            out = irf(model, shock, 0)
            assert np.array_equal(out.responses[0], model.B[:, j])

    def test_unknown_shock(self):
        panel = simulate_var(reference_spec(T=100, seed=3))
        est = estimate_var(panel, p=2)
        model = identify_cholesky(est, panel.x_labels)
        with pytest.raises(ShapeError):
            irf(model, "Q", 4)

    def test_propagate_stack_matches_single_runs(self):
        rng = np.random.default_rng(4)
        F = 0.3 * rng.normal(size=(5, 6, 6))
        impact = rng.normal(size=(5, 3))
        out = propagate_impulse(F, impact, 8)
        assert out.shape == (5, 9, 3)
        for f, i, o in zip(F, impact, out):
            assert np.array_equal(propagate_impulse(f, i, 8), o)

    def test_propagate_zero_gamma_dies_after_impact(self):
        F = np.zeros((3, 3))
        impact = np.array([1.0, 2.0, 3.0])
        out = propagate_impulse(F, impact, 5)
        assert np.array_equal(out[0], impact)
        assert np.all(out[1:] == 0.0)


def irfset(g_resp, y_resp):
    responses = np.column_stack([g_resp, y_resp])
    return IrfSet(ordering=("G", "Y"), responses=responses)


class TestMultiplierPath:
    def test_hand_computed_ratios(self):
        out = irfset([1.0, 1.0, 1.0], [2.0, 0.0, 1.0])
        m = multiplier_path(out, "Y", "G", 3)
        # cumulative Y: 2, 2, 3; cumulative G: 1, 2, 3
        assert list(m.values) == [2.0, 1.0, 1.0]

    def test_first_quarter_is_impact_ratio(self):
        panel = simulate_var(reference_spec(T=110, seed=6))
        est = estimate_var(panel, p=4)
        model = identify_cholesky(est, panel.x_labels)
        out = irf(model, "G", 20)
        m = multiplier_path(out, "Y", "G", 20)
        assert m.at_quarter(1) == pytest.approx(model.B[2, 0] / model.B[0, 0], rel=1e-14)

    def test_degenerate_denominator_reports_quarter(self):
        out = irfset([1.0, -1.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(DegenerateDenominatorError) as err:
            multiplier_path(out, "Y", "G", 3)
        assert err.value.horizon == 2

    def test_cumulative_ratio_leaves_degenerate_quarters_undefined(self):
        responses = np.array([
            [[1.0, 2.0], [1.0, 0.0], [1.0, 1.0]],
            [[1.0, 1.0], [-1.0, 1.0], [1.0, 1.0]],
        ])
        ratio, cum_g = cumulative_ratio(responses, 1, 0, 3)
        assert np.array_equal(cum_g, [[1.0, 2.0, 3.0], [1.0, 0.0, 1.0]])
        assert ratio[0].tolist() == [2.0, 1.0, 1.0]
        assert ratio[1, 0] == 1.0 and np.isnan(ratio[1, 1]) and ratio[1, 2] == 3.0

    def test_needs_enough_horizons(self):
        out = irfset([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ShapeError):
            multiplier_path(out, "Y", "G", 5)

    @pytest.mark.parametrize(
        "call",
        [
            lambda out: multiplier_path(out, "Q", "G", 2),
            lambda out: multiplier_path(out, "Y", "Q", 2),
        ],
        ids=["response", "shock_variable"],
    )
    def test_unknown_variable_is_shape_error(self, call):
        out = irfset([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ShapeError, match="unknown variable 'Q'"):
            call(out)

    @pytest.mark.parametrize("alpha", [0.25, 4.0])
    def test_scale_invariance_bitwise(self, alpha):
        # covariance scaling cancels exactly in the cumulative ratio
        panel = simulate_var(reference_spec(T=96, seed=12))
        est = estimate_var(panel, p=4)
        scaled = replace(est, sigma=alpha * est.sigma)
        base = multiplier_path(
            irf(identify_cholesky(est, panel.x_labels), "G", 20), "Y", "G", 20
        )
        other = multiplier_path(
            irf(identify_cholesky(scaled, panel.x_labels), "G", 20), "Y", "G", 20
        )
        assert np.array_equal(base.values, other.values)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=30)
    def test_scale_near_invariance_any_alpha(self, alpha):
        panel = simulate_var(reference_spec(T=96, seed=12))
        est = estimate_var(panel, p=2)
        scaled = replace(est, sigma=alpha * est.sigma)
        base = multiplier_path(
            irf(identify_cholesky(est, panel.x_labels), "G", 12), "Y", "G", 12
        )
        other = multiplier_path(
            irf(identify_cholesky(scaled, panel.x_labels), "G", 12), "Y", "G", 12
        )
        assert other.values == pytest.approx(base.values, rel=1e-12)
