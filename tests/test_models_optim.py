"""Tests for SGD and Adagrad optimizers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.optim import Adagrad, Sgd, make_optimizer

from tests import reference_scalar_sgd as scalar


def step_row(opt, name, param, row, grad):
    """One gradient onto one row: ``step_rows`` with a single entry."""
    opt.step_rows(name, param, np.array([row]), np.asarray(grad)[None, :])


class TestSgd:
    def test_step_applies_learning_rate(self):
        param = np.zeros((3, 2))
        opt = Sgd(0.5)
        opt.register("p", param)
        step_row(opt, "p", param, 1, np.array([2.0, -2.0]))
        assert np.allclose(param[1], [1.0, -1.0])
        assert np.allclose(param[0], 0.0)

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            Sgd(0.0)

    def test_stateless(self):
        assert Sgd(0.1).state_size_bytes() == 0


class TestAdagrad:
    def test_first_step_is_unit_scaled(self):
        """With an empty accumulator, step size is ~lr * sign(grad)."""
        param = np.zeros((1, 2))
        opt = Adagrad(0.1)
        opt.register("p", param)
        step_row(opt, "p", param, 0, np.array([4.0, -9.0]))
        assert np.allclose(param[0], [0.1, -0.1], atol=1e-6)

    def test_repeated_updates_damp(self):
        """Hot rows cool down: the same gradient moves the row less later."""
        param = np.zeros((1, 1))
        opt = Adagrad(0.1)
        opt.register("p", param)
        step_row(opt, "p", param, 0, np.array([1.0]))
        first_move = float(param[0, 0])
        before = float(param[0, 0])
        step_row(opt, "p", param, 0, np.array([1.0]))
        second_move = float(param[0, 0]) - before
        assert second_move < first_move

    def test_rare_rows_keep_full_rate(self):
        """A row updated once still gets a near-full-rate step later —
        'relatively increases the rate for the rare items'."""
        param = np.zeros((2, 1))
        opt = Adagrad(0.1)
        opt.register("p", param)
        for _ in range(50):
            step_row(opt, "p", param, 0, np.array([1.0]))
        before = param.copy()
        step_row(opt, "p", param, 0, np.array([1.0]))
        step_row(opt, "p", param, 1, np.array([1.0]))
        hot_move = param[0, 0] - before[0, 0]
        cold_move = param[1, 0] - before[1, 0]
        assert cold_move > 5 * hot_move

    def test_reset_norms(self):
        """Incremental runs reset the accumulated norms (section III-C3)."""
        param = np.zeros((1, 1))
        opt = Adagrad(0.1)
        opt.register("p", param)
        for _ in range(20):
            step_row(opt, "p", param, 0, np.array([1.0]))
        assert opt.accumulated_norm("p") > 0
        opt.reset_norms()
        assert opt.accumulated_norm("p") == 0.0
        before = float(param[0, 0])
        step_row(opt, "p", param, 0, np.array([1.0]))
        assert param[0, 0] - before == pytest.approx(0.1, abs=1e-6)

    def test_reregister_same_shape_keeps_state(self):
        param = np.zeros((2, 2))
        opt = Adagrad(0.1)
        opt.register("p", param)
        step_row(opt, "p", param, 0, np.ones(2))
        opt.register("p", param)
        assert opt.accumulated_norm("p") > 0

    def test_reregister_shape_mismatch_rejected(self):
        opt = Adagrad(0.1)
        opt.register("p", np.zeros((2, 2)))
        with pytest.raises(ValueError):
            opt.register("p", np.zeros((3, 2)))

    def test_state_size(self):
        opt = Adagrad(0.1)
        opt.register("p", np.zeros((10, 4)))
        assert opt.state_size_bytes() == 10 * 4 * 8


class TestStepRows:
    """The row updater: one gradient per listed row, duplicates summed."""

    def test_sgd_single_row_matches_scalar_oracle(self):
        a, b = np.zeros((4, 3)), np.zeros((4, 3))
        opt_a, opt_b = Sgd(0.3), Sgd(0.3)
        opt_a.register("p", a)
        opt_b.register("p", b)
        grad = np.array([1.0, -2.0, 0.5])
        scalar.step(opt_a, "p", a, 2, grad)
        opt_b.step_rows("p", b, np.array([2]), grad[None, :])
        assert np.array_equal(a, b)

    def test_adagrad_single_row_matches_scalar_oracle(self):
        a, b = np.zeros((4, 3)), np.zeros((4, 3))
        opt_a, opt_b = Adagrad(0.3), Adagrad(0.3)
        opt_a.register("p", a)
        opt_b.register("p", b)
        for grad in (np.array([1.0, -2.0, 0.5]), np.array([0.2, 0.1, -3.0])):
            scalar.step(opt_a, "p", a, 2, grad)
            opt_b.step_rows("p", b, np.array([2]), grad[None, :])
        assert np.allclose(a, b, atol=1e-15)
        assert opt_a.accumulated_norm("p") == pytest.approx(
            opt_b.accumulated_norm("p")
        )

    def test_sgd_duplicate_rows_sum(self):
        param = np.zeros((2, 1))
        opt = Sgd(1.0)
        opt.register("p", param)
        opt.step_rows(
            "p", param, np.array([0, 0]), np.array([[1.0], [2.0]])
        )
        assert param[0, 0] == pytest.approx(3.0)  # add.at, not last-write-wins

    def test_adagrad_duplicate_rows_accumulate_before_scaling(self):
        """Both occurrences of a duplicated row are damped by the full
        batch's squared mass — per-row adaptivity survives batching."""
        param = np.zeros((1, 1))
        opt = Adagrad(1.0, epsilon=0.0)
        opt.register("p", param)
        opt.step_rows("p", param, np.array([0, 0]), np.array([[3.0], [4.0]]))
        assert opt.accumulated_norm("p") == pytest.approx(25.0)
        assert param[0, 0] == pytest.approx((3.0 + 4.0) / 5.0)

    def test_step_rows_on_1d_bias(self):
        bias = np.zeros(5)
        opt = Adagrad(0.5)
        opt.register("b", bias)
        opt.step_rows("b", bias, np.array([1, 3]), np.array([2.0, -2.0]))
        assert bias[1] > 0 and bias[3] < 0
        assert bias[0] == bias[2] == bias[4] == 0.0


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_optimizer("sgd", 0.1), Sgd)
        assert isinstance(make_optimizer("adagrad", 0.1), Adagrad)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_optimizer("adam", 0.1)
