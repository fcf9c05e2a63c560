"""Tests for SGD and Adagrad optimizers."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.models.optim import (
    Adagrad,
    Sgd,
    carve,
    flat_row_index,
    make_optimizer,
    scatter_add_rows,
)

from tests import reference_scalar_sgd as scalar


def register(opt, shape):
    """A flat buffer whose one table ``"p"`` has ``shape``, registered with
    ``opt``; returns the buffer and the table (a view of it)."""
    opt.register_flat({"p": (0, shape)})
    buffer = np.zeros(int(np.prod(shape)))
    return buffer, buffer.reshape(shape)


def step_table_rows(opt, buffer, rows, grads):
    """One gradient per listed row of the buffer's ``(n, width)`` table."""
    grads = np.asarray(grads, dtype=np.float64)
    opt.step_flat(buffer, flat_row_index(np.asarray(rows), grads.shape[1]), grads.reshape(-1))


def step_row(opt, buffer, row, grad):
    """One gradient onto one row: :func:`step_table_rows` with a single entry."""
    step_table_rows(opt, buffer, [row], np.asarray(grad)[None, :])


class TestSgd:
    def test_step_applies_learning_rate(self):
        opt = Sgd(0.5)
        buffer, param = register(opt, (3, 2))
        step_row(opt, buffer, 1, np.array([2.0, -2.0]))
        assert np.allclose(param[1], [1.0, -1.0])
        assert np.allclose(param[0], 0.0)

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            Sgd(0.0)


class TestAdagrad:
    def test_first_step_is_unit_scaled(self):
        """With an empty accumulator, step size is ~lr * sign(grad)."""
        opt = Adagrad(0.1)
        buffer, param = register(opt, (1, 2))
        step_row(opt, buffer, 0, np.array([4.0, -9.0]))
        assert np.allclose(param[0], [0.1, -0.1], atol=1e-6)

    def test_repeated_updates_damp(self):
        """Hot rows cool down: the same gradient moves the row less later."""
        opt = Adagrad(0.1)
        buffer, param = register(opt, (1, 1))
        step_row(opt, buffer, 0, np.array([1.0]))
        first_move = float(param[0, 0])
        before = float(param[0, 0])
        step_row(opt, buffer, 0, np.array([1.0]))
        second_move = float(param[0, 0]) - before
        assert second_move < first_move

    def test_rare_rows_keep_full_rate(self):
        """A row updated once still gets a near-full-rate step later —
        'relatively increases the rate for the rare items'."""
        opt = Adagrad(0.1)
        buffer, param = register(opt, (2, 1))
        for _ in range(50):
            step_row(opt, buffer, 0, np.array([1.0]))
        before = param.copy()
        step_row(opt, buffer, 0, np.array([1.0]))
        step_row(opt, buffer, 1, np.array([1.0]))
        hot_move = param[0, 0] - before[0, 0]
        cold_move = param[1, 0] - before[1, 0]
        assert cold_move > 5 * hot_move

    def test_reset_norms(self):
        """Incremental runs reset the accumulated norms (section III-C3)."""
        opt = Adagrad(0.1)
        buffer, param = register(opt, (1, 1))
        for _ in range(20):
            step_row(opt, buffer, 0, np.array([1.0]))
        assert opt.accumulated_norm("p") > 0
        opt.reset_norms()
        assert opt.accumulated_norm("p") == 0.0
        before = float(param[0, 0])
        step_row(opt, buffer, 0, np.array([1.0]))
        assert param[0, 0] - before == pytest.approx(0.1, abs=1e-6)

    def test_released_norms_step_like_reset_ones(self):
        """A released optimizer holds no sums, reads as all-zero norms, and
        its next step is the step of a twin whose norms were reset."""
        released, reset = Adagrad(0.1), Adagrad(0.1)
        (buffer_a, a), (buffer_b, b) = register(released, (3, 2)), register(reset, (3, 2))
        for opt, buffer in ((released, buffer_a), (reset, buffer_b)):
            for _ in range(5):
                step_row(opt, buffer, 1, np.array([1.0, -2.0]))
        released.release_norms()
        reset.reset_norms()
        assert released._flat is None and released._accumulators == {}
        assert released.accumulated_norm("p") == 0.0
        released.reset_norms()  # nothing to zero
        for opt, buffer in ((released, buffer_a), (reset, buffer_b)):
            step_row(opt, buffer, 2, np.array([0.5, 3.0]))
        assert a.tobytes() == b.tobytes()
        assert released._flat.tobytes() == reset._flat.tobytes()
        assert np.shares_memory(released._accumulators["p"], released._flat)

    @pytest.mark.parametrize("route", ["pickle", "deepcopy"])
    def test_a_released_optimizer_copies_released(self, route):
        opt = Adagrad(0.1)
        buffer, _ = register(opt, (2, 2))
        step_row(opt, buffer, 0, np.array([1.0, 1.0]))
        opt.release_norms()
        twin = pickle.loads(pickle.dumps(opt)) if route == "pickle" else copy.deepcopy(opt)
        assert twin._flat is None and twin.accumulated_norm("p") == 0.0
        step_row(twin, buffer, 1, np.array([3.0, 0.0]))
        assert twin.accumulated_norm("p") == pytest.approx(9.0)
        assert opt._flat is None

    def test_sgd_has_nothing_to_release(self):
        opt = Sgd(0.5)
        buffer, param = register(opt, (2, 1))
        opt.release_norms()
        step_row(opt, buffer, 0, np.array([2.0]))
        assert param[0, 0] == pytest.approx(1.0)

    def test_one_step_reaches_every_table(self):
        """A flat step touching two tables lands in each table's accumulator."""
        opt = Adagrad(0.1)
        opt.register_flat({"w": (0, (2, 3)), "b": (6, (2,))})
        buffer = np.zeros(8)
        opt.step_flat(buffer, np.array([1, 4, 7]), np.array([1.0, 2.0, 3.0]))
        assert opt.accumulated_norm("w") == pytest.approx(5.0)
        assert opt.accumulated_norm("b") == pytest.approx(9.0)

    @pytest.mark.parametrize("route", ["pickle", "deepcopy"])
    def test_a_copy_steps_its_own_accumulators(self, route):
        """A copy re-carves its table views from its own flat buffer: its
        steps show in its norms and leave the original's alone."""
        opt = Adagrad(0.1)
        buffer, _ = register(opt, (2, 2))
        step_row(opt, buffer, 0, np.array([1.0, 1.0]))
        twin = pickle.loads(pickle.dumps(opt)) if route == "pickle" else copy.deepcopy(opt)
        assert twin.accumulated_norm("p") == pytest.approx(2.0)
        step_row(twin, buffer.copy(), 1, np.array([3.0, 0.0]))
        assert twin.accumulated_norm("p") == pytest.approx(11.0)
        assert opt.accumulated_norm("p") == pytest.approx(2.0)
        assert np.shares_memory(twin._accumulators["p"], twin._flat)


class TestStepFlat:
    """The element updater: one gradient per listed element, duplicates summed."""

    def test_sgd_single_row_matches_scalar_oracle(self):
        opt_a, opt_b = Sgd(0.3), Sgd(0.3)
        (_, a), (buffer, b) = register(opt_a, (4, 3)), register(opt_b, (4, 3))
        grad = np.array([1.0, -2.0, 0.5])
        scalar.step(opt_a, "p", a, 2, grad)
        step_row(opt_b, buffer, 2, grad)
        assert np.array_equal(a, b)

    def test_adagrad_single_row_matches_scalar_oracle(self):
        opt_a, opt_b = Adagrad(0.3), Adagrad(0.3)
        (_, a), (buffer, b) = register(opt_a, (4, 3)), register(opt_b, (4, 3))
        for grad in (np.array([1.0, -2.0, 0.5]), np.array([0.2, 0.1, -3.0])):
            scalar.step(opt_a, "p", a, 2, grad)
            step_row(opt_b, buffer, 2, grad)
        assert np.allclose(a, b, atol=1e-15)
        assert opt_a.accumulated_norm("p") == pytest.approx(
            opt_b.accumulated_norm("p")
        )

    def test_sgd_duplicate_rows_sum(self):
        opt = Sgd(1.0)
        buffer, param = register(opt, (2, 1))
        step_table_rows(opt, buffer, [0, 0], [[1.0], [2.0]])
        assert param[0, 0] == pytest.approx(3.0)  # add.at, not last-write-wins

    def test_adagrad_duplicate_rows_accumulate_before_scaling(self):
        """Both occurrences of a duplicated row are damped by the full
        batch's squared mass — per-row adaptivity survives batching."""
        opt = Adagrad(1.0, epsilon=0.0)
        buffer, param = register(opt, (1, 1))
        step_table_rows(opt, buffer, [0, 0], [[3.0], [4.0]])
        assert opt.accumulated_norm("p") == pytest.approx(25.0)
        assert param[0, 0] == pytest.approx((3.0 + 4.0) / 5.0)

    def test_step_flat_on_1d_bias(self):
        opt = Adagrad(0.5)
        opt.register_flat({"b": (0, (5,))})
        bias = np.zeros(5)
        opt.step_flat(bias, np.array([1, 3]), np.array([2.0, -2.0]))
        assert bias[1] > 0 and bias[3] < 0
        assert bias[0] == bias[2] == bias[4] == 0.0


class TestLayout:
    def test_carve_views_share_the_buffer(self):
        buffer = np.zeros(10)
        tables = carve(buffer, {"w": (0, (2, 3)), "b": (6, (4,))})
        tables["w"][1, 2] = 5.0
        tables["b"][0] = 7.0
        assert buffer[5] == 5.0 and buffer[6] == 7.0
        assert [t.shape for t in tables.values()] == [(2, 3), (4,)]

    def test_flat_row_index_is_row_major(self):
        rows = np.array([2, 0, 2])
        table = np.arange(12).reshape(4, 3)
        assert np.array_equal(
            table.reshape(-1)[flat_row_index(rows, 3)], table[rows].reshape(-1)
        )


class TestScatterAddRows:
    """The fast scatter is ``np.add.at``: the same sums in the same order."""

    @pytest.mark.parametrize("shape", ["table", "bias", "strided"])
    def test_matches_add_at(self, shape):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 5, size=40)
        if shape == "bias":
            target, values = rng.normal(size=5), rng.normal(size=40)
        else:
            target, values = rng.normal(size=(5, 4)), rng.normal(size=(40, 4)) * 1e8
            if shape == "strided":
                target = np.asfortranarray(target)
        expected = target.copy()
        np.add.at(expected, rows, values)
        scatter_add_rows(target, rows, values)
        assert target.tobytes() == expected.tobytes()


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_optimizer("sgd", 0.1), Sgd)
        assert isinstance(make_optimizer("adagrad", 0.1), Adagrad)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_optimizer("adam", 0.1)
