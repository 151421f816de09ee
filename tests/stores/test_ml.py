"""Tests for the ML engine: tensor ops, models and clustering."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DataModelError, StorageError
from repro.stores.ml import (
    LogisticRegression,
    MLEngine,
    MLPClassifier,
    TensorOps,
    kmeans,
)


def make_blobs(n: int = 200, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] + 0.5 * x[:, 1] - 0.2 * x[:, 2] > 0).astype(np.float64)
    return x, y


class TestTensorOps:
    def test_gemm_counts_flops(self):
        ops = TensorOps()
        ops.gemm(np.ones((4, 5)), np.ones((5, 6)))
        assert ops.counter.flops == 2 * 4 * 5 * 6
        assert ops.counter.gemm_calls == 1

    def test_gemv_and_shapes(self):
        ops = TensorOps()
        result = ops.gemv(np.ones((3, 2)), np.array([1.0, 2.0]))
        assert np.allclose(result, 3.0)
        with pytest.raises(DataModelError):
            ops.gemv(np.ones((3, 2)), np.ones(5))

    def test_gemm_shape_mismatch(self):
        with pytest.raises(DataModelError):
            TensorOps().gemm(np.ones((2, 3)), np.ones((2, 3)))

    def test_sigmoid_extremes_do_not_overflow(self):
        values = TensorOps().sigmoid(np.array([-1e6, 0.0, 1e6]))
        assert values[0] == pytest.approx(0.0, abs=1e-9)
        assert values[1] == pytest.approx(0.5)
        assert values[2] == pytest.approx(1.0, abs=1e-9)

    def test_softmax_rows_sum_to_one(self):
        result = TensorOps().softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        assert np.allclose(result.sum(axis=1), 1.0)

    def test_counter_reset(self):
        ops = TensorOps()
        ops.relu(np.ones(4))
        ops.counter.reset()
        assert ops.counter.flops == 0

    def test_measure_counts_only_the_calling_threads_work(self):
        # Another thread's GEMM lands in the shared counter while this
        # thread's measure block is open, but not in the block's count.
        ops = TensorOps()
        opened, other_done = threading.Event(), threading.Event()

        def other():
            opened.wait()
            ops.gemm(np.ones((8, 8)), np.ones((8, 8)))
            other_done.set()

        worker = threading.Thread(target=other)
        worker.start()
        with ops.counter.measure() as outer:
            opened.set()
            other_done.wait()
            with ops.counter.measure() as inner:
                ops.gemm(np.ones((2, 3)), np.ones((3, 4)))
        worker.join()
        assert inner.flops == outer.flops == 2 * 2 * 3 * 4
        assert outer.bytes_moved == inner.bytes_moved > 0
        assert ops.counter.flops == 2 * 8 * 8 * 8 + 2 * 2 * 3 * 4


class TestModels:
    def test_mlp_learns_linear_boundary(self):
        x, y = make_blobs()
        model = MLPClassifier(4, (16,), learning_rate=0.1, seed=1)
        history = model.fit(x, y, epochs=20, batch_size=32, seed=1)
        assert history.final_accuracy > 0.85
        assert history.losses[-1] < history.losses[0]

    def test_mlp_input_dim_checked(self):
        model = MLPClassifier(4)
        with pytest.raises(DataModelError):
            model.predict(np.ones((3, 5)))

    def test_mlp_parameter_count(self):
        model = MLPClassifier(4, (8, 4))
        assert model.parameter_count() == (4 * 8 + 8) + (8 * 4 + 4) + (4 * 1 + 1)

    def test_logistic_learns(self):
        x, y = make_blobs(seed=2)
        model = LogisticRegression(4, learning_rate=0.5)
        losses = model.fit(x, y, epochs=15, batch_size=32)
        predictions = model.predict(x)
        assert float(np.mean(predictions == y)) > 0.85
        assert losses[-1] < losses[0]

    def test_invalid_hyperparameters(self):
        x, y = make_blobs(50)
        with pytest.raises(DataModelError):
            MLPClassifier(4).fit(x, y, epochs=0)
        with pytest.raises(DataModelError):
            MLPClassifier(0)


class TestKMeans:
    def test_separable_clusters_recovered(self):
        rng = np.random.default_rng(0)
        a = rng.normal(loc=(-5, -5), scale=0.5, size=(50, 2))
        b = rng.normal(loc=(5, 5), scale=0.5, size=(50, 2))
        result = kmeans(np.vstack([a, b]), 2, seed=1)
        first_half = set(result.assignments[:50].tolist())
        second_half = set(result.assignments[50:].tolist())
        assert len(first_half) == 1 and len(second_half) == 1
        assert first_half != second_half

    def test_inertia_monotone_nonincreasing(self):
        x, _ = make_blobs(120, seed=3)
        result = kmeans(x, 3, seed=3)
        assert all(later <= earlier + 1e-9 for earlier, later in
                   zip(result.inertia_history, result.inertia_history[1:]))

    def test_invalid_cluster_count(self):
        with pytest.raises(DataModelError):
            kmeans(np.ones((3, 2)), 5)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 5))
    def test_property_every_point_assigned(self, k):
        x = np.random.default_rng(k).normal(size=(40, 3))
        result = kmeans(x, k, seed=k)
        assert len(result.assignments) == 40
        assert set(result.assignments.tolist()) <= set(range(k))


class TestEngine:
    def test_train_evaluate_predict(self):
        x, y = make_blobs()
        engine = MLEngine()
        engine.train_classifier("clf", x, y, epochs=12, hidden_dims=(16,))
        metrics = engine.evaluate("clf", x, y)
        assert metrics["accuracy"] > 0.8
        assert engine.predict("clf", x[:5]).shape == (5,)
        assert "clf" in engine.list_models()
        assert engine.model_info("clf")["parameters"] > 0

    def test_missing_model_raises(self):
        with pytest.raises(StorageError):
            MLEngine().predict("ghost", np.ones((1, 2)))

    def test_statistics_track_flops(self):
        x, y = make_blobs(80)
        engine = MLEngine()
        engine.train_logistic("lr", x, y, epochs=2)
        assert engine.statistics()["total_flops"] > 0
