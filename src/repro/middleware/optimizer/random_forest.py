"""A small random-forest regressor used as the DSE surrogate model.

The paper's active-learning loop (§IV-C-1) uses "randomized decision forests
as the base predictors".  scikit-learn is not a dependency of this repo, so a
compact regression forest is implemented here: CART-style trees with variance
reduction splits, bootstrap sampling and feature subsampling per split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import OptimizationError


@dataclass
class _Node:
    """One node of a regression tree."""

    prediction: float
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class RegressionTree:
    """A CART regression tree with variance-reduction splits."""

    def __init__(self, *, max_depth: int = 8, min_samples_leaf: int = 2,
                 max_features: int | None = None, seed: int = 0) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = np.random.default_rng(seed)
        self._root: _Node | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RegressionTree":
        """Fit the tree on features ``x`` and targets ``y``."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if x.ndim != 2 or len(x) != len(y) or len(y) == 0:
            raise OptimizationError("invalid training data for regression tree")
        self._root = self._build(x, y, depth=0)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict targets for rows of ``x``."""
        if self._root is None:
            raise OptimizationError("tree is not fitted")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        return np.array([self._predict_row(row) for row in x])

    # -- internals ---------------------------------------------------------------------

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(prediction=float(y.mean()))
        if depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf or np.ptp(y) == 0:
            return node
        n_features = x.shape[1]
        k = self.max_features or max(1, int(np.sqrt(n_features)))
        candidate_features = self._rng.choice(n_features, size=min(k, n_features),
                                              replace=False)
        best = self._best_split(x, y, candidate_features)
        if best is None:
            return node
        feature, threshold = best
        mask = x[:, feature] <= threshold
        node.feature = int(feature)
        node.threshold = float(threshold)
        node.left = self._build(x[mask], y[mask], depth + 1)
        node.right = self._build(x[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, x: np.ndarray, y: np.ndarray,
                    features: np.ndarray) -> tuple[int, float] | None:
        parent_sse = float(((y - y.mean()) ** 2).sum())
        best_gain = 1e-12
        best: tuple[int, float] | None = None
        for feature in features:
            values = np.unique(x[:, feature])
            if len(values) < 2:
                continue
            thresholds = (values[:-1] + values[1:]) / 2.0
            for threshold in thresholds:
                mask = x[:, feature] <= threshold
                left, right = y[mask], y[~mask]
                if len(left) < self.min_samples_leaf or len(right) < self.min_samples_leaf:
                    continue
                sse = float(((left - left.mean()) ** 2).sum()
                            + ((right - right.mean()) ** 2).sum())
                gain = parent_sse - sse
                if gain > best_gain:
                    best_gain = gain
                    best = (int(feature), float(threshold))
        return best

    def _predict_row(self, row: np.ndarray) -> float:
        node = self._root
        assert node is not None
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
            assert node is not None
        return node.prediction


class RandomForestRegressor:
    """Bootstrap-aggregated regression trees."""

    def __init__(self, *, n_trees: int = 20, max_depth: int = 8,
                 min_samples_leaf: int = 2, seed: int = 0) -> None:
        if n_trees <= 0:
            raise OptimizationError("n_trees must be positive")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self._trees: list[RegressionTree] = []

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        """Fit the forest on features ``x`` and targets ``y``."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if len(x) != len(y) or len(y) == 0:
            raise OptimizationError("invalid training data for random forest")
        rng = np.random.default_rng(self.seed)
        self._trees = []
        n = len(y)
        for index in range(self.n_trees):
            sample = rng.integers(0, n, size=n)
            tree = RegressionTree(max_depth=self.max_depth,
                                  min_samples_leaf=self.min_samples_leaf,
                                  seed=self.seed + index)
            tree.fit(x[sample], y[sample])
            self._trees.append(tree)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Mean prediction across trees."""
        if not self._trees:
            raise OptimizationError("forest is not fitted")
        predictions = np.stack([tree.predict(x) for tree in self._trees])
        return predictions.mean(axis=0)

    def predict_std(self, x: np.ndarray) -> np.ndarray:
        """Across-tree standard deviation (a cheap uncertainty proxy)."""
        if not self._trees:
            raise OptimizationError("forest is not fitted")
        predictions = np.stack([tree.predict(x) for tree in self._trees])
        return predictions.std(axis=0)
