import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dflsim.learning import (
    Dataset,
    Model,
    PartitionError,
    batch_accuracy,
    class_means,
    least_per_class,
    loss_and_grad,
    model_dim,
    partition,
    synth_dataset,
)
from oracles import (
    accuracy,
    fgsm_poison,
    input_gradient,
    predict,
    train_centralized,
)


def small_instance(seed=1, n_classes=3, dim=4, m=6):
    rng = np.random.default_rng(seed)
    data = Dataset(features=rng.standard_normal((m, dim)),
                   labels=rng.integers(0, n_classes, m))
    theta = 0.5 * rng.standard_normal(model_dim(n_classes, dim))
    return data, Model.from_flat(theta, n_classes, dim)


class TestDatasetAndModel:
    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((2, 3)), labels=np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((0, 3)), labels=np.zeros(0, dtype=int))

    def test_model_flat_round_trip(self):
        _, model = small_instance()
        back = Model.from_flat(model.flat(), *model.weights.shape)
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.bias, model.bias)

    def test_flat_dimension(self):
        assert model_dim(10, 20) == 210


class TestSynthDataset:
    def test_zero_spread_collapses_to_means(self):
        ds = synth_dataset(4, 6, 5, 0.0, np.random.default_rng(0))
        means = class_means(4, 6)
        for x, y in zip(ds.features, ds.labels):
            assert np.allclose(x, means[y])

    def test_deterministic(self):
        a = synth_dataset(5, 8, 10, 0.3, np.random.default_rng(2))
        b = synth_dataset(5, 8, 10, 0.3, np.random.default_rng(2))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_class_means_unit_norm(self):
        means = class_means(10, 20)
        assert np.allclose(np.linalg.norm(means, axis=1), 1.0)

    def test_separability_oracle(self):
        # a converged centralized softmax fits the task well
        ds = synth_dataset(10, 20, 100, 0.3, np.random.default_rng(7))
        model = train_centralized(ds, 10, alpha=0.5, iters=2000)
        assert accuracy(model, ds) > 0.95


class TestPartition:
    def test_iid_even_split(self):
        ds = synth_dataset(4, 5, 10, 0.2, np.random.default_rng(1))
        shards = partition(ds, 2, 4, np.random.default_rng(2))
        assert len(shards) == 2
        assert shards[0].n_samples == shards[1].n_samples == 20

    def test_one_class_per_node(self):
        ds = synth_dataset(5, 4, 8, 0.2, np.random.default_rng(1))
        shards = partition(ds, 5, 1, np.random.default_rng(3))
        owned = [set(s.labels.tolist()) for s in shards]
        assert all(len(classes) == 1 for classes in owned)
        assert set().union(*owned) == set(range(5))

    def test_union_is_original_dataset(self):
        ds = synth_dataset(6, 4, 9, 0.2, np.random.default_rng(4))
        for k in (2, 3, 6):
            shards = partition(ds, 4, k, np.random.default_rng(5))
            rows = np.concatenate([s.features for s in shards])
            assert rows.shape == ds.features.shape
            key = lambda arr: np.lexsort(arr.T)
            assert np.allclose(rows[key(rows)], ds.features[key(ds.features)])
            assert sum(s.n_samples for s in shards) == ds.n_samples

    def test_shard_class_count(self):
        ds = synth_dataset(10, 4, 20, 0.2, np.random.default_rng(6))
        shards = partition(ds, 8, 3, np.random.default_rng(7))
        for s in shards:
            assert len(set(s.labels.tolist())) <= 3

    def test_zero_sample_node_error(self):
        ds = Dataset(features=np.zeros((2, 3)),
                     labels=np.array([0, 1]))
        with pytest.raises(PartitionError):
            partition(ds, 5, 2, np.random.default_rng(0))

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(2, 8).flatmap(lambda classes: st.tuples(
        st.integers(1, 30), st.just(classes), st.integers(1, classes),
        st.integers(1, 12), st.integers(0, 2 ** 32 - 1))))
    def test_least_per_class_is_the_split_threshold(self, case):
        n, classes, per_node, per_class, seed = case
        rng = np.random.default_rng(seed)
        ds = synth_dataset(classes, 1, per_class, 0.2, rng)
        try:
            partition(ds, n, per_node, rng)
            split = True
        except PartitionError:
            split = False
        assert split == (per_class >= least_per_class(n, classes, per_node))

    def test_invalid_classes_per_node(self):
        ds = synth_dataset(4, 3, 5, 0.2, np.random.default_rng(8))
        with pytest.raises(ValueError):
            partition(ds, 2, 5, np.random.default_rng(0))


class TestLossAndGrad:
    def test_zero_model_balanced_two_class(self):
        data = Dataset(features=np.ones((4, 3)),
                       labels=np.array([0, 1, 0, 1]))
        loss, _ = loss_and_grad(Model.zeros(2, 3), data)
        assert loss == pytest.approx(math.log(2), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        data, model = small_instance()
        theta = model.flat()
        _, grad = loss_and_grad(model, data)
        h = 1e-6
        fd = np.zeros_like(theta)
        for k in range(len(theta)):
            plus, minus = theta.copy(), theta.copy()
            plus[k] += h
            minus[k] -= h
            lp, _ = loss_and_grad(Model.from_flat(plus, 3, 4), data)
            lm, _ = loss_and_grad(Model.from_flat(minus, 3, 4), data)
            fd[k] = (lp - lm) / (2 * h)
        assert np.max(np.abs(fd - grad)) / np.max(np.abs(fd)) < 1e-5

    def test_duplicating_samples_is_invariant(self):
        data, model = small_instance()
        doubled = Dataset(features=np.concatenate([data.features] * 2),
                          labels=np.concatenate([data.labels] * 2))
        l1, g1 = loss_and_grad(model, data)
        l2, g2 = loss_and_grad(model, doubled)
        assert l1 == pytest.approx(l2, rel=1e-12)
        assert np.allclose(g1, g2, atol=1e-12)

    def test_large_logits_stay_finite(self):
        data, model = small_instance()
        big = Model(weights=model.weights * 1e4, bias=model.bias * 1e4)
        loss, grad = loss_and_grad(big, data)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))


class TestFgsm:
    def test_zero_epsilon_identity(self):
        data, model = small_instance()
        out = fgsm_poison(data, model, 0.0)
        assert np.array_equal(out.features, data.features)

    def test_perturbation_alphabet(self):
        data, model = small_instance()
        eps = 0.7
        delta = fgsm_poison(data, model, eps).features - data.features
        assert set(np.round(np.unique(delta), 12)) <= {-eps, 0.0, eps}

    def test_labels_unchanged(self):
        data, model = small_instance()
        assert np.array_equal(fgsm_poison(data, model, 1.0).labels, data.labels)

    def test_input_gradient_matches_finite_differences(self):
        data, model = small_instance(m=5)
        grad = input_gradient(model, data)
        h = 1e-6
        fd = np.zeros_like(data.features)
        for s in range(data.n_samples):
            for k in range(data.features.shape[1]):
                plus = data.features.copy()
                minus = data.features.copy()
                plus[s, k] += h
                minus[s, k] -= h
                lp, _ = loss_and_grad(model, Dataset(plus, data.labels))
                lm, _ = loss_and_grad(model, Dataset(minus, data.labels))
                fd[s, k] = (lp - lm) / (2 * h)
        assert np.max(np.abs(fd - grad)) / np.max(np.abs(fd)) < 1e-5

    def test_negative_epsilon_rejected(self):
        data, model = small_instance()
        with pytest.raises(ValueError):
            fgsm_poison(data, model, -0.1)

    def test_poison_raises_loss(self):
        ds = synth_dataset(5, 10, 30, 0.3, np.random.default_rng(3))
        model = train_centralized(ds, 5, alpha=0.5, iters=300)
        clean_loss, _ = loss_and_grad(model, ds)
        poisoned_loss, _ = loss_and_grad(model, fgsm_poison(ds, model, 0.5))
        assert poisoned_loss > clean_loss


def test_predict_shape():
    data, model = small_instance()
    assert predict(model, data.features).shape == (data.n_samples,)


# Logits made of these parts are exact, so they tie often: in all-zero
# models, between +0.0 and -0.0, and among infinite biases; a NaN feature
# or bias gives NaN logits.
PARTS = st.sampled_from((0.0, -0.0, 0.5, -0.5, 1.0))


@st.composite
def scored_stacks(draw):
    """Models x (k, p), k = 0 included, and a test set to score them on."""
    n_classes, dim = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    m, k = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    features = draw(arrays(float, (m, dim), elements=PARTS | st.just(np.nan)))
    labels = draw(arrays(int, m, elements=st.integers(0, n_classes - 1)))
    weights = draw(arrays(float, (k, n_classes * dim), elements=PARTS))
    bias = draw(arrays(float, (k, n_classes), elements=PARTS | st.sampled_from(
        (np.inf, -np.inf, np.nan))))
    return np.hstack([weights, bias]), Dataset(features, labels)


ALL_ZERO = (np.zeros((3, 12)),
            Dataset(np.array([[0.5, 1.0, 0.0], [1.0, 0.0, -0.5]]),
                    np.array([0, 2])))
# Sample 0 is NaN in every class, so argmax picks class 0, its label;
# sample 1 ties classes 0 and 1 under model 0, so argmax picks 0, not its
# label. Counting model 0's right answers over both samples would not
# tell a kernel that gets both wrong from one that gets both right.
NAN_AND_TIE = (np.array([[0.5, 0.5, -0.5, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, np.nan, 0.0, 0.0]]),
               Dataset(np.array([[np.nan], [1.0]]), np.array([0, 1])))


class TestBatchAccuracy:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(scored_stacks())
    @example(ALL_ZERO)
    @example(NAN_AND_TIE)
    def test_oracle_per_sample_and_model(self, case):
        x, data = case
        m, dim = data.features.shape
        models = [Model.from_flat(row, x.shape[1] // (dim + 1), dim)
                  for row in x]
        right = np.array([predict(model, data.features) == data.labels
                          for model in models]).reshape(len(x), m)
        # one sample at a time, so that every (sample, model) column is
        # checked; the one-sample sets share a shape and are used in turn
        ones = [Dataset(data.features[t:t + 1], data.labels[t:t + 1])
                for t in range(m)]
        for _ in range(2):
            assert [batch_accuracy(x, one).tolist() for one in ones] == \
                right.T.tolist()
        assert batch_accuracy(x, data).tolist() == \
            [accuracy(model, data) for model in models]
        # fewer models on the same set, in its grown buffer
        assert batch_accuracy(x[1:], data).tolist() == \
            [accuracy(model, data) for model in models[1:]]

    def test_allocates_less_than_its_logits(self):
        # after a warm-up call on a test set, scoring on it allocates less
        # than one (m, k, C) logits array, which lives in the set's buffer
        rng = np.random.default_rng(4)
        data = synth_dataset(10, 20, 20, 0.3, rng)
        x = 0.1 * rng.standard_normal((20, model_dim(10, 20)))
        batch_accuracy(x, data)
        tracemalloc.start()
        try:
            batch_accuracy(x, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < data.n_samples * 20 * 10 * 8
