import numpy as np
import pytest

from extractbench.datasets import DatasetSpec, generate, split
from extractbench.network import TrainConfig, train
from extractbench.zoo import build_model, builtin_spec


def make_blobs(classes=4, per_class=200, shape=(6, 6, 1), overlap=0.0, seed=0):
    return generate(DatasetSpec(f"t{classes}c", classes, per_class, shape,
                                overlap, seed))


def trained_model(arch_id, dataset, epochs=12, seed=0, lr=0.01):
    spec = builtin_spec(arch_id, dataset.spec.input_shape, dataset.class_count)
    model = build_model(spec, seed=seed)
    train(model, dataset.inputs, dataset.labels,
          TrainConfig(epochs=epochs, seed=seed, learning_rate=lr))
    return model


def same_bits(a, b):
    """Equal values and equal signs, so +0.0 and -0.0 count as different."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.fixture(scope="session")
def blobs4():
    return make_blobs(classes=4, per_class=200, overlap=0.3, seed=11)


@pytest.fixture(scope="session")
def blobs4_split(blobs4):
    return split(blobs4, 0.7, seed=5)
