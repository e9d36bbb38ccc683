"""Shared fixtures for the test suite.

The expensive fixtures (trained models) are session-scoped so the many tests
that inspect a trained CausalFormer share one training run.

Hypothesis profiles: ``tier-1`` is loaded by default and bounds the tests
that take their example budget from the profile (the Lorenz-96 and VAR
generator oracles; every other property test pins its own).
``generator-oracles`` is the deeper budget CI runs those oracles at::

    pytest tests/data/test_lorenz.py::TestReferenceIntegrator \
        tests/data/test_var.py::TestReferenceSimulation \
        --hypothesis-profile=generator-oracles
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core import CausalFormer, CausalFormerConfig, CausalityAwareTransformer, fast_preset
from repro.data import fork_dataset, v_structure_dataset
from repro.nn.tensor import Tensor

settings.register_profile("tier-1", max_examples=40)
settings.register_profile("generator-oracles", max_examples=1000)
settings.load_profile("tier-1")


def numeric_gradient(function, x: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    gradient = np.zeros_like(x, dtype=float)
    iterator = np.nditer(x, flags=["multi_index"])
    while not iterator.finished:
        index = iterator.multi_index
        original = x[index]
        x[index] = original + epsilon
        plus = function(x)
        x[index] = original - epsilon
        minus = function(x)
        x[index] = original
        gradient[index] = (plus - minus) / (2 * epsilon)
        iterator.iternext()
    return gradient


@pytest.fixture(scope="session", autouse=True)
def _float64_reference_engine():
    """Run the legacy suite on the float64 reference path.

    The engine defaults to float32 (the training fast path); these tests
    assert numerics at float64 tolerances (down to 1e-12), so they pin the
    reference dtype.  Float32 behaviour is covered explicitly by
    ``tests/nn/test_dtype.py`` and ``tests/core/test_perf_equivalence.py``.
    """
    from repro.nn.tensor import default_dtype

    with default_dtype(np.float64):
        yield


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_config() -> CausalFormerConfig:
    """A deliberately small configuration used across the core tests."""
    return CausalFormerConfig(
        n_series=3,
        window=8,
        d_model=12,
        d_qk=12,
        d_ffn=12,
        n_heads=2,
        temperature=1.0,
        max_epochs=8,
        window_stride=4,
        batch_size=32,
        seed=0,
    )


@pytest.fixture(scope="session")
def fork_data():
    """A small fork dataset (S0 → S1, S0 → S2 plus self-loops)."""
    return fork_dataset(seed=7, length=300)


@pytest.fixture(scope="session")
def v_structure_data():
    return v_structure_dataset(seed=11, length=300)


@pytest.fixture(scope="session")
def tiny_transformer(tiny_config) -> CausalityAwareTransformer:
    """An untrained transformer with the tiny configuration."""
    return CausalityAwareTransformer(tiny_config)


@pytest.fixture(scope="session")
def trained_causalformer(fork_data) -> CausalFormer:
    """One trained CausalFormer shared by the detector / relevance / discovery tests."""
    model = CausalFormer(fast_preset(max_epochs=15, seed=3))
    model.discover(fork_data)
    return model


@pytest.fixture()
def window_batch(tiny_config, rng) -> np.ndarray:
    """A random batch of windows matching the tiny configuration."""
    return rng.normal(size=(4, tiny_config.n_series, tiny_config.window))


@pytest.fixture()
def tensor_factory(rng):
    """Factory producing random Tensors with gradients enabled."""

    def make(*shape, requires_grad: bool = True) -> Tensor:
        return Tensor(rng.normal(size=shape), requires_grad=requires_grad)

    return make
