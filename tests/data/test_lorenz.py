"""Lorenz-96 simulator and its ground-truth coupling graph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.lorenz import (
    lorenz96_dataset,
    lorenz96_derivative,
    lorenz96_graph,
    simulate_lorenz96,
)


class TestDerivative:
    def test_fixed_point_without_forcing_gradient(self):
        """At x_i = F for all i the derivative is zero (the trivial equilibrium)."""
        forcing = 8.0
        state = np.full(6, forcing)
        derivative = lorenz96_derivative(state, forcing)
        np.testing.assert_allclose(derivative, 0.0, atol=1e-12)

    def test_matches_manual_formula(self):
        state = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        forcing = 2.0
        derivative = lorenz96_derivative(state, forcing)
        i = 2
        expected = (state[3] - state[0]) * state[1] - state[2] + forcing
        assert derivative[i] == pytest.approx(expected)


def reference_simulate_lorenz96(n_series, length, forcing, dt, subsample, burn_in,
                                noise_std, rng):
    """The vectorised RK4 loop over :func:`lorenz96_derivative`: the oracle.

    This is the ndarray form of the integrator, three ``np.roll`` calls per
    derivative evaluation; ``simulate_lorenz96`` must reproduce it byte for
    byte.
    """
    state = forcing * np.ones(n_series) + rng.normal(0.0, 0.5, size=n_series)
    total_steps = burn_in + length * subsample
    trajectory = np.zeros((n_series, length))
    kept = 0
    for step in range(total_steps):
        k1 = lorenz96_derivative(state, forcing)
        k2 = lorenz96_derivative(state + 0.5 * dt * k1, forcing)
        k3 = lorenz96_derivative(state + 0.5 * dt * k2, forcing)
        k4 = lorenz96_derivative(state + dt * k3, forcing)
        state = state + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if step >= burn_in and (step - burn_in) % subsample == 0 and kept < length:
            trajectory[:, kept] = state
            kept += 1
    if noise_std > 0:
        trajectory = trajectory + rng.normal(0.0, noise_std, size=trajectory.shape)
    return trajectory


def assert_matches_reference(**spec):
    seed = spec.pop("seed")
    values = simulate_lorenz96(rng=np.random.default_rng(seed), **spec)
    expected = reference_simulate_lorenz96(rng=np.random.default_rng(seed), **spec)
    assert values.shape == (spec["n_series"], spec["length"])
    assert values.dtype == np.float64
    assert values.flags.c_contiguous
    assert np.isfinite(expected).all()
    assert values.tobytes() == expected.tobytes()


class TestReferenceIntegrator:
    @settings(max_examples=40, deadline=None)
    @given(n_series=st.integers(min_value=4, max_value=24),
           length=st.integers(min_value=1, max_value=60),
           dt=st.floats(min_value=1e-3, max_value=0.02),
           subsample=st.integers(min_value=1, max_value=6),
           burn_in=st.integers(min_value=0, max_value=60),
           forcing=st.one_of(st.floats(min_value=4.0, max_value=40.0),
                             st.integers(min_value=4, max_value=40)),
           noise_std=st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=2.0)),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_byte_equal_to_vector_form(self, n_series, length, dt, subsample, burn_in,
                                       forcing, noise_std, seed):
        assert_matches_reference(n_series=n_series, length=length, forcing=forcing, dt=dt,
                                 subsample=subsample, burn_in=burn_in,
                                 noise_std=noise_std, seed=seed)

    def test_paper_defaults_byte_equal(self):
        assert_matches_reference(n_series=10, length=1000, forcing=35.0, dt=0.01,
                                 subsample=5, burn_in=500, noise_std=0.0, seed=0)

    @pytest.mark.parametrize("forcing, dt", [
        (np.float64(33.7), 0.01),
        (np.int64(36), 0.01),
        (np.float32(31.3), np.float32(0.01)),
        (35.0, np.float64(0.015)),
    ])
    def test_numpy_scalar_arguments_byte_equal(self, forcing, dt):
        assert_matches_reference(n_series=7, length=40, forcing=forcing, dt=dt,
                                 subsample=3, burn_in=20, noise_std=0.0, seed=5)


class TestSimulation:
    def test_output_shape(self):
        values = simulate_lorenz96(n_series=6, length=100, rng=np.random.default_rng(0))
        assert values.shape == (6, 100)

    def test_requires_at_least_four_variables(self):
        with pytest.raises(ValueError):
            simulate_lorenz96(n_series=3, length=10)

    def test_positive_length_required(self):
        with pytest.raises(ValueError):
            simulate_lorenz96(length=0)

    @pytest.mark.parametrize("subsample", [0, -2])
    def test_subsample_must_be_at_least_one(self, subsample):
        with pytest.raises(ValueError, match="subsample"):
            simulate_lorenz96(length=20, subsample=subsample)

    def test_burn_in_must_be_non_negative(self):
        with pytest.raises(ValueError, match="burn_in"):
            simulate_lorenz96(length=20, subsample=2, burn_in=-30)

    @pytest.mark.parametrize("dt", [0.0, -0.01])
    def test_dt_must_be_positive(self, dt):
        with pytest.raises(ValueError, match="dt"):
            simulate_lorenz96(length=20, dt=dt)

    def test_noise_std_must_be_non_negative(self):
        with pytest.raises(ValueError, match="noise_std"):
            simulate_lorenz96(length=20, noise_std=-0.1)

    def test_bounded_trajectory(self):
        values = simulate_lorenz96(n_series=8, length=400, forcing=35.0,
                                   rng=np.random.default_rng(1))
        assert np.isfinite(values).all()
        assert np.abs(values).max() < 200.0

    def test_chaotic_not_constant(self):
        values = simulate_lorenz96(n_series=8, length=400, forcing=35.0,
                                   rng=np.random.default_rng(2))
        assert values.std() > 1.0

    def test_observation_noise_added(self):
        clean = simulate_lorenz96(n_series=6, length=50, noise_std=0.0,
                                  rng=np.random.default_rng(3))
        noisy = simulate_lorenz96(n_series=6, length=50, noise_std=1.0,
                                  rng=np.random.default_rng(3))
        assert not np.allclose(clean, noisy)


class TestGroundTruthGraph:
    def test_each_variable_has_four_causes(self):
        graph = lorenz96_graph(10)
        for i in range(10):
            assert len(graph.parents(i)) == 4  # i-2, i-1, i+1 and itself

    def test_without_self_loops(self):
        graph = lorenz96_graph(10, include_self_loops=False)
        for i in range(10):
            assert len(graph.parents(i)) == 3

    def test_ring_wraparound(self):
        graph = lorenz96_graph(5)
        assert graph.has_edge(4, 0)   # i-1 of variable 0
        assert graph.has_edge(3, 0)   # i-2 of variable 0
        assert graph.has_edge(1, 0)   # i+1 of variable 0


class TestDataset:
    def test_paper_defaults(self):
        dataset = lorenz96_dataset(length=100, seed=0)
        assert dataset.n_series == 10
        assert 30.0 <= dataset.metadata["forcing"] <= 40.0
        assert dataset.graph.n_edges == 40

    def test_explicit_forcing(self):
        dataset = lorenz96_dataset(length=50, forcing=32.0, seed=1)
        assert dataset.metadata["forcing"] == 32.0

    def test_reproducible(self):
        a = lorenz96_dataset(length=80, seed=9)
        b = lorenz96_dataset(length=80, seed=9)
        np.testing.assert_array_equal(a.values, b.values)
