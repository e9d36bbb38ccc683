"""Structural VAR process generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import SYNTHETIC_STRUCTURES, synthetic_dataset
from repro.data.var import VarProcessSpec, dataset_from_graph, simulate_var
from repro.graph import TemporalCausalGraph
from repro.graph.random_graphs import random_temporal_graph, stable_var_coefficients

LINKS = {
    "linear": lambda x: x,
    "tanh": np.tanh,
    "sin": np.sin,
    "relu": lambda x: np.maximum(x, 0.0),
}


def chain_graph():
    graph = TemporalCausalGraph(3)
    graph.add_edge(0, 1, 1)
    graph.add_edge(1, 2, 2)
    return graph


class TestSpecValidation:
    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            VarProcessSpec(graph=chain_graph(), length=0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            VarProcessSpec(graph=chain_graph(), noise_std=-1.0)

    def test_rejects_negative_burn_in(self):
        with pytest.raises(ValueError, match="burn_in"):
            VarProcessSpec(graph=chain_graph(), length=50, burn_in=-5)

    def test_zero_burn_in_allowed(self):
        spec = VarProcessSpec(graph=chain_graph(), length=50, burn_in=0)
        assert simulate_var(spec, rng=np.random.default_rng(0)).shape == (3, 50)

    def test_rejects_unknown_nonlinearity(self):
        with pytest.raises(ValueError):
            VarProcessSpec(graph=chain_graph(), nonlinearity="cubic")


class TestSimulation:
    def test_output_shape(self):
        spec = VarProcessSpec(graph=chain_graph(), length=200)
        values = simulate_var(spec, rng=np.random.default_rng(0))
        assert values.shape == (3, 200)

    def test_values_are_finite_and_bounded(self):
        for nonlinearity in ("linear", "tanh", "sin", "relu"):
            spec = VarProcessSpec(graph=chain_graph(), length=500, nonlinearity=nonlinearity)
            values = simulate_var(spec, rng=np.random.default_rng(1))
            assert np.isfinite(values).all()
            assert np.abs(values).max() < 100.0

    def test_reproducible_with_seed(self):
        spec = VarProcessSpec(graph=chain_graph(), length=100)
        a = simulate_var(spec, rng=np.random.default_rng(5))
        b = simulate_var(spec, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_causal_coupling_increases_correlation(self):
        """The caused series must correlate with the lagged cause more than noise does."""
        graph = TemporalCausalGraph(2)
        graph.add_edge(0, 1, 1)
        weights = np.zeros((2, 2, 2))
        weights[1, 0, 1] = 0.9
        spec = VarProcessSpec(graph=graph, length=2000, noise_std=0.5, coefficients=weights)
        values = simulate_var(spec, rng=np.random.default_rng(2))
        coupled = abs(np.corrcoef(values[0, :-1], values[1, 1:])[0, 1])
        reverse = abs(np.corrcoef(values[1, :-1], values[0, 1:])[0, 1])
        assert coupled > 0.3
        assert coupled > reverse

    def test_explicit_coefficients_shape_checked(self):
        spec = VarProcessSpec(graph=chain_graph(), coefficients=np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            simulate_var(spec)

    def test_instantaneous_effects_supported(self):
        graph = TemporalCausalGraph(2)
        graph.add_edge(0, 1, 0)
        weights = np.zeros((2, 2, 2))
        weights[0, 0, 1] = 0.8
        spec = VarProcessSpec(graph=graph, length=1500, noise_std=0.5, coefficients=weights)
        values = simulate_var(spec, rng=np.random.default_rng(3))
        same_slot = abs(np.corrcoef(values[0], values[1])[0, 1])
        assert same_slot > 0.3


def reference_simulate_var(spec, rng):
    """The per-step, series-major form of :func:`simulate_var`: the oracle.

    One noise draw of ``n`` per step, state columns read and written in an
    ``(N, T)`` array; ``simulate_var`` must reproduce it byte for byte.
    """
    graph = spec.graph
    n = graph.n_series
    max_delay = max(graph.max_delay(), 1)
    if spec.coefficients is not None:
        weights = np.asarray(spec.coefficients, dtype=float)
    else:
        weights = stable_var_coefficients(graph, max_delay=max_delay, rng=rng)
    link = LINKS[spec.nonlinearity]

    total = spec.length + spec.burn_in
    values = np.zeros((n, total))
    values[:, :max_delay] = rng.normal(0.0, spec.noise_std, size=(n, max_delay))

    instantaneous = weights[0]
    has_instantaneous = np.any(instantaneous != 0.0)

    for t in range(max_delay, total):
        drive = np.zeros(n)
        for lag in range(1, max_delay + 1):
            drive += link(values[:, t - lag]) @ weights[lag]
        noise = rng.normal(0.0, spec.noise_std, size=n)
        current = drive + noise
        if has_instantaneous:
            for _ in range(2):
                current = drive + link(current) @ instantaneous + noise
        values[:, t] = current
    return values[:, spec.burn_in:]


def assert_matches_reference(spec, seed):
    if spec.length + spec.burn_in < max(spec.graph.max_delay(), 1):
        # Fewer steps than initial lags: both forms reject the spec.
        with pytest.raises(ValueError):
            reference_simulate_var(spec, rng=np.random.default_rng(seed))
        with pytest.raises(ValueError):
            simulate_var(spec, rng=np.random.default_rng(seed))
        return
    values = simulate_var(spec, rng=np.random.default_rng(seed))
    expected = reference_simulate_var(spec, rng=np.random.default_rng(seed))
    assert values.shape == (spec.graph.n_series, spec.length)
    assert values.dtype == np.float64
    assert values.flags.c_contiguous == expected.flags.c_contiguous
    assert values.tobytes() == expected.tobytes()


class TestReferenceSimulation:
    # The example budget comes from the loaded hypothesis profile (see
    # tests/conftest.py): bounded in tier-1, larger in CI's oracle step.
    @settings(deadline=None)
    @given(n_series=st.integers(min_value=2, max_value=8),
           n_edges=st.integers(min_value=1, max_value=12),
           max_delay=st.integers(min_value=1, max_value=4),
           allow_instantaneous=st.booleans(),
           nonlinearity=st.sampled_from(sorted(LINKS)),
           length=st.integers(min_value=1, max_value=120),
           burn_in=st.integers(min_value=0, max_value=60),
           noise_std=st.one_of(st.just(0.0), st.just(1.0),
                               st.floats(min_value=0.01, max_value=2.0)),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_byte_equal_to_per_step_form(self, n_series, n_edges, max_delay,
                                         allow_instantaneous, nonlinearity, length,
                                         burn_in, noise_std, seed):
        graph = random_temporal_graph(n_series, n_edges=min(n_edges, n_series * n_series),
                                      max_delay=max_delay,
                                      allow_instantaneous=allow_instantaneous,
                                      rng=np.random.default_rng(seed))
        spec = VarProcessSpec(graph=graph, length=length, noise_std=noise_std,
                              nonlinearity=nonlinearity, burn_in=burn_in)
        assert_matches_reference(spec, seed)

    @pytest.mark.parametrize("structure", SYNTHETIC_STRUCTURES)
    @pytest.mark.parametrize("nonlinearity", sorted(LINKS))
    def test_paper_structures_byte_equal(self, structure, nonlinearity):
        graph = synthetic_dataset(structure, length=10, seed=3).graph
        spec = VarProcessSpec(graph=graph, length=1000, nonlinearity=nonlinearity)
        assert_matches_reference(spec, seed=3)

    def test_explicit_instantaneous_coefficients_byte_equal(self):
        graph = TemporalCausalGraph(3)
        graph.add_edge(0, 1, 0)
        graph.add_edge(1, 2, 0)
        graph.add_edge(2, 0, 2)
        weights = np.zeros((3, 3, 3))
        weights[0, 0, 1] = 0.7
        weights[0, 1, 2] = -0.5
        weights[2, 2, 0] = 0.4
        spec = VarProcessSpec(graph=graph, length=300, noise_std=0.5, nonlinearity="tanh",
                              burn_in=20, coefficients=weights)
        assert_matches_reference(spec, seed=11)


class TestDatasetWrapper:
    def test_dataset_from_graph(self):
        dataset = dataset_from_graph(chain_graph(), name="chain", length=150, seed=0)
        assert dataset.name == "chain"
        assert dataset.shape == (3, 150)
        assert dataset.graph.n_edges == 2
        assert dataset.metadata["generator"] == "var"
