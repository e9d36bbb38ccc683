"""Vector-autoregressive (VAR) time-series generation from a causal graph.

The four synthetic structures of the paper (diamond, mediator, v-structure,
fork) are generated by driving a (optionally non-linear) lagged structural
process whose coupling pattern follows a :class:`TemporalCausalGraph`, with
additive standard-normal noise — exactly the construction the paper
describes for its synthetic datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.graph.causal_graph import TemporalCausalGraph
from repro.graph.random_graphs import stable_var_coefficients

Nonlinearity = Callable[[np.ndarray], np.ndarray]

_NONLINEARITIES: Dict[str, Nonlinearity] = {
    "linear": lambda x: x,
    "tanh": np.tanh,
    "sin": np.sin,
    "relu": lambda x: np.maximum(x, 0.0),
}


@dataclass
class VarProcessSpec:
    """Specification of a structural lagged process.

    Attributes
    ----------
    graph:
        Causal graph whose edges (and delays) define the coupling pattern.
    length:
        Number of time steps to simulate (after burn-in).
    noise_std:
        Standard deviation of the additive Gaussian innovation noise.
    nonlinearity:
        Name of the link function applied to each parent contribution
        (``linear``, ``tanh``, ``sin`` or ``relu``).
    burn_in:
        Steps discarded at the start so the process forgets its zero start.
    coefficients:
        Optional explicit coefficient tensor ``W[lag, i, j]``; drawn at
        random (stability-rescaled) when omitted.
    """

    graph: TemporalCausalGraph
    length: int = 1000
    noise_std: float = 1.0
    nonlinearity: str = "linear"
    burn_in: int = 100
    coefficients: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("length must be positive")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if self.nonlinearity not in _NONLINEARITIES:
            raise ValueError(
                f"unknown nonlinearity {self.nonlinearity!r}; choose from {sorted(_NONLINEARITIES)}"
            )


def simulate_var(spec: VarProcessSpec, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Simulate the process described by ``spec``; returns ``(N, length)``."""
    rng = rng or np.random.default_rng()
    graph = spec.graph
    n = graph.n_series
    max_delay = max(graph.max_delay(), 1)
    if spec.coefficients is not None:
        weights = np.asarray(spec.coefficients, dtype=float)
        if weights.shape != (max_delay + 1, n, n):
            raise ValueError(
                f"coefficients must have shape {(max_delay + 1, n, n)}; got {weights.shape}"
            )
    else:
        weights = stable_var_coefficients(graph, max_delay=max_delay, rng=rng)
    link = _NONLINEARITIES[spec.nonlinearity]

    total = spec.length + spec.burn_in
    values = np.zeros((n, total))
    values[:, :max_delay] = rng.normal(0.0, spec.noise_std, size=(n, max_delay))
    # All innovation noise in one draw: the generator yields the same stream
    # as one draw of n per step, and row t - max_delay is step t's noise.
    innovations = rng.normal(0.0, spec.noise_std, size=(total - max_delay, n))

    instantaneous = weights[0]
    has_instantaneous = np.any(instantaneous != 0.0)

    # The state stays series-major: ``values[:, t - lag]`` is the strided
    # operand every ``@`` below has always received, and BLAS may sum a
    # strided vector in a different order than a contiguous one.
    for t in range(max_delay, total):
        drive = np.zeros(n)
        for lag in range(1, max_delay + 1):
            drive += link(values[:, t - lag]) @ weights[lag]
        noise = innovations[t - max_delay]
        current = drive + noise
        if has_instantaneous:
            # One pass of instantaneous propagation (the generating graph is
            # acyclic in its instantaneous part, so one pass in topological
            # order is exact; we iterate twice to be safe for chains).
            for _ in range(2):
                current = drive + link(current) @ instantaneous + noise
        values[:, t] = current
    return values[:, spec.burn_in:]


def dataset_from_graph(graph: TemporalCausalGraph, name: str, length: int = 1000,
                       nonlinearity: str = "linear", noise_std: float = 1.0,
                       seed: Optional[int] = None):
    """Convenience wrapper returning a :class:`TimeSeriesDataset`."""
    from repro.data.base import TimeSeriesDataset  # local import to avoid a cycle

    rng = np.random.default_rng(seed)
    spec = VarProcessSpec(graph=graph, length=length, noise_std=noise_std,
                          nonlinearity=nonlinearity)
    values = simulate_var(spec, rng=rng)
    return TimeSeriesDataset(values=values, name=name, graph=graph.copy(),
                             metadata={"nonlinearity": nonlinearity,
                                       "noise_std": noise_std,
                                       "seed": seed,
                                       "generator": "var"})
