"""Lorenz-96 simulated climate dataset (paper Sec. 5.1, Eq. 21).

The Lorenz-96 model couples ``N`` variables on a ring:

.. math::

    \\frac{dx_i}{dt} = (x_{i+1} - x_{i-2})\\, x_{i-1} - x_i + F

so each variable ``x_i`` is causally driven by ``x_{i-2}``, ``x_{i-1}``,
``x_{i+1}`` and itself.  The paper simulates 10 variables with forcing
``F ∈ [30, 40]`` over 1,000 units; we integrate with a fourth-order
Runge–Kutta scheme and subsample to the requested length.

The integrator steps a Python ``list`` of floats, not an ndarray.  At the
paper's size a state has only ten entries, so a vectorised step is all
per-call overhead: the three ``np.roll`` calls of every derivative
evaluation cost far more than the forty multiply-adds they feed.  The
scalar loop reads each variable's ring neighbours through indices
precomputed once and is an order of magnitude faster at that size.  Python
floats are IEEE doubles and the loop performs the same operations in the
same order as the vector form :func:`lorenz96_derivative` with the RK4
update ``state + dt/6 * (k1 + 2 k2 + 2 k3 + k4)``, so its trajectories are
bit-identical to integrating that vector form.  The initial state and the
observation noise are drawn with numpy from the caller's generator.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.data.base import TimeSeriesDataset
from repro.graph.causal_graph import TemporalCausalGraph


def lorenz96_derivative(state: np.ndarray, forcing: float) -> np.ndarray:
    """Right-hand side of the Lorenz-96 ODE for a state vector."""
    return (np.roll(state, -1) - np.roll(state, 2)) * np.roll(state, 1) - state + forcing


def simulate_lorenz96(n_series: int = 10, length: int = 1000, forcing: float = 35.0,
                      dt: float = 0.01, subsample: int = 5, burn_in: int = 500,
                      noise_std: float = 0.0,
                      rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Integrate Lorenz-96 with RK4 and return an ``(N, length)`` array.

    Parameters
    ----------
    forcing:
        The chaos-controlling constant ``F`` (paper: uniform in [30, 40]).
    dt:
        Integration step.
    subsample:
        Keep one sample every ``subsample`` integration steps (``>= 1``).
    burn_in:
        Integration steps discarded before the first kept sample (``>= 0``).
    noise_std:
        Optional observation noise added after integration (``>= 0``).
    """
    if n_series < 4:
        raise ValueError("Lorenz-96 needs at least 4 variables")
    if length <= 0:
        raise ValueError("length must be positive")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if subsample < 1:
        raise ValueError("subsample must be at least 1")
    if burn_in < 0:
        raise ValueError("burn_in must be non-negative")
    if noise_std < 0:
        raise ValueError("noise_std must be non-negative")
    rng = rng or np.random.default_rng()
    state = (forcing * np.ones(n_series) + rng.normal(0.0, 0.5, size=n_series)).tolist()
    forcing = float(forcing)
    # (i+1, i-2, i-1, i) on the ring, for dx_i/dt = (x_{i+1} - x_{i-2}) x_{i-1} - x_i + F.
    ring = [((i + 1) % n_series, (i - 2) % n_series, (i - 1) % n_series, i)
            for i in range(n_series)]

    def derivative(x: List[float]) -> List[float]:
        return [(x[ahead] - x[back2]) * x[back1] - x[i] + forcing
                for ahead, back2, back1, i in ring]

    # The step scalars are formed as the vector form forms them, then held
    # as Python floats so every stage multiplies in double precision.
    half_dt = float(0.5 * dt)
    sixth_dt = float(dt / 6.0)
    dt = float(dt)
    samples: List[List[float]] = []
    for step in range(burn_in + (length - 1) * subsample + 1):
        k1 = derivative(state)
        k2 = derivative([x + half_dt * k for x, k in zip(state, k1)])
        k3 = derivative([x + half_dt * k for x, k in zip(state, k2)])
        k4 = derivative([x + dt * k for x, k in zip(state, k3)])
        state = [x + sixth_dt * (a + 2 * b + 2 * c + d)
                 for x, a, b, c, d in zip(state, k1, k2, k3, k4)]
        if step >= burn_in and (step - burn_in) % subsample == 0:
            samples.append(state)
    trajectory = np.ascontiguousarray(np.array(samples).T)
    if noise_std > 0:
        trajectory = trajectory + rng.normal(0.0, noise_std, size=trajectory.shape)
    return trajectory


def lorenz96_graph(n_series: int = 10, include_self_loops: bool = True) -> TemporalCausalGraph:
    """Ground-truth coupling graph of the Lorenz-96 model.

    Variable ``i`` is driven by ``i-2``, ``i-1``, ``i+1`` (ring indices) and
    itself; every causal edge acts with delay 1 sampling slot.
    """
    graph = TemporalCausalGraph(n_series)
    for i in range(n_series):
        graph.add_edge((i - 2) % n_series, i, 1)
        graph.add_edge((i - 1) % n_series, i, 1)
        graph.add_edge((i + 1) % n_series, i, 1)
        if include_self_loops:
            graph.add_edge(i, i, 1)
    return graph


def lorenz96_dataset(n_series: int = 10, length: int = 1000,
                     forcing: Optional[float] = None, dt: float = 0.01,
                     subsample: int = 5, noise_std: float = 0.0,
                     include_self_loops: bool = True,
                     seed: Optional[int] = None) -> TimeSeriesDataset:
    """Lorenz-96 dataset with ground truth (paper: N=10, F∈[30, 40], len 1000)."""
    rng = np.random.default_rng(seed)
    if forcing is None:
        forcing = float(rng.uniform(30.0, 40.0))
    values = simulate_lorenz96(n_series=n_series, length=length, forcing=forcing,
                               dt=dt, subsample=subsample, noise_std=noise_std, rng=rng)
    graph = lorenz96_graph(n_series, include_self_loops=include_self_loops)
    return TimeSeriesDataset(
        values=values,
        name="lorenz96",
        graph=graph,
        metadata={
            "forcing": forcing,
            "dt": dt,
            "subsample": subsample,
            "noise_std": noise_std,
            "seed": seed,
            "generator": "lorenz96",
        },
    )
