"""Lorenz-96 simulated climate dataset (paper Sec. 5.1, Eq. 21).

The Lorenz-96 model couples ``N`` variables on a ring:

.. math::

    \\frac{dx_i}{dt} = (x_{i+1} - x_{i-2})\\, x_{i-1} - x_i + F

so each variable ``x_i`` is causally driven by ``x_{i-2}``, ``x_{i-1}``,
``x_{i+1}`` and itself.  The paper simulates 10 variables with forcing
``F ∈ [30, 40]`` over 1,000 units; we integrate with a fourth-order
Runge–Kutta scheme and subsample to the requested length.

The integrator is generated Python source, one straight-line RK4 loop per
ring size ``N``.  At the paper's size a state has only ten entries, so a
vectorised step is all per-call overhead (the three ``np.roll`` calls of
every derivative evaluation cost far more than the forty multiply-adds they
feed), and a scalar loop over a list still spends most of its time building
lists, zips and index tuples.  The generated loop holds every ring variable
and RK4 stage value in a plain local and spells out each ring neighbour, so
a step is only float arithmetic on locals.

The generated source may contain only: the locals ``x0 … x{N-1}`` (state),
``y0 …`` (stage input) and ``a0 … d0 …`` (the four stage derivatives), the
kernel's own parameters, float arithmetic between them, the literal
``2.0``, and the loop that keeps one sample per ``counts`` entry.  It is
built from integer ring indices alone, after ``operator.index(n_series)``;
no caller-supplied text reaches it.  Each size is compiled once per process
and cached.

Python floats are IEEE doubles and every generated line performs the
operations of the vector form :func:`lorenz96_derivative` with the RK4
update in the same order: ``(x[i+1] - x[i-2]) x[i-1] - x[i] + F`` for each
derivative, ``x + dt/2 k`` and ``x + dt k`` for the stage inputs and
``x + dt/6 (a + 2 b + 2 c + d)`` for the update, with the step scalars
formed as the vector form forms them.  So the trajectories are
bit-identical to integrating that vector form.  The initial state and the
observation noise are drawn with numpy from the caller's generator.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, List, Optional

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
    n_series = operator.index(n_series)
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
    kernel = _rk4_kernel(n_series)
    rng = rng or np.random.default_rng()
    state = (forcing * np.ones(n_series) + rng.normal(0.0, 0.5, size=n_series)).tolist()
    # The step scalars are formed as the vector form forms them, then held
    # as Python floats so every stage multiplies in double precision.
    samples = kernel(state, float(forcing), float(0.5 * dt), float(dt), float(dt / 6.0),
                     [burn_in + 1] + [subsample] * (length - 1))
    trajectory = np.ascontiguousarray(np.array(samples).T)
    if noise_std > 0:
        trajectory = trajectory + rng.normal(0.0, noise_std, size=trajectory.shape)
    return trajectory


def _derivative_lines(stage: str, x: str, n: int) -> List[str]:
    """``stage{i} = dx_i/dt`` at the ring state held in locals ``x0 … x{n-1}``."""
    return [f"{stage}{i} = ({x}{(i + 1) % n} - {x}{(i - 2) % n}) * {x}{(i - 1) % n}"
            f" - {x}{i} + forcing" for i in range(n)]


@functools.lru_cache(maxsize=32)
def _rk4_kernel(n: int) -> Callable[..., List[tuple]]:
    """Compile the straight-line RK4 loop for a ring of ``n`` variables.

    The kernel takes the initial state, ``forcing``, ``half_dt``, ``dt``,
    ``sixth_dt`` and ``counts``, a list of step counts: it integrates
    ``counts[k]`` steps, then keeps the state as the ``k``-th sample, and
    returns the kept states as tuples.
    """
    n = operator.index(n)
    ring = ", ".join(f"x{i}" for i in range(n))
    body = _derivative_lines("a", "x", n)
    for stage, scale, prev in (("b", "half_dt", "a"), ("c", "half_dt", "b"), ("d", "dt", "c")):
        body += [f"y{i} = x{i} + {scale} * {prev}{i}" for i in range(n)]
        body += _derivative_lines(stage, "y", n)
    # 2.0 is the double numpy converts the vector form's ``2 *`` to; a float
    # literal keeps the multiply on CPython's float-float fast path.
    body += [f"x{i} = x{i} + sixth_dt * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})"
             for i in range(n)]
    source = "\n".join([
        "def rk4(state, forcing, half_dt, dt, sixth_dt, counts):",
        f"    {ring}, = state",
        "    samples = []",
        "    for count in counts:",
        "        for _ in range(count):",
        *(f"            {line}" for line in body),
        f"        samples.append(({ring},))",
        "    return samples",
    ])
    namespace: dict = {}
    exec(compile(source, f"<lorenz96 rk4 n={n}>", "exec"), namespace)
    return namespace["rk4"]


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
