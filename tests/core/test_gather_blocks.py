"""Block-gathered training epochs are bit-identical to per-step gathers.

``Trainer._run_epoch`` (and the stacked trainer's round loop) shuffle once
per epoch and gather several mini-batches per ``np.take`` into an arena
block bounded by ``GATHER_ELEMENT_BUDGET``.  The tests below pin the
promise that makes this safe: whatever the block size, the engine sees the
same rows in the same order as a loop that gathers one mini-batch at a
time, so losses and weights match bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.core.batched as batched
import repro.core.training as training
from repro.core.batched import StackedCausalFormerTrainer
from repro.core.config import CausalFormerConfig
from repro.core.training import Trainer
from repro.core.transformer import CausalityAwareTransformer
from repro.telemetry import capture, reset

BATCH = 16


def _config(seed=0):
    return CausalFormerConfig(
        n_series=4, window=10, d_model=12, d_qk=12, d_ffn=12, n_heads=2,
        batch_size=BATCH, window_stride=1, max_epochs=3, patience=1000,
        seed=seed)


def _windows(n_windows, seed=0):
    trainer = Trainer(CausalityAwareTransformer(_config()), _config())
    values = np.random.default_rng(seed).normal(size=(4, n_windows + 10))
    return trainer.make_windows(values)[:n_windows]


def _per_step_epoch(trainer, windows, rng):
    """The reference loop: one shuffle, one fresh gather per mini-batch."""
    engine = trainer._training
    order = rng.permutation(windows.shape[0])
    prepared = engine.prepare_windows(windows)
    losses = [engine.train_step(np.take(prepared, order[start:start + BATCH],
                                        axis=0))
              for start in range(0, len(order), BATCH)]
    return float(np.mean(losses))


def _budget(steps_per_block, windows):
    engine = Trainer(CausalityAwareTransformer(_config()), _config())._training
    row_elements = int(np.prod(engine.prepare_windows(windows).shape[1:]))
    return steps_per_block * BATCH * row_elements


def _run(epoch, windows, n_epochs=2):
    trainer = Trainer(CausalityAwareTransformer(_config()), _config())
    rng = np.random.default_rng(7)
    losses = [epoch(trainer, windows, rng) for _ in range(n_epochs)]
    return losses, [p.data.copy() for p in trainer.model.parameters()]


def _assert_identical(run_a, run_b):
    losses_a, params_a = run_a
    losses_b, params_b = run_b
    assert losses_a == losses_b
    for a, b in zip(params_a, params_b):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n_windows", [96, 101], ids=["whole", "ragged"])
@pytest.mark.parametrize("steps_per_block", [None, 1, 2, 4],
                         ids=["default", "one", "two", "four"])
def test_solo_epoch_matches_per_step_gather(monkeypatch, n_windows,
                                            steps_per_block):
    windows = _windows(n_windows)
    if steps_per_block is not None:
        monkeypatch.setattr(training, "GATHER_ELEMENT_BUDGET",
                            _budget(steps_per_block, windows))
    blocked = _run(lambda t, w, rng: t._run_epoch(w, rng), windows)
    _assert_identical(blocked, _run(_per_step_epoch, windows))


@pytest.mark.parametrize("n_windows", [96, 101], ids=["whole", "ragged"])
def test_instrumented_epoch_matches_per_step_gather(monkeypatch, n_windows):
    """The telemetry-on loop takes the instrumented branch: same numerics."""
    windows = _windows(n_windows)
    monkeypatch.setattr(training, "GATHER_ELEMENT_BUDGET",
                        _budget(2, windows))
    try:
        with capture() as telemetry:
            blocked = _run(lambda t, w, rng: t._run_epoch(w, rng), windows)
    finally:
        reset(close=False)
    histogram = telemetry.metrics.snapshot()["histograms"]
    assert histogram["train.step_seconds"]["count"] == 2 * -(-n_windows // BATCH)
    _assert_identical(blocked, _run(_per_step_epoch, windows))


def _stacked_fit():
    lengths = (70, 90, 110)  # lanes with different numbers of full batches
    values_list = [np.random.default_rng(seed).normal(size=(4, length))
                   for seed, length in enumerate(lengths)]
    models = [CausalityAwareTransformer(replace(_config(), seed=seed))
              for seed in range(len(lengths))]
    histories = StackedCausalFormerTrainer(models).fit(values_list)
    return ([history.train_loss for history in histories],
            [p.data.copy() for model in models for p in model.parameters()])


@pytest.mark.parametrize("steps_per_block", [1, 2], ids=["one", "two"])
def test_stacked_round_matches_default_block(monkeypatch, steps_per_block):
    reference = _stacked_fit()
    row_elements = int(np.prod(_windows(8).shape[1:]))
    monkeypatch.setattr(batched, "GATHER_ELEMENT_BUDGET",
                        steps_per_block * 3 * BATCH * row_elements)
    _assert_identical(_stacked_fit(), reference)
