"""Instrumented and fault-injecting backends for the sampling tests.

``epsilon_channels`` is the one backend method the sampling loop calls: once
per step on all live rows, and again, on one-row slices, when it retries a
failed step row by row. ``ToyDenoiser.epsilon``, which the reference
trajectories in tests/oracles.py call, is its one-channel case. So the faults
and counters below sit on ``epsilon_channels`` and act on all of these.
"""

from __future__ import annotations

import numpy as np

from dcr.guidance import NoisePrediction
from dcr.toy import ToyDenoiser


def _checked(values: np.ndarray) -> np.ndarray:
    """values, after NoisePrediction's check, which rejects a poisoned one."""
    NoisePrediction.from_array(values)
    return values


class NaNRows(ToyDenoiser):
    """A ToyDenoiser whose prediction is NaN for the chosen rows of the
    batch from step index ``k`` onward, so the call raises: on every channel,
    or on the ``label`` channel alone when one is given.

    Rows are chosen by their index in the first call at step k, the batched
    one (all rows are still live there); after that a row is recognised by
    its latent, so the row-by-row retry of the same step finds it too.
    """

    def __init__(self, scenario, sched, rows, k: int, label: str | None = None):
        super().__init__(scenario, sched)
        self.rows = set(rows)
        self.t_bad = sched.T - 1 - k
        self.label = label
        self.poisoned: set[bytes] | None = None

    def epsilon_channels(self, x_t, t, labels):
        x = np.asarray(x_t, dtype=np.float64)
        values = super().epsilon_channels(x, t, labels)
        if t <= self.t_bad:
            rows = x.reshape(-1, x.shape[-1])
            if self.poisoned is None:
                self.poisoned = {rows[r].tobytes() for r in self.rows}
            bad = [j for j, row in enumerate(rows) if row.tobytes() in self.poisoned]
            for c, label in enumerate(labels):
                if self.label in (None, label):
                    values[c].reshape(rows.shape)[bad] = np.nan
        return _checked(values)


class NaNWhere(ToyDenoiser):
    """A ToyDenoiser whose prediction is NaN at step index ``k`` for every
    row whose latent has a positive first coordinate, so which rows fail
    does not depend on how the rows are batched."""

    def __init__(self, scenario, sched, k: int):
        super().__init__(scenario, sched)
        self.t_bad = sched.T - 1 - k

    def epsilon_channels(self, x_t, t, labels):
        x = np.asarray(x_t, dtype=np.float64)
        values = super().epsilon_channels(x, t, labels)
        if t == self.t_bad:
            values = np.where(x[..., :1] > 0, np.nan, values)
        return _checked(values)


class CountingBackend(ToyDenoiser):
    """A ToyDenoiser that counts its evaluations per channel label (one per
    label of each ``epsilon_channels`` call) and its ``epsilon_channels``
    calls."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = {}
        self.channel_calls = 0

    def epsilon_channels(self, x_t, t, labels):
        self.channel_calls += 1
        for label in labels:
            self.calls[label] = self.calls.get(label, 0) + 1
        return super().epsilon_channels(x_t, t, labels)
