"""Instrumented and fault-injecting backends for the sampling tests.

The sampling loop evaluates a ToyDenoiser's channels through
``epsilon_channels``, and its row-by-row retry goes through ``epsilon``,
whose ToyDenoiser form is the one-channel case of ``epsilon_channels``. So
the faults and counters below sit on ``epsilon_channels`` and act on both.
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

    Rows are chosen by their index in the first batched call at step k (all
    rows are still live there); after that a row is recognised by its
    latent, so the row-by-row retry of the same step finds it too.
    """

    def __init__(self, scenario, sched, rows, k: int, label: str | None = None):
        super().__init__(scenario, sched)
        self.rows = set(rows)
        self.t_bad = sched.T - 1 - k
        self.label = label
        self.poisoned: set[bytes] = set()

    def epsilon_channels(self, x_t, t, labels):
        x = np.asarray(x_t, dtype=np.float64)
        values = super().epsilon_channels(x, t, labels)
        if t <= self.t_bad:
            rows = x.reshape(-1, x.shape[-1])
            if t == self.t_bad and x.ndim == 2:
                self.poisoned |= {rows[r].tobytes() for r in self.rows}
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


class PerChannelCounting:
    """A ToyDenoiser seen through ``epsilon`` alone, so the loop takes its
    per-channel path; counts its calls per channel label."""

    def __init__(self, *args):
        self._toy = ToyDenoiser(*args)
        self.schedule, self.latent_shape = self._toy.schedule, self._toy.latent_shape
        self.calls = {}

    def epsilon(self, x_t, t, channel_label):
        self.calls[channel_label] = self.calls.get(channel_label, 0) + 1
        return self._toy.epsilon(x_t, t, channel_label)
