"""Instrumented and fault-injecting backends for the sampling tests."""

from __future__ import annotations

import numpy as np

from dcr.guidance import NoisePrediction
from dcr.toy import ToyDenoiser


class NaNRows(ToyDenoiser):
    """A ToyDenoiser whose prediction is NaN for the chosen rows of the
    batch from step index ``k`` onward, so NoisePrediction rejects it.

    Rows are chosen by their index in the first batched call at step k (all
    rows are still live there); after that a row is recognised by its
    latent, so the row-by-row retry of the same step finds it too.
    """

    def __init__(self, scenario, sched, rows, k: int):
        super().__init__(scenario, sched)
        self.rows = set(rows)
        self.t_bad = sched.T - 1 - k
        self.poisoned: set[bytes] = set()

    def epsilon(self, x_t, t, channel_label):
        x = np.asarray(x_t, dtype=np.float64)
        values = super().epsilon(x, t, channel_label).values.reshape(x.shape).copy()
        if t <= self.t_bad:
            rows = x.reshape(-1, x.shape[-1])
            if t == self.t_bad and x.ndim == 2:
                self.poisoned |= {rows[r].tobytes() for r in self.rows}
            bad = [j for j, row in enumerate(rows) if row.tobytes() in self.poisoned]
            values.reshape(rows.shape)[bad] = np.nan
        return NoisePrediction.from_array(values)


class NaNWhere(ToyDenoiser):
    """A ToyDenoiser whose prediction is NaN at step index ``k`` for every
    row whose latent has a positive first coordinate, so which rows fail
    does not depend on how the rows are batched."""

    def __init__(self, scenario, sched, k: int):
        super().__init__(scenario, sched)
        self.t_bad = sched.T - 1 - k

    def epsilon(self, x_t, t, channel_label):
        x = np.asarray(x_t, dtype=np.float64)
        values = super().epsilon(x, t, channel_label).values.reshape(x.shape)
        if t == self.t_bad:
            values = np.where(x[..., :1] > 0, np.nan, values)
        return NoisePrediction.from_array(values)


class CountingBackend(ToyDenoiser):
    """A ToyDenoiser that counts its calls per channel label."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = {}

    def epsilon(self, x_t, t, channel_label):
        self.calls[channel_label] = self.calls.get(channel_label, 0) + 1
        return super().epsilon(x_t, t, channel_label)
