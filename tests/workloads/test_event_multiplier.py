"""Vectorized flash-event ramp == per-offset reference, RNG stream too.

``_event_multiplier`` (the per-VM reference generator's, in
``tests/reference/generation.py``) writes each event's decaying ramp as
one elementwise maximum over a slice.  Within one event the hit timestamps
are distinct, so the slice-maximum must reproduce the historical
per-offset ``max`` writes exactly — same participation draws, same
severities (RNG draw order unchanged), same multiplier bytes.
"""

from __future__ import annotations

import random

import numpy as np

from tests.reference.generation import _event_multiplier


def _reference(events, n_hours, participation, rng):
    """The historical per-offset loop, retained verbatim as the oracle."""
    if not events or participation <= 0:
        return None
    multiplier = np.ones(n_hours)
    hit_any = False
    for start, duration, magnitude in events:
        if rng.random() >= participation:
            continue
        hit_any = True
        severity = magnitude * float(rng.uniform(0.5, 1.5))
        for offset in range(duration):
            t = start + offset
            if t >= n_hours:
                break
            decay = 1.0 - offset / duration
            multiplier[t] = max(multiplier[t], 1.0 + severity * decay)
    return multiplier if hit_any else None


def test_matches_reference_across_random_instances() -> None:
    master = random.Random("event-multiplier")
    for trial in range(200):
        n_hours = master.randint(1, 150)
        events = [
            (
                master.randint(0, n_hours + 20),
                master.randint(1, 48),
                master.uniform(0.1, 4.0),
            )
            for _ in range(master.randint(0, 6))
        ]
        participation = master.uniform(-0.2, 1.0)
        seed = master.randrange(2**31)
        vectorized = _event_multiplier(
            events, n_hours, participation, np.random.default_rng(seed)
        )
        reference = _reference(
            events, n_hours, participation, np.random.default_rng(seed)
        )
        if reference is None:
            assert vectorized is None, trial
        else:
            assert vectorized.tobytes() == reference.tobytes(), trial


def test_rng_stream_position_preserved() -> None:
    """Post-call RNG state matches the reference's: later draws align."""
    events = [(5, 10, 2.0), (80, 6, 1.0), (20, 30, 0.5)]
    rng_a = np.random.default_rng(99)
    rng_b = np.random.default_rng(99)
    _event_multiplier(events, 64, 0.7, rng_a)
    _reference(events, 64, 0.7, rng_b)
    assert rng_a.random() == rng_b.random()


def test_no_events_or_zero_participation_returns_none() -> None:
    rng = np.random.default_rng(0)
    assert _event_multiplier([], 24, 0.5, rng) is None
    assert _event_multiplier([(0, 2, 1.0)], 24, 0.0, rng) is None


def test_overlapping_events_take_elementwise_max() -> None:
    events = [(0, 8, 1.0), (2, 8, 3.0)]
    out = _event_multiplier(events, 12, 1.0, np.random.default_rng(3))
    ref = _reference(events, 12, 1.0, np.random.default_rng(3))
    assert out.tobytes() == ref.tobytes()
    assert out[2] >= 1.0 and out[8:10].min() >= 1.0


def test_event_starting_past_horizon_still_draws_severity() -> None:
    """An out-of-range event consumes RNG draws and sets hit_any."""
    events = [(100, 5, 2.0)]
    out = _event_multiplier(events, 24, 1.0, np.random.default_rng(1))
    ref = _reference(events, 24, 1.0, np.random.default_rng(1))
    assert out is not None and ref is not None
    assert out.tobytes() == ref.tobytes()
    assert np.all(out == 1.0)
