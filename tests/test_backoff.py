"""Retry/backoff unification: the capped-exponential curve."""

import pytest

from repro.service import backoff_delay


class TestBackoffDelay:
    def test_grows_exponentially_up_to_the_cap(self):
        # jitter off: the raw curve is base * 2^i, clamped at the cap
        delays = [
            backoff_delay(i, base=0.05, cap=1.0, jitter=0.0) for i in range(8)
        ]
        assert delays[:5] == [0.05, 0.1, 0.2, 0.4, 0.8]
        assert delays[5:] == [1.0, 1.0, 1.0]

    def test_jitter_stays_inside_the_band(self):
        for attempt in range(10):
            for seed in range(20):
                d = backoff_delay(attempt, base=0.1, cap=2.0, jitter=0.5, seed=seed)
                full = min(2.0, 0.1 * 2**attempt)
                assert 0.5 * full <= d <= full

    def test_seeded_jitter_is_deterministic(self):
        a = [backoff_delay(i, seed=7) for i in range(6)]
        b = [backoff_delay(i, seed=7) for i in range(6)]
        assert a == b
        # different seeds actually jitter (not all equal)
        c = [backoff_delay(i, seed=8) for i in range(6)]
        assert a != c

    def test_huge_attempt_does_not_overflow(self):
        assert backoff_delay(10_000, base=0.05, cap=3.0, jitter=0.0) == 3.0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            backoff_delay(-1)
        with pytest.raises(ValueError):
            backoff_delay(0, base=0.0)
        with pytest.raises(ValueError):
            backoff_delay(0, base=0.5, cap=0.1)
        with pytest.raises(ValueError):
            backoff_delay(0, jitter=1.5)

