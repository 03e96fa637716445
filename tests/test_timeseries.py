"""Container invariants: seasonal specs, moving-seasonality registry,
slot tables."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwdims import DataError, DimsSpec, SeasonSpec, compute_recurrence, project_dims
from hwdims.timeseries import iso_stamps, slot_mean, write_csv

from helpers import hourly_series


def demand(n=600):
    t = np.arange(n)
    return 100 + 10 * np.sin(2 * np.pi * t / 24)


class TestSeasonSpec:
    def test_cycle_length_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            SeasonSpec("d", 1)

    def test_mode_init_mismatch_rejected(self):
        with pytest.raises(ValueError, match="ratio_to_ma"):
            SeasonSpec("d", 24, mode="additive", init_method="ratio_to_ma")

    def test_auto_init_follows_mode(self):
        assert SeasonSpec("d", 24, mode="multiplicative").init_method == "ratio_to_ma"
        assert SeasonSpec("d", 24, mode="additive").init_method == "difference_to_ma"

    def test_cycle_longer_than_series_rejected(self):
        with pytest.raises(DataError):
            hourly_series(demand(20), seasons=[SeasonSpec("d", 24)])

    def test_duplicate_cycle_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            hourly_series(demand(), seasons=[SeasonSpec("a", 24), SeasonSpec("b", 24)])


class TestDimsSpec:
    def test_empty_occurrences_accepted(self):
        ts = hourly_series(demand()).add_dims(DimsSpec("easter", "multiplicative", 24))
        slot = ts.recurrence("easter")
        assert not (slot >= 0).any()
        assert (slot == -1).all()

    def test_lag_equals_occurrence_start_difference(self):
        spec = DimsSpec("easter", "multiplicative", 24, occurrences=(100, 460))
        ts = hourly_series(demand()).add_dims(spec)
        slot = ts.recurrence("easter")
        # Each offset of the second block reads the value its twin 360 steps
        # earlier (the start difference) left behind.
        assert (slot[460:484] == slot[100:124]).all()
        assert (slot[100:124] >= 0).all() and (slot[460:484] >= 0).all()
        assert (slot >= 0).sum() == 48
        assert list(slot[460:484]) == list(range(24))

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ValueError, match="overlaps"):
            DimsSpec("h", "multiplicative", 24, occurrences=(100, 110))

    def test_occurrences_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DimsSpec("h", "multiplicative", 24, occurrences=(200, 100))

    def test_out_of_bounds_occurrence_rejected(self):
        with pytest.raises(DataError, match=r"\[590, 614\)"):
            hourly_series(demand(600)).add_dims(
                DimsSpec("h", "multiplicative", 24, occurrences=(590,))
            )

    def test_duplicate_id_rejected(self):
        ts = hourly_series(demand()).add_dims(DimsSpec("h", "multiplicative", 24))
        with pytest.raises(ValueError, match="duplicate"):
            ts.add_dims(DimsSpec("h", "additive", 12))

    def test_different_specs_may_overlap(self):
        ts = hourly_series(demand())
        ts = ts.add_dims(DimsSpec("easter", "multiplicative", 96, occurrences=(96,)))
        ts = ts.add_dims(DimsSpec("holiday", "multiplicative", 24, occurrences=(120,)))
        assert ts.recurrence("easter")[120] >= 0
        assert ts.recurrence("holiday")[120] >= 0


class TestRegistryRoundTrip:
    def test_remove_last_added_restores_registry(self):
        base = hourly_series(demand()).add_dims(
            DimsSpec("easter", "multiplicative", 24, occurrences=(48,))
        )
        grown = base.add_dims(DimsSpec("holiday", "additive", 24, occurrences=(240,)))
        shrunk = grown.remove_dims("holiday")
        assert shrunk.dims == base.dims

    def test_remove_unknown_id(self):
        with pytest.raises(KeyError):
            hourly_series(demand()).remove_dims("nope")


class TestTimeSeries:
    def test_values_are_read_only(self):
        ts = hourly_series(demand())
        with pytest.raises(ValueError):
            ts.values[0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        y = demand(48)
        y[17] = bad
        with pytest.raises(DataError, match="non-finite value.*index 17"):
            hourly_series(y)

    def test_prefix_drops_partial_blocks(self):
        ts = hourly_series(demand(600)).add_dims(
            DimsSpec("h", "multiplicative", 24, occurrences=(100, 460))
        )
        cut = ts.prefix(470)  # second block [460, 484) straddles the cut
        assert cut.dims[0].occurrences == (100,)
        assert len(cut) == 470

    def test_timestamps_are_even(self):
        ts = hourly_series(demand(10))
        stamps = ts.timestamps
        assert all((b - a) == ts.step for a, b in zip(stamps, stamps[1:]))

    @pytest.mark.parametrize("start, step", [
        (datetime(2018, 3, 25), timedelta(minutes=90)),
        (datetime(2020, 2, 28, 23, 59), timedelta(seconds=30)),
        # microseconds at the start, and a step that adds and clears them
        (datetime(2019, 12, 31, 23, 0, 0, 250000), timedelta(hours=1)),
        (datetime(2019, 12, 31, 23, 0, 0, 250000), timedelta(microseconds=250000)),
        # an aware start keeps its offset
        (datetime(2021, 6, 1, tzinfo=timezone(timedelta(hours=2))), timedelta(hours=1)),
    ])
    def test_iso_stamps_equal_isoformat(self, start, step):
        count = 2500  # three blocks of rows, the last one partial
        assert iso_stamps(start, step, count) == [
            (start + i * step).isoformat() for i in range(count)]


@given(
    st.integers(min_value=1, max_value=12),
    st.lists(st.integers(min_value=0, max_value=80), min_size=2, max_size=5, unique=True),
    st.integers(min_value=0, max_value=119),
    st.integers(min_value=1, max_value=120),
)
@settings(max_examples=60, deadline=None)
def test_recurrence_lags_match_start_differences(length, starts, origin, horizon):
    starts = sorted(starts)
    if any(b - a < length for a, b in zip(starts, starts[1:])):
        return  # overlapping draws are covered by the validation tests
    spec = DimsSpec("x", "additive", length, occurrences=tuple(starts))
    slot = compute_recurrence(spec, 120)
    expected = np.full(120, -1)
    for start in starts:
        expected[start:start + length] = np.arange(length)
    # Offset j of every block sits at start + j, so each block reads the
    # slots the previous one wrote, one start difference earlier.
    np.testing.assert_array_equal(slot, expected)
    horizon = min(horizon, 120 - origin)
    np.testing.assert_array_equal(
        project_dims([spec], origin, horizon)["x"], slot[origin:origin + horizon]
    )


@st.composite
def slot_tables(draw):
    size = draw(st.integers(1, 12))
    n = draw(st.integers(0, 80))
    # slots up to size - 1 - unused never occur; -1 marks a skipped entry
    unused = draw(st.integers(0, size - 1))
    slots = np.array(draw(st.lists(st.integers(-1, size - 1 - unused), min_size=n, max_size=n)),
                     dtype=np.int64)
    values = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
    return values, slots, size, draw(st.floats(-10.0, 10.0))


@given(slot_tables())
@settings(max_examples=200, deadline=None)
def test_slot_mean_matches_a_per_slot_loop(case):
    values, slots, size, fallback = case
    want = np.full(size, fallback)
    for q in range(size):
        if (slots == q).any():
            want[q] = values[slots == q].mean()
    got = slot_mean(values, slots, size, fallback)
    scale = max(1.0, float(np.max(np.abs(values), initial=0.0)))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
    assert (got[np.bincount(slots[slots >= 0], minlength=size) == 0] == fallback).all()


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2500])
def test_write_csv_text_across_row_blocks(tmp_path, n):
    # rows are joined in blocks; the text must not show where a block ends
    keys = [str(i) for i in range(n)]
    values = [repr(0.1 * i) for i in range(n)]
    path = write_csv(tmp_path / "out.csv", "key,value", keys, iter(values))
    assert path.read_text() == "key,value\n" + "".join(
        f"{k},{v}\n" for k, v in zip(keys, values))
    with pytest.raises(ValueError):
        write_csv(tmp_path / "short.csv", "key,value", keys, values[:-1] + ["1", "2"])
