"""Container invariants: seasonal specs, moving-seasonality registry,
slot tables."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hwdims.timeseries
from hwdims import (
    DataError, DimsSpec, SeasonSpec, TimeSeries, compute_recurrence, project_dims,
)
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

    def test_multiplicative_difference_init_rejected(self):
        with pytest.raises(ValueError, match="difference_to_ma"):
            SeasonSpec("d", 24, mode="multiplicative", init_method="difference_to_ma")

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

    @pytest.mark.parametrize("change, message", [
        ({"length": 0}, "length must be >= 1"),
        ({"mode": "cubic"}, "unknown mode 'cubic'"),
        ({"init_method": "stl_based"}, "unknown init_method 'stl_based'"),
        ({"occurrences": (-5, 100)}, "negative occurrence start -5"),
        ({"init_method": "difference_to_ma"},
         "init_method 'difference_to_ma' seeds additive indices, not multiplicative"),
        ({"mode": "additive", "init_method": "ratio_to_ma"},
         "init_method 'ratio_to_ma' seeds multiplicative indices, not additive"),
    ], ids=["length", "mode", "init_method", "negative-start", "additive-method",
            "multiplicative-method"])
    def test_invalid_spec_rejected(self, change, message):
        kwargs = {"id": "h", "mode": "multiplicative", "length": 24, **change}
        with pytest.raises(ValueError, match=f"dims 'h': {message}"):
            DimsSpec(**kwargs)

    def test_block_past_series_end_cut_in_slot_table(self):
        spec = DimsSpec("h", "multiplicative", 24, occurrences=(590,))
        ts = hourly_series(demand(600)).add_dims(spec)
        assert ts.dims == (spec,)
        assert ts.recurrence("h")[590:].tolist() == list(range(10))
        assert (ts.recurrence("h")[:590] == -1).all()
        # the rest of the block is the forecast's
        assert project_dims(ts, 600, 16)["h"].tolist() == list(range(10, 24)) + [-1, -1]

    def test_block_starting_at_series_end_accepted(self):
        spec = DimsSpec("h", "multiplicative", 24, occurrences=(100, 600))
        ts = hourly_series(demand(600)).add_dims(spec)
        assert ts.dims[0].occurrences == (100, 600)
        assert (ts.recurrence("h") >= 0).sum() == 24
        assert project_dims(ts, 600, 24)["h"].tolist() == list(range(24))

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

    def test_prefix_keeps_every_block(self):
        ts = hourly_series(demand(600)).add_dims(
            DimsSpec("h", "multiplicative", 24, occurrences=(100, 460))
        )
        cut = ts.prefix(470)  # second block [460, 484) straddles the cut
        assert cut.dims == ts.dims
        assert len(cut) == 470
        assert (cut.recurrence("h") == ts.recurrence("h")[:470]).all()

    @pytest.mark.parametrize("step", [timedelta(0), timedelta(hours=-1)])
    def test_nonpositive_step_rejected(self, step):
        with pytest.raises(ValueError, match="step must be a positive duration"):
            TimeSeries(values=demand(48), step=step)

    def test_aware_start_rejected(self):
        start = datetime(2021, 6, 1, tzinfo=timezone(timedelta(hours=2)))
        with pytest.raises(ValueError, match=r"start 2021-06-01T00:00:00\+02:00 must be naive"):
            TimeSeries(values=demand(48), start=start)

    def test_iso_stamps_past_the_year_9999_are_a_data_error(self):
        # numpy would format them with five-digit years, or wrap around; the
        # last position is checked before any array of the positions exists
        step = timedelta(days=365)
        assert iso_stamps(datetime(9998, 1, 1), step, range(2))[-1] == "9999-01-01T00:00:00"
        for positions in (range(3), [0, 5], range(1, 10**20)):
            with pytest.raises(DataError, match=f"{positions[-1]} steps of 365 days, 0:00:00 "
                                                "from 9998-01-01T00:00:00 run past the year 9999"):
                iso_stamps(datetime(9998, 1, 1), step, positions)

    def test_unknown_dims_id_rejected(self):
        with pytest.raises(KeyError, match="unknown dims id 'ghost'"):
            hourly_series(demand()).recurrence("ghost")

    @pytest.mark.parametrize("n", [0, 601])
    def test_prefix_outside_the_series_rejected(self, n):
        with pytest.raises(ValueError, match=rf"prefix length {n} outside 1\.\.600"):
            hourly_series(demand(600)).prefix(n)

    def test_slot_tables_built_once_on_first_read(self, monkeypatch):
        # Building or cutting a series computes no slot table; the first read
        # of any engine table computes one per moving seasonality, and every
        # later read, of any table, reuses them.
        calls = []

        def counted(spec, n):
            calls.append((spec.id, n))
            return compute_recurrence(spec, n)

        monkeypatch.setattr(hwdims.timeseries, "compute_recurrence", counted)
        ts = hourly_series(demand(600), seasons=[SeasonSpec("d", 24)], dims=[
            DimsSpec("a", "multiplicative", 24, occurrences=(100, 460)),
            DimsSpec("b", "additive", 12, occurrences=(300,)),
        ])
        head = ts.prefix(470)
        assert calls == []
        assert ts.step_runs[1][0] == (0, 100, 0)
        assert sorted(calls) == [("a", 600), ("b", 600)]
        lists = ts.step_lists
        assert lists[1][1] == ts.recurrence("a").tolist()
        assert ts.step_lists is lists and len(calls) == 2
        assert (head.recurrence("b") == ts.recurrence("b")[:470]).all()
        assert sorted(calls[2:]) == [("a", 470), ("b", 470)]

    @pytest.mark.parametrize("start, step", [
        (datetime(2018, 3, 25), timedelta(minutes=90)),
        (datetime(2020, 2, 28, 23, 59), timedelta(seconds=30)),
        # microseconds at the start, and a step that adds and clears them
        (datetime(2019, 12, 31, 23, 0, 0, 250000), timedelta(hours=1)),
        (datetime(2019, 12, 31, 23, 0, 0, 250000), timedelta(microseconds=250000)),
    ])
    def test_iso_stamps_equal_isoformat(self, start, step):
        # range(2500) makes three blocks of rows, the last one partial
        for positions in (range(2500), list(range(7, 7500, 3)), np.arange(0, 5000, 2),
                          [], np.arange(0)):
            assert iso_stamps(start, step, positions) == [
                (start + int(i) * step).isoformat() for i in positions]


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
