"""Tests for harvest-trace file I/O."""

import numpy as np
import pytest

from repro.energy.source import SolarStochasticSource, TraceSource
from repro.energy.trace_io import (
    TraceFormatError,
    TraceFormatWarning,
    load_power_csv,
    resample_to_quantum,
    save_power_csv,
    source_from_csv,
)


class TestLoadPowerCsv:
    def test_two_columns_with_header(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("time,power\n0.0,1.5\n2.0,3.0\n5.0,0.5\n")
        times, powers = load_power_csv(path)
        np.testing.assert_allclose(times, [0.0, 2.0, 5.0])
        np.testing.assert_allclose(powers, [1.5, 3.0, 0.5])

    def test_single_column_implies_unit_grid(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("1.0\n2.0\n3.0\n")
        times, powers = load_power_csv(path)
        np.testing.assert_allclose(times, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(powers, [1.0, 2.0, 3.0])

    def test_headerless_two_columns(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("0,2.0\n1,4.0\n")
        times, powers = load_power_csv(path)
        np.testing.assert_allclose(powers, [2.0, 4.0])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("0,1.0\n\n1,2.0\n")
        times, _ = load_power_csv(path)
        assert times.size == 2

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_power_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("time,power\n")
        with pytest.raises(ValueError, match="no samples"):
            load_power_csv(path)

    def test_negative_power_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("0,1.0\n1,-2.0\n")
        with pytest.raises(ValueError, match="finite and >= 0"):
            load_power_csv(path)

    def test_non_increasing_times_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("0,1.0\n0,2.0\n")
        with pytest.raises(ValueError, match="strictly increasing"):
            load_power_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("0,1.0\n1,2.0,3.0\n")
        with pytest.raises(ValueError, match="columns"):
            load_power_csv(path)


class TestStrictErrors:
    def test_error_names_the_offending_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("time,power\n0,1.0\nbad,2.0\n")
        with pytest.raises(TraceFormatError, match="line 3") as excinfo:
            load_power_csv(path)
        assert excinfo.value.line == 3
        assert excinfo.value.path == str(path)
        assert "non-numeric" in str(excinfo.value)

    def test_file_level_error_has_no_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("")
        with pytest.raises(TraceFormatError) as excinfo:
            load_power_csv(path)
        assert excinfo.value.line is None
        assert str(path) in str(excinfo.value)

    def test_is_a_value_error(self, tmp_path):
        # Pre-existing callers catching ValueError keep working.
        assert issubclass(TraceFormatError, ValueError)

    def test_width_mismatch_line_number(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("0,1.0\n1,2.0\n3\n")
        with pytest.raises(TraceFormatError, match="line 3") as excinfo:
            load_power_csv(path)
        assert "expected 2 columns, found 1" in str(excinfo.value)

    def test_blank_lines_do_not_shift_line_numbers(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("0,1.0\n\n\nnan,2.0\n")
        with pytest.raises(TraceFormatError, match="line 4"):
            load_power_csv(path)


class TestLenientLoading:
    def test_skips_malformed_rows_with_one_warning(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("time,power\n0,1.0\nbad,2.0\n2,3.0\n3,-4.0\n4,5.0\n")
        with pytest.warns(TraceFormatWarning, match="skipped 2 malformed") as rec:
            times, powers = load_power_csv(path, strict=False)
        np.testing.assert_allclose(times, [0.0, 2.0, 4.0])
        np.testing.assert_allclose(powers, [1.0, 3.0, 5.0])
        assert len(rec) == 1
        assert "line 3" in str(rec[0].message)

    def test_non_monotonic_drops_only_that_row(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("0,1.0\n5,2.0\n3,9.0\n6,4.0\n")
        with pytest.warns(TraceFormatWarning):
            times, powers = load_power_csv(path, strict=False)
        np.testing.assert_allclose(times, [0.0, 5.0, 6.0])
        np.testing.assert_allclose(powers, [1.0, 2.0, 4.0])

    def test_all_rows_bad_still_raises(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("0,bad\n1,nan\n")
        with pytest.raises(TraceFormatError, match="no valid samples"):
            load_power_csv(path, strict=False)

    def test_single_column_lenient_renumbers_kept_rows(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("1.0\nbad\n3.0\n")
        with pytest.warns(TraceFormatWarning):
            times, powers = load_power_csv(path, strict=False)
        np.testing.assert_allclose(times, [0.0, 1.0])
        np.testing.assert_allclose(powers, [1.0, 3.0])

    def test_clean_file_emits_no_warning(self, tmp_path, recwarn):
        path = tmp_path / "log.csv"
        path.write_text("0,1.0\n1,2.0\n")
        load_power_csv(path, strict=False)
        assert not [w for w in recwarn if isinstance(w.message, TraceFormatWarning)]

    def test_source_from_csv_passes_strict_through(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("0,1.0\nbad,2.0\n1,3.0\n")
        with pytest.raises(TraceFormatError):
            source_from_csv(path)
        with pytest.warns(TraceFormatWarning):
            source = source_from_csv(path, strict=False)
        assert source.power(0.5) == 1.0


class TestResample:
    def test_uniform_input_passthrough(self):
        times = np.array([0.0, 1.0, 2.0])
        powers = np.array([1.0, 2.0, 3.0])
        binned = resample_to_quantum(times, powers, quantum=1.0, end_time=3.0)
        np.testing.assert_allclose(binned, [1.0, 2.0, 3.0])

    def test_energy_conserved_on_irregular_input(self):
        times = np.array([0.0, 0.5, 2.25])
        powers = np.array([4.0, 1.0, 2.0])
        end = 4.0
        binned = resample_to_quantum(times, powers, quantum=1.0, end_time=end)
        original_energy = 4.0 * 0.5 + 1.0 * 1.75 + 2.0 * 1.75
        assert binned.sum() * 1.0 == pytest.approx(original_energy)

    def test_sub_quantum_spikes_averaged(self):
        # A 0.1-long spike of power 10 inside an otherwise-zero quantum.
        times = np.array([0.0, 0.4, 0.5])
        powers = np.array([0.0, 10.0, 0.0])
        binned = resample_to_quantum(times, powers, quantum=1.0, end_time=1.0)
        assert binned[0] == pytest.approx(1.0)

    def test_coarser_quantum(self):
        times = np.arange(6, dtype=float)
        powers = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        binned = resample_to_quantum(times, powers, quantum=2.0, end_time=6.0)
        np.testing.assert_allclose(binned, [1.0, 2.0, 3.0])

    def test_bad_end_time_rejected(self):
        with pytest.raises(ValueError, match="end_time"):
            resample_to_quantum(
                np.array([0.0, 5.0]), np.array([1.0, 1.0]),
                quantum=1.0, end_time=4.0,
            )

    def test_bad_quantum_rejected(self):
        with pytest.raises(ValueError, match="quantum"):
            resample_to_quantum(np.array([0.0]), np.array([1.0]), quantum=0.0)


class TestRoundTrip:
    def test_source_from_csv(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("time,power\n0,1.0\n1,2.0\n2,4.0\n")
        source = source_from_csv(path)
        assert isinstance(source, TraceSource)
        assert source.power(0.5) == 1.0
        assert source.power(2.5) == 4.0

    def test_save_and_reload_preserves_energy(self, tmp_path):
        original = SolarStochasticSource(seed=6)
        path = tmp_path / "snapshot.csv"
        written = save_power_csv(original, path, horizon=200.0)
        assert written == 200
        replay = source_from_csv(path)
        assert replay.energy(0.0, 200.0) == pytest.approx(
            original.energy(0.0, 200.0)
        )
        # Exact per-quantum replay, not just aggregate.
        for t in (0.0, 13.0, 57.0, 199.0):
            assert replay.power(t) == pytest.approx(original.power(t))

    def test_cyclic_replay(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("time,power\n0,1.0\n1,2.0\n")
        source = source_from_csv(path, cyclic=True)
        assert source.power(2.5) == 1.0

    def test_save_invalid_horizon(self, tmp_path):
        with pytest.raises(ValueError):
            save_power_csv(
                SolarStochasticSource(seed=0), tmp_path / "x.csv", horizon=0.0
            )
