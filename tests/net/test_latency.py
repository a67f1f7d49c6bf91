"""Latency models: calibrated, analytic, scaled."""

import pytest

from repro.errors import ConfigError
from repro.net.calibration import PAPER_FULLPAGE_MS, PAPER_TABLE2
from repro.net.latency import (
    AnalyticLatencyModel,
    CalibratedLatencyModel,
    LatencyModel,
    ScaledLatencyModel,
    _interp,
)


class TestCalibratedModel:
    def test_exact_at_measured_sizes(self):
        model = CalibratedLatencyModel()
        for row in PAPER_TABLE2:
            assert model.subpage_latency_ms(row.subpage_bytes) == (
                pytest.approx(row.subpage_latency_ms)
            )
            assert model.rest_of_page_ms(row.subpage_bytes) == (
                pytest.approx(row.rest_of_page_ms)
            )

    def test_fullpage(self):
        model = CalibratedLatencyModel()
        assert model.fullpage_latency_ms() == PAPER_FULLPAGE_MS
        assert model.subpage_latency_ms(8192) == PAPER_FULLPAGE_MS

    def test_extrapolation_below_grid_monotone(self):
        # 128-byte subpages are off the measured grid (extrapolated).
        model = CalibratedLatencyModel()
        assert (
            model.request_fixed_ms
            <= model.subpage_latency_ms(128)
            < model.subpage_latency_ms(256)
        )

    def test_rest_at_least_subpage(self):
        model = CalibratedLatencyModel()
        for size in (128, 256, 1024, 4096):
            assert model.rest_of_page_ms(size) >= (
                model.subpage_latency_ms(size)
            )

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            CalibratedLatencyModel().subpage_latency_ms(300)

    def test_rejects_subpage_above_page(self):
        with pytest.raises(ConfigError):
            CalibratedLatencyModel().subpage_latency_ms(16384)

    def test_satisfies_protocol(self):
        assert isinstance(CalibratedLatencyModel(), LatencyModel)

    def test_wire_time_positive(self):
        assert CalibratedLatencyModel().wire_time_ms(1024) > 0

    @pytest.mark.parametrize("page_bytes", [8192, 2048])
    def test_tables_are_exact(self, page_bytes):
        """Memoized answers equal a fresh model's first answer bit for
        bit, and that answer is the interpolation formula's."""
        warm = CalibratedLatencyModel(page_bytes=page_bytes)
        sizes = [1 << k for k in range(page_bytes.bit_length())]
        for size in sizes + sizes:
            warm.subpage_latency_ms(size)
            warm.rest_of_page_ms(size)
        for size in sizes:
            fresh = CalibratedLatencyModel(page_bytes=page_bytes)
            sub = fresh.subpage_latency_ms(size)
            fresh = CalibratedLatencyModel(page_bytes=page_bytes)
            rest = fresh.rest_of_page_ms(size)
            assert warm.subpage_latency_ms(size).hex() == sub.hex()
            assert warm.rest_of_page_ms(size).hex() == rest.hex()
            if size < page_bytes:
                formula = max(
                    _interp(size, fresh._sizes, fresh._sub),
                    fresh.request_fixed_ms,
                )
                assert sub.hex() == formula.hex()
            else:
                assert sub == rest == fresh.fullpage_latency_ms()

    @pytest.mark.parametrize("size", [0, -8, 3, 300, 3000, 16384])
    def test_invalid_size_raises_on_every_call(self, size):
        model = CalibratedLatencyModel()
        model.subpage_latency_ms(1024)
        model.rest_of_page_ms(1024)
        for _ in range(3):
            with pytest.raises(ConfigError):
                model.subpage_latency_ms(size)
            with pytest.raises(ConfigError):
                model.rest_of_page_ms(size)


class TestAnalyticModel:
    def test_satisfies_protocol(self):
        assert isinstance(AnalyticLatencyModel(), LatencyModel)

    def test_tracks_timeline(self):
        from repro.net.timeline import simulate_fetch

        model = AnalyticLatencyModel()
        tl = simulate_fetch(model.params, 8192, 1024, scheme="eager")
        assert model.subpage_latency_ms(1024) == pytest.approx(tl.resume_ms)
        assert model.rest_of_page_ms(1024) == pytest.approx(
            tl.completion_ms
        )

    def test_caching_consistent(self):
        model = AnalyticLatencyModel()
        assert model.subpage_latency_ms(512) == model.subpage_latency_ms(512)

    def test_fitted_model_close_to_calibrated(self):
        from repro.net.calibration import fit_timeline_params

        fitted = AnalyticLatencyModel(fit_timeline_params())
        calibrated = CalibratedLatencyModel()
        for size in (256, 1024, 4096):
            assert fitted.subpage_latency_ms(size) == pytest.approx(
                calibrated.subpage_latency_ms(size), rel=0.08
            )


class TestScaledModel:
    def test_fixed_cost_unscaled(self):
        base = CalibratedLatencyModel()
        fast = ScaledLatencyModel(base, speedup=100.0)
        # At huge speedup, latency approaches the fixed request cost.
        assert fast.subpage_latency_ms(1024) == pytest.approx(
            base.request_fixed_ms, rel=0.02
        )

    def test_speedup_one_is_identity(self):
        base = CalibratedLatencyModel()
        same = ScaledLatencyModel(base, speedup=1.0)
        for size in (256, 1024, 4096):
            assert same.subpage_latency_ms(size) == pytest.approx(
                base.subpage_latency_ms(size)
            )
            assert same.rest_of_page_ms(size) == pytest.approx(
                base.rest_of_page_ms(size)
            )

    def test_wire_scales(self):
        base = CalibratedLatencyModel()
        fast = ScaledLatencyModel(base, speedup=4.0)
        assert fast.wire_time_ms(8192) == pytest.approx(
            base.wire_time_ms(8192) / 4
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            ScaledLatencyModel(CalibratedLatencyModel(), speedup=0)

    def test_satisfies_protocol(self):
        assert isinstance(
            ScaledLatencyModel(CalibratedLatencyModel(), 2.0), LatencyModel
        )


class TestInterp:
    def test_exact_points(self):
        assert _interp(2, [1, 2, 3], [10.0, 20.0, 30.0]) == 20.0

    def test_midpoint(self):
        assert _interp(1.5, [1, 2], [10.0, 20.0]) == 15.0

    def test_extrapolates_ends(self):
        assert _interp(0, [1, 2], [10.0, 20.0]) == pytest.approx(0.0)
        assert _interp(3, [1, 2], [10.0, 20.0]) == pytest.approx(30.0)

    def test_single_point(self):
        assert _interp(99, [5], [7.0]) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ConfigError):
            _interp(1, [], [])
