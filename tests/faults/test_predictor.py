"""Tests for the prediction-side fault injector."""

import pytest

from repro.energy.predictor import MeanPowerPredictor, ProfilePredictor
from repro.faults import BiasedPredictor


class TestBias:
    def test_gain_scales_prediction(self):
        inner = MeanPowerPredictor(initial_power=2.0)
        biased = BiasedPredictor(inner, gain=1.5)
        assert biased.predict_energy(0.0, 10.0) == pytest.approx(30.0)

    def test_offset_adds_power_times_duration(self):
        inner = MeanPowerPredictor(initial_power=2.0)
        biased = BiasedPredictor(inner, offset_power=0.5)
        assert biased.predict_energy(0.0, 4.0) == pytest.approx(8.0 + 2.0)

    def test_pessimistic_bias_clamped_at_zero(self):
        inner = MeanPowerPredictor(initial_power=1.0)
        biased = BiasedPredictor(inner, gain=0.5, offset_power=-10.0)
        assert biased.predict_energy(0.0, 5.0) == 0.0

    def test_identity_is_transparent(self):
        inner = MeanPowerPredictor(initial_power=1.7)
        biased = BiasedPredictor(inner)
        assert biased.predict_energy(2.0, 9.0) == pytest.approx(
            inner.predict_energy(2.0, 9.0)
        )


class TestPassthrough:
    def test_observations_train_the_inner_predictor(self):
        inner = MeanPowerPredictor()
        biased = BiasedPredictor(inner, gain=2.0)
        biased.observe(0.0, 10.0, 30.0)
        # The inner predictor learned from the true harvest...
        learned = inner.predict_energy(0.0, 1.0)
        assert learned > 0.0
        # ...and the bias stays systematic on top of whatever it learned.
        assert biased.predict_energy(0.0, 1.0) == pytest.approx(2.0 * learned)

    def test_reset_propagates(self):
        inner = ProfilePredictor()
        biased = BiasedPredictor(inner)
        biased.observe(0.0, 1.0, 5.0)
        biased.reset()
        assert inner.predict_energy(0.0, 1.0) == biased.predict_energy(0.0, 1.0)


class TestValidation:
    def test_bad_gain(self):
        with pytest.raises(ValueError, match="gain"):
            BiasedPredictor(MeanPowerPredictor(), gain=-0.1)

    def test_bad_offset(self):
        with pytest.raises(ValueError, match="offset_power"):
            BiasedPredictor(MeanPowerPredictor(), offset_power=float("nan"))

    def test_introspection(self):
        inner = MeanPowerPredictor()
        biased = BiasedPredictor(inner, gain=1.2, offset_power=-0.3)
        assert biased.inner is inner
        assert biased.gain == 1.2
        assert biased.offset_power == -0.3
        assert "BiasedPredictor" in repr(biased)
