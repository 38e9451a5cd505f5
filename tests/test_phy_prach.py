"""Unit tests for PRACH preambles and detectors."""

import numpy as np
import pytest

from repro.phy.prach import (
    FastPrachDetector,
    NaivePrachDetector,
    PrachPreamble,
    ZC_LENGTH,
    detection_probability,
    false_alarm_rate,
    noise_only_window,
    transmit_preamble,
    zadoff_chu,
)


class TestZadoffChu:
    def test_constant_amplitude(self):
        seq = zadoff_chu(25)
        assert np.allclose(np.abs(seq), 1.0)

    def test_zero_autocorrelation_property(self):
        # Cyclic autocorrelation of a ZC sequence is an impulse.
        seq = zadoff_chu(25)
        corr = np.fft.ifft(np.fft.fft(seq) * np.conj(np.fft.fft(seq)))
        power = np.abs(corr)
        assert power[0] == pytest.approx(ZC_LENGTH, rel=1e-6)
        assert np.max(power[1:]) < 1e-6 * ZC_LENGTH

    def test_cross_correlation_flat(self):
        # Different roots of a prime-length ZC family have sqrt(N) cross
        # correlation in every bin.
        a, b = zadoff_chu(25), zadoff_chu(34)
        corr = np.fft.ifft(np.fft.fft(a) * np.conj(np.fft.fft(b)))
        assert np.allclose(np.abs(corr), np.sqrt(ZC_LENGTH), rtol=1e-6)

    def test_bad_root_raises(self):
        with pytest.raises(ValueError):
            zadoff_chu(0)
        with pytest.raises(ValueError):
            zadoff_chu(ZC_LENGTH)

    def test_preamble_applies_cyclic_shift(self):
        base = PrachPreamble(root=25, cyclic_shift=0).samples()
        shifted = PrachPreamble(root=25, cyclic_shift=13).samples()
        assert np.allclose(np.roll(base, -13), shifted)


class TestFastDetector:
    def test_detects_at_minus_10db(self):
        rng = np.random.default_rng(1)
        detector = FastPrachDetector(root=25)
        p = detection_probability(detector, -10.0, rng, trials=30)
        assert p >= 0.95

    def test_misses_in_deep_noise(self):
        rng = np.random.default_rng(2)
        detector = FastPrachDetector(root=25)
        p = detection_probability(detector, -25.0, rng, trials=30)
        assert p <= 0.2

    def test_low_false_alarm_rate(self):
        rng = np.random.default_rng(3)
        detector = FastPrachDetector(root=25)
        assert false_alarm_rate(detector, rng, trials=150) <= 0.02

    def test_works_for_any_cyclic_shift(self):
        # The fast detector must not care which signature number was sent.
        rng = np.random.default_rng(4)
        detector = FastPrachDetector(root=25)
        for shift in (0, 7, 100, 500):
            window = transmit_preamble(
                PrachPreamble(25, shift), snr_db=0.0, rng=rng
            )
            assert detector.detect(window).detected

    def test_works_for_any_delay(self):
        rng = np.random.default_rng(5)
        detector = FastPrachDetector(root=25)
        for delay in (0, 50, 400, 800):
            window = transmit_preamble(
                PrachPreamble(25, 0), snr_db=0.0, rng=rng, delay_samples=delay
            )
            result = detector.detect(window)
            assert result.detected
            assert result.cyclic_shift == delay

    def test_blind_to_other_roots(self):
        # Correlating against the wrong root gives flat output (by the ZC
        # cross-correlation property) and must not fire.
        rng = np.random.default_rng(6)
        detector = FastPrachDetector(root=25)
        window = transmit_preamble(PrachPreamble(34, 0), snr_db=10.0, rng=rng)
        assert not detector.detect(window).detected

    def test_batch_matches_single(self):
        rng = np.random.default_rng(7)
        detector = FastPrachDetector(root=25)
        windows = np.stack(
            [
                transmit_preamble(PrachPreamble(25, 3), -10.0, rng),
                noise_only_window(ZC_LENGTH, rng),
                transmit_preamble(PrachPreamble(25, 9), -10.0, rng, delay_samples=40),
            ]
        )
        flags = detector.detect_batch(windows)
        singles = [detector.detect(w).detected for w in windows]
        assert list(flags) == singles

    def test_batch_shape_validated(self):
        detector = FastPrachDetector(root=25)
        with pytest.raises(ValueError):
            detector.detect_batch(np.zeros((3, 100), dtype=complex))


class TestNaiveDetector:
    def test_identifies_root(self):
        rng = np.random.default_rng(8)
        detector = NaivePrachDetector(candidate_roots=[25, 34, 120])
        window = transmit_preamble(PrachPreamble(34, 5), snr_db=0.0, rng=rng)
        result = detector.detect(window)
        assert result.detected
        assert result.root == 34

    def test_complexity_scales_with_root_count(self):
        rng = np.random.default_rng(9)
        window = noise_only_window(ZC_LENGTH, rng)
        small = NaivePrachDetector(candidate_roots=[25]).detect(window)
        large = NaivePrachDetector(candidate_roots=list(range(20, 36))).detect(window)
        assert large.complex_macs == pytest.approx(16 * small.complex_macs, rel=0.01)

    def test_fast_detector_is_cheaper(self):
        rng = np.random.default_rng(10)
        window = noise_only_window(ZC_LENGTH, rng)
        naive = NaivePrachDetector(candidate_roots=list(range(20, 36))).detect(window)
        fast = FastPrachDetector(root=25).detect(window)
        assert naive.complex_macs / fast.complex_macs > 10.0

    def test_requires_candidates(self):
        with pytest.raises(ValueError):
            NaivePrachDetector(candidate_roots=[])


class TestChannel:
    def test_snr_controls_noise_power(self):
        rng = np.random.default_rng(11)
        quiet = transmit_preamble(PrachPreamble(25, 0), snr_db=30.0, rng=rng)
        noisy = transmit_preamble(PrachPreamble(25, 0), snr_db=-10.0, rng=rng)
        clean = PrachPreamble(25, 0).samples()
        assert np.linalg.norm(quiet - clean) < np.linalg.norm(noisy - clean)

    def test_noise_window_power(self):
        rng = np.random.default_rng(12)
        window = noise_only_window(10_000, rng, noise_power=2.0)
        assert np.mean(np.abs(window) ** 2) == pytest.approx(2.0, rel=0.1)
