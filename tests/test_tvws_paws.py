"""Unit tests for the PAWS protocol layer."""

from repro.tvws.channels import US_CHANNEL_PLAN
from repro.tvws.database import Incumbent, SpectrumDatabase
from repro.tvws.paws import (
    AUTHORITATIVE_DENIALS,
    AvailableSpectrumRequest,
    DeviceDescriptor,
    ERROR_MISSING,
    ERROR_OUTSIDE_COVERAGE,
    GeoLocation,
    PawsServer,
    TRANSIENT_ERRORS,
)


def _server(**db_kwargs):
    return PawsServer(SpectrumDatabase(US_CHANNEL_PLAN, **db_kwargs))


def _request(x=0.0, y=0.0, t=0.0, serial="ap-1"):
    return AvailableSpectrumRequest(
        device=DeviceDescriptor(serial_number=serial),
        location=GeoLocation(x=x, y=y),
        request_time=t,
    )


class TestInit:
    def test_init_returns_ruleset(self):
        server = _server()
        response = server.init_device(DeviceDescriptor("ap-1"))
        assert response["rulesetInfos"][0]["rulesetId"] == "ETSI-EN-301-598"


class TestAvailableSpectrum:
    def test_returns_all_channels_when_clear(self):
        server = _server()
        response = server.available_spectrum(_request())
        assert response.ok
        assert len(response.spectra) == len(US_CHANNEL_PLAN)

    def test_excludes_incumbent_channels(self):
        server = _server()
        server.database.register_incumbent(Incumbent("tv", 20, 0, 0, 1000.0))
        response = server.available_spectrum(_request())
        assert 20 not in response.channel_numbers()
        assert 21 in response.channel_numbers()

    def test_spectrum_spec_fields(self):
        server = _server(lease_duration_s=100.0)
        response = server.available_spectrum(_request(t=50.0))
        spec = response.spec_for(14)
        assert spec.low_hz == 470e6
        assert spec.high_hz == 476e6
        assert spec.max_eirp_dbm == 36.0
        assert spec.expires_at == 150.0

    def test_outside_coverage_rejected(self):
        server = PawsServer(
            SpectrumDatabase(US_CHANNEL_PLAN), coverage_area_m=1000.0
        )
        response = server.available_spectrum(_request(x=5000.0))
        assert not response.ok
        assert response.error_code == ERROR_OUTSIDE_COVERAGE
        assert response.spectra == []

    def test_spec_for_missing_channel(self):
        server = _server()
        server.database.withdraw_channel(14)
        response = server.available_spectrum(_request())
        assert response.spec_for(14) is None


class TestNotifications:
    def test_use_notification_recorded(self):
        server = _server()
        device = DeviceDescriptor("ap-1")
        server.notify_spectrum_use(device, 20, now=42.0)
        notes = server.use_notifications
        assert len(notes) == 1
        assert notes[0]["channel"] == 20
        assert notes[0]["time"] == 42.0

    def test_notifications_are_copies(self):
        server = _server()
        server.notify_spectrum_use(DeviceDescriptor("ap-1"), 20, now=1.0)
        notes = server.use_notifications
        notes.clear()
        assert len(server.use_notifications) == 1


class TestSerialisation:
    def test_request_to_json_shape(self):
        body = _request(x=10.0, y=20.0, t=5.0).to_json()
        assert body["method"] == "spectrum.paws.getSpectrum"
        assert body["deviceDesc"]["serialNumber"] == "ap-1"
        assert body["location"]["point"]["center"] == {"x": 10.0, "y": 20.0}

    def test_device_descriptor_types(self):
        fixed = DeviceDescriptor("ap", device_type="A").to_json()
        assert fixed["etsiEnDeviceType"] == "A"

    def test_spectrum_spec_json(self):
        server = _server()
        spec = server.available_spectrum(_request()).spectra[0]
        body = spec.to_json()
        assert body["frequencyRange"]["startHz"] == spec.low_hz
        assert body["maxPowerDBm"] == spec.max_eirp_dbm


class TestCoverageBounds:
    def test_negative_coordinates_rejected(self):
        # Regression: the coverage check used to accept the whole
        # [-coverage, +coverage]^2 square, contradicting the documented
        # [0, coverage]^2 service area.
        server = PawsServer(
            SpectrumDatabase(US_CHANNEL_PLAN), coverage_area_m=1000.0
        )
        for x, y in [(-1.0, 0.0), (0.0, -1.0), (-500.0, -500.0)]:
            response = server.available_spectrum(_request(x=x, y=y))
            assert not response.ok
            assert response.error_code == ERROR_OUTSIDE_COVERAGE

    def test_coverage_corners_accepted(self):
        server = PawsServer(
            SpectrumDatabase(US_CHANNEL_PLAN), coverage_area_m=1000.0
        )
        assert server.available_spectrum(_request(x=0.0, y=0.0)).ok
        assert server.available_spectrum(_request(x=1000.0, y=1000.0)).ok


class TestLeaseChurn:
    def test_discovery_polls_do_not_create_leases(self):
        server = _server()
        for k in range(10):
            response = server.available_spectrum(_request(t=float(k)))
            assert response.ok
        assert server.database.lease_table_size == 0

    def test_hundred_polls_keep_one_lease(self):
        server = _server()
        device = DeviceDescriptor(serial_number="ap-1")
        server.init_device(device)
        response = server.available_spectrum(_request(t=0.0))
        channel = response.channel_numbers()[0]
        server.notify_spectrum_use(device, channel, now=0.0)
        for k in range(1, 101):
            response = server.available_spectrum(_request(t=float(k)))
            assert response.ok
            assert channel in response.channel_numbers()
        assert server.database.lease_table_size == 1

    def test_renewal_extends_expiry(self):
        server = _server(lease_duration_s=100.0)
        device = DeviceDescriptor(serial_number="ap-1")
        server.notify_spectrum_use(device, 14, now=0.0)
        first = server.available_spectrum(_request(t=10.0))
        later = server.available_spectrum(_request(t=50.0))
        assert first.spec_for(14).expires_at == 110.0
        assert later.spec_for(14).expires_at == 150.0
        assert server.database.lease_table_size == 1

    def test_channel_switch_keeps_lease_table_bounded(self):
        server = _server()
        device = DeviceDescriptor(serial_number="ap-1")
        server.notify_spectrum_use(device, 14, now=0.0)
        server.available_spectrum(_request(t=1.0))
        server.notify_spectrum_use(device, 21, now=2.0)
        for k in range(3, 53):
            server.available_spectrum(_request(t=float(k)))
        # At most the stale lease on the old channel plus the live one.
        assert server.database.lease_table_size <= 2

    def test_quotes_match_granted_terms(self):
        server = _server(lease_duration_s=100.0)
        device = DeviceDescriptor(serial_number="ap-1")
        server.notify_spectrum_use(device, 14, now=0.0)
        response = server.available_spectrum(_request(t=20.0))
        in_use = response.spec_for(14)
        quoted = response.spec_for(21)
        assert in_use.expires_at == quoted.expires_at == 120.0
        assert in_use.max_eirp_dbm == quoted.max_eirp_dbm

    def test_two_devices_hold_independent_leases(self):
        server = _server()
        a = DeviceDescriptor(serial_number="ap-a")
        b = DeviceDescriptor(serial_number="ap-b")
        server.notify_spectrum_use(a, 14, now=0.0)
        server.notify_spectrum_use(b, 14, now=0.0)
        for k in range(1, 21):
            server.available_spectrum(_request(t=float(k), serial="ap-a"))
            server.available_spectrum(_request(t=float(k), serial="ap-b"))
        assert server.database.lease_table_size == 2


class TestStrictMode:
    def test_lenient_mode_auto_registers(self):
        server = _server()
        response = server.available_spectrum(_request(serial="never-inited"))
        assert response.ok
        assert "never-inited" in server._registered

    def test_strict_rejects_unregistered(self):
        server = PawsServer(SpectrumDatabase(US_CHANNEL_PLAN), strict=True)
        response = server.available_spectrum(_request(serial="never-inited"))
        assert not response.ok
        assert response.error_code == ERROR_MISSING
        assert response.spectra == []
        # The device was NOT silently registered by the failed request.
        assert "never-inited" not in server._registered

    def test_strict_accepts_after_init(self):
        server = PawsServer(SpectrumDatabase(US_CHANNEL_PLAN), strict=True)
        device = DeviceDescriptor("ap-1")
        server.init_device(device)
        response = server.available_spectrum(_request(serial="ap-1"))
        assert response.ok
        assert len(response.spectra) == len(US_CHANNEL_PLAN)

    def test_missing_is_transient_not_authoritative(self):
        # A resilient client repairs ERROR_MISSING by re-sending INIT;
        # it must never be treated as a loss of authorization.
        assert ERROR_MISSING in TRANSIENT_ERRORS
        assert ERROR_MISSING not in AUTHORITATIVE_DENIALS
        assert not (TRANSIENT_ERRORS & AUTHORITATIVE_DENIALS)
