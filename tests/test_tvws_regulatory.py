"""Unit tests for the ETSI compliance monitor."""

from repro.tvws.regulatory import (
    EtsiComplianceRules,
    MAX_EIRP_FIXED_DBM,
    MAX_EIRP_PORTABLE_DBM,
    VACATE_DEADLINE_S,
)


class TestPowerCaps:
    def test_fixed_cap_is_36(self):
        assert MAX_EIRP_FIXED_DBM == 36.0

    def test_portable_cap_is_20(self):
        # This is why the paper's clients transmit at 20 dBm.
        assert MAX_EIRP_PORTABLE_DBM == 20.0


class TestLeaseDiscipline:
    def test_transmission_with_lease_is_compliant(self):
        monitor = EtsiComplianceRules()
        monitor.lease_granted("ap", expires_at=100.0)
        monitor.transmission_started("ap", now=10.0, eirp_dbm=30.0)
        assert monitor.compliant

    def test_transmission_without_lease_flagged(self):
        monitor = EtsiComplianceRules()
        monitor.transmission_started("ap", now=10.0, eirp_dbm=30.0)
        assert not monitor.compliant
        assert monitor.violations[0].rule == "no-valid-lease"

    def test_transmission_after_lease_expiry_flagged(self):
        monitor = EtsiComplianceRules()
        monitor.lease_granted("ap", expires_at=100.0)
        monitor.transmission_started("ap", now=150.0, eirp_dbm=30.0)
        assert not monitor.compliant

    def test_eirp_over_cap_flagged(self):
        monitor = EtsiComplianceRules()
        monitor.lease_granted("ap", expires_at=100.0)
        monitor.transmission_started("ap", now=1.0, eirp_dbm=40.0)
        assert any(v.rule == "eirp-exceeded" for v in monitor.violations)

    def test_eirp_at_cap_allowed(self):
        monitor = EtsiComplianceRules()
        monitor.lease_granted("ap", expires_at=100.0)
        monitor.transmission_started(
            "ap", now=1.0, eirp_dbm=MAX_EIRP_FIXED_DBM, max_eirp_dbm=MAX_EIRP_FIXED_DBM
        )
        assert monitor.compliant


class TestVacateDeadline:
    def test_prompt_vacate_compliant(self):
        monitor = EtsiComplianceRules()
        monitor.lease_granted("ap", expires_at=1000.0)
        monitor.transmission_started("ap", now=0.0, eirp_dbm=30.0)
        monitor.channel_lost("ap", now=100.0)
        monitor.transmission_stopped("ap", now=102.0)
        assert monitor.compliant

    def test_vacate_at_deadline_boundary(self):
        monitor = EtsiComplianceRules()
        monitor.lease_granted("ap", expires_at=1000.0)
        monitor.channel_lost("ap", now=100.0)
        monitor.transmission_stopped("ap", now=100.0 + VACATE_DEADLINE_S)
        assert monitor.compliant

    def test_late_vacate_flagged(self):
        monitor = EtsiComplianceRules()
        monitor.lease_granted("ap", expires_at=1000.0)
        monitor.channel_lost("ap", now=100.0)
        monitor.transmission_stopped("ap", now=170.0)
        assert any(v.rule == "vacate-deadline" for v in monitor.violations)

    def test_check_time_catches_lingering_transmitter(self):
        monitor = EtsiComplianceRules()
        monitor.lease_granted("ap", expires_at=1000.0)
        monitor.transmission_started("ap", now=0.0, eirp_dbm=30.0)
        monitor.channel_lost("ap", now=100.0)
        monitor.check_time(150.0)
        assert monitor.compliant  # Still within the deadline.
        monitor.channel_lost("ap", now=100.0)  # Marker survives (idempotent).
        monitor.check_time(200.0)
        assert not monitor.compliant

    def test_check_time_reports_once(self):
        monitor = EtsiComplianceRules()
        monitor.lease_granted("ap", expires_at=1000.0)
        monitor.transmission_started("ap", now=0.0, eirp_dbm=30.0)
        monitor.channel_lost("ap", now=0.0)
        monitor.check_time(100.0)
        monitor.check_time(200.0)
        assert len(monitor.violations) == 1

    def test_channel_lost_is_idempotent(self):
        monitor = EtsiComplianceRules()
        monitor.lease_granted("ap", expires_at=1000.0)
        monitor.channel_lost("ap", now=100.0)
        monitor.channel_lost("ap", now=150.0)  # Must keep the first time.
        monitor.transmission_stopped("ap", now=155.0)
        assert monitor.compliant
