"""Unit tests for the spectrum database."""

import pytest

from repro.tvws.channels import US_CHANNEL_PLAN
from repro.tvws.database import Incumbent, SpectrumDatabase


def _db(**kwargs):
    return SpectrumDatabase(US_CHANNEL_PLAN, **kwargs)


class TestIncumbents:
    def test_inactive_before_window(self):
        inc = Incumbent("mic", 20, 0.0, 0.0, 500.0, active_from=100.0)
        assert not inc.active_at(50.0)
        assert inc.active_at(100.0)

    def test_inactive_after_window(self):
        inc = Incumbent("mic", 20, 0.0, 0.0, 500.0, active_until=100.0)
        assert inc.active_at(99.0)
        assert not inc.active_at(100.0)

    def test_protects_inside_radius_only(self):
        inc = Incumbent("tv", 20, 0.0, 0.0, 500.0)
        assert inc.protects(300.0, 0.0, 0.0)
        assert not inc.protects(600.0, 0.0, 0.0)

    def test_register_validates_channel(self):
        db = _db()
        with pytest.raises(KeyError):
            db.register_incumbent(Incumbent("tv", 99, 0, 0, 100.0))


class TestAvailability:
    def test_all_available_when_empty(self):
        db = _db()
        assert len(db.available_channels(0, 0, 0.0)) == len(US_CHANNEL_PLAN)

    def test_incumbent_blocks_channel_locally(self):
        db = _db()
        db.register_incumbent(Incumbent("tv", 20, 0.0, 0.0, 1000.0))
        assert not db.channel_available(20, 100.0, 0.0, 0.0)
        assert db.channel_available(20, 5000.0, 0.0, 0.0)
        assert db.channel_available(21, 100.0, 0.0, 0.0)

    def test_time_bounded_incumbent(self):
        db = _db()
        db.register_incumbent(
            Incumbent("mic", 20, 0, 0, 1000.0, active_from=50.0, active_until=100.0)
        )
        assert db.channel_available(20, 0, 0, 0.0)
        assert not db.channel_available(20, 0, 0, 75.0)
        assert db.channel_available(20, 0, 0, 150.0)

    def test_withdraw_and_restore(self):
        db = _db()
        db.withdraw_channel(20)
        assert not db.channel_available(20, 0, 0, 0.0)
        db.restore_channel(20)
        assert db.channel_available(20, 0, 0, 0.0)

    def test_withdraw_unknown_channel_raises(self):
        with pytest.raises(KeyError):
            _db().withdraw_channel(99)


class TestLeases:
    def test_grant_on_available_channel(self):
        db = _db(lease_duration_s=600.0)
        lease = db.grant_lease("ap-1", 20, 0, 0, 100.0)
        assert lease is not None
        assert lease.expires_at == 700.0
        assert lease.valid_at(699.9)
        assert not lease.valid_at(700.0)

    def test_no_grant_on_blocked_channel(self):
        db = _db()
        db.withdraw_channel(20)
        assert db.grant_lease("ap-1", 20, 0, 0, 0.0) is None

    def test_lease_clipped_to_incumbent_start(self):
        db = _db(lease_duration_s=3600.0)
        db.register_incumbent(
            Incumbent("mic", 20, 0, 0, 1000.0, active_from=500.0)
        )
        lease = db.grant_lease("ap-1", 20, 0, 0, 100.0)
        assert lease is not None
        assert lease.expires_at == 500.0

    def test_lease_not_clipped_for_distant_incumbent(self):
        db = _db(lease_duration_s=3600.0)
        db.register_incumbent(
            Incumbent("mic", 20, 10_000.0, 0, 1000.0, active_from=500.0)
        )
        lease = db.grant_lease("ap-1", 20, 0, 0, 100.0)
        assert lease.expires_at == 3700.0

    def test_revalidation_catches_withdrawal(self):
        db = _db()
        lease = db.grant_lease("ap-1", 20, 0, 0, 0.0)
        assert db.lease_still_valid(lease, 10.0)
        db.withdraw_channel(20)
        assert not db.lease_still_valid(lease, 11.0)

    def test_revalidation_catches_expiry(self):
        db = _db(lease_duration_s=100.0)
        lease = db.grant_lease("ap-1", 20, 0, 0, 0.0)
        assert not db.lease_still_valid(lease, 150.0)

    def test_query_count_tracks_grants(self):
        db = _db()
        db.grant_lease("ap-1", 20, 0, 0, 0.0)
        db.grant_lease("ap-2", 21, 0, 0, 0.0)
        assert db.query_count == 2

    def test_bad_lease_duration_rejected(self):
        with pytest.raises(ValueError):
            _db(lease_duration_s=0.0)
