"""Unit tests for distributed share calculation (paper Section 5.2)."""

import pytest

from repro.core.interference.share import compute_share


class TestComputeShare:
    def test_sole_ap_gets_everything(self):
        # N_i == NP_i -> S_i = S.
        assert compute_share(13, 6, 6) == 13

    def test_paper_formula(self):
        # S_i = floor(N_i * S / NP_i).
        assert compute_share(13, 6, 12) == 6
        assert compute_share(13, 3, 12) == 3

    def test_zero_clients_zero_share(self):
        assert compute_share(13, 0, 20) == 0

    def test_at_least_one_when_active(self):
        # Even heavily outnumbered, a serving AP keeps one subchannel.
        assert compute_share(13, 1, 100) == 1

    def test_contender_estimate_clamped_to_own(self):
        # An AP always hears its own clients: NP < N is impossible and the
        # code must treat it as NP = N.
        assert compute_share(13, 6, 2) == 13

    def test_share_never_exceeds_carrier(self):
        assert compute_share(13, 50, 50) == 13

    def test_rounding_is_conservative(self):
        # 5 * 13 / 12 = 5.42 -> 5 (floor, not round).
        assert compute_share(13, 5, 12) == 5

    def test_neighbourhood_shares_fit(self):
        # All APs in one collision domain: their shares must fit in S.
        total_clients = 18
        shares = [
            compute_share(13, n, total_clients) for n in (6, 6, 6)
        ]
        assert sum(shares) <= 13

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_share(0, 1, 1)
        with pytest.raises(ValueError):
            compute_share(13, -1, 1)
        with pytest.raises(ValueError):
            compute_share(13, 1, -1)
