"""TV channel plans for the white-space bands.

TV channels are 6 MHz wide in the US and 8 MHz wide in the EU (paper
Section 3.1).  The UHF white-space range relevant to ETSI EN 301 598 is
470-790 MHz; the US plan covers channels 14-51 (470-698 MHz, post incentive
auction).  LTE carriers of 5/10/15/20 MHz are fitted into one or more
*contiguous* available TV channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class TvChannel:
    """One broadcast TV channel.

    Attributes:
        number: channel number in the regional plan.
        low_hz / high_hz: band edges.
    """

    number: int
    low_hz: float
    high_hz: float

    @property
    def bandwidth_hz(self) -> float:
        """Channel width in hertz."""
        return self.high_hz - self.low_hz

    @property
    def center_hz(self) -> float:
        """Channel centre frequency in hertz."""
        return (self.low_hz + self.high_hz) / 2.0

    def overlaps(self, low_hz: float, high_hz: float) -> bool:
        """Whether this channel overlaps the range [low_hz, high_hz)."""
        return self.low_hz < high_hz and low_hz < self.high_hz


class ChannelPlan:
    """An ordered set of contiguous TV channels.

    Args:
        name: plan label ("US", "EU").
        first_channel: number of the first channel.
        n_channels: how many consecutive channels the plan contains.
        start_hz: lower band edge of the first channel.
        channel_width_hz: per-channel width (6 MHz US, 8 MHz EU).
    """

    def __init__(
        self,
        name: str,
        first_channel: int,
        n_channels: int,
        start_hz: float,
        channel_width_hz: float,
    ) -> None:
        if n_channels <= 0:
            raise ValueError(f"plan needs at least one channel, got {n_channels}")
        if channel_width_hz <= 0:
            raise ValueError(f"channel width must be > 0, got {channel_width_hz!r}")
        self.name = name
        self.channel_width_hz = channel_width_hz
        self.channels: List[TvChannel] = [
            TvChannel(
                number=first_channel + i,
                low_hz=start_hz + i * channel_width_hz,
                high_hz=start_hz + (i + 1) * channel_width_hz,
            )
            for i in range(n_channels)
        ]
        self._by_number = {ch.number: ch for ch in self.channels}

    def channel(self, number: int) -> TvChannel:
        """Look up a channel by number.

        Raises:
            KeyError: for a number outside the plan.
        """
        if number not in self._by_number:
            raise KeyError(f"channel {number} not in plan {self.name!r}")
        return self._by_number[number]

    def __contains__(self, number: int) -> bool:
        return number in self._by_number

    def __len__(self) -> int:
        return len(self.channels)


#: US plan: 6 MHz channels 14-51 covering 470-698 MHz.
US_CHANNEL_PLAN = ChannelPlan(
    name="US", first_channel=14, n_channels=38, start_hz=470e6, channel_width_hz=6e6
)

#: EU plan: 8 MHz channels 21-60 covering 470-790 MHz (ETSI EN 301 598 band).
EU_CHANNEL_PLAN = ChannelPlan(
    name="EU", first_channel=21, n_channels=40, start_hz=470e6, channel_width_hz=8e6
)
