"""ETSI EN 301 598 compliance rules for white-space devices.

The rules the paper's evaluation exercises (Section 6.2):

* a device must stop transmitting **within 60 seconds** of its channel
  ceasing to be available ("ETSI specifications mandate that transmissions
  should stop within one minute after the channel ceases to be available");
* no transmission without a valid lease from a spectrum database;
* EIRP must not exceed the per-channel limit from the database (and the
  36 dBm overall cap for fixed devices; portable devices are capped at
  20 dBm, which is why the paper's clients transmit at 20 dBm).

:class:`EtsiComplianceRules` doubles as a *compliance monitor*: simulators
report transmission intervals and lease events to it, and tests assert that
no violation was recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.sim.checkpoint import register_dataclass

#: ETSI EN 301 598: maximum time to vacate after channel loss, seconds.
VACATE_DEADLINE_S = 60.0

#: EIRP caps by ETSI device type, dBm.
MAX_EIRP_FIXED_DBM = 36.0
MAX_EIRP_PORTABLE_DBM = 20.0


@dataclass(frozen=True)
class ComplianceViolation:
    """A recorded breach of the regulatory rules."""

    time: float
    device_id: str
    rule: str
    detail: str


@dataclass
class _DeviceState:
    lease_expiry: Optional[float] = None
    channel_lost_at: Optional[float] = None
    transmitting: bool = False


register_dataclass(ComplianceViolation)
register_dataclass(_DeviceState)


class EtsiComplianceRules:
    """Tracks device behaviour and flags ETSI EN 301 598 violations.

    Simulated radios call :meth:`lease_granted`, :meth:`channel_lost`,
    :meth:`transmission_started` and :meth:`transmission_stopped`; the
    monitor accumulates violations for assertion in tests/benchmarks.
    """

    def __init__(self) -> None:
        self._devices: dict = {}
        self.violations: List[ComplianceViolation] = []

    def _state(self, device_id: str) -> _DeviceState:
        return self._devices.setdefault(device_id, _DeviceState())

    # -- Events reported by devices -----------------------------------------

    def lease_granted(self, device_id: str, expires_at: float) -> None:
        """Device obtained (or renewed) a channel lease."""
        state = self._state(device_id)
        state.lease_expiry = expires_at
        state.channel_lost_at = None

    def channel_lost(self, device_id: str, now: float) -> None:
        """The device's channel ceased to be available at ``now``."""
        state = self._state(device_id)
        if state.channel_lost_at is None:
            state.channel_lost_at = now

    def transmission_started(
        self,
        device_id: str,
        now: float,
        eirp_dbm: float,
        max_eirp_dbm: float = MAX_EIRP_FIXED_DBM,
    ) -> None:
        """Device keyed up; validates lease presence and power cap."""
        state = self._state(device_id)
        state.transmitting = True
        if state.lease_expiry is None or now >= state.lease_expiry:
            self._violate(
                now, device_id, "no-valid-lease", "transmission without a valid lease"
            )
        if eirp_dbm > max_eirp_dbm + 1e-9:
            self._violate(
                now,
                device_id,
                "eirp-exceeded",
                f"EIRP {eirp_dbm:.1f} dBm exceeds cap {max_eirp_dbm:.1f} dBm",
            )

    def transmission_stopped(self, device_id: str, now: float) -> None:
        """Device stopped transmitting; checks the 60 s vacate deadline."""
        state = self._state(device_id)
        state.transmitting = False
        if state.channel_lost_at is not None:
            elapsed = now - state.channel_lost_at
            if elapsed > VACATE_DEADLINE_S:
                self._violate(
                    now,
                    device_id,
                    "vacate-deadline",
                    f"vacated {elapsed:.1f} s after channel loss (> {VACATE_DEADLINE_S:.0f} s)",
                )
            state.channel_lost_at = None

    def check_time(self, now: float) -> None:
        """Periodic audit: any device still transmitting past its deadline?"""
        for device_id, state in self._devices.items():
            if (
                state.transmitting
                and state.channel_lost_at is not None
                and now - state.channel_lost_at > VACATE_DEADLINE_S
            ):
                self._violate(
                    now,
                    device_id,
                    "vacate-deadline",
                    "still transmitting past the 60 s vacate deadline",
                )
                # Record once, then reset the marker to avoid duplicate spam.
                state.channel_lost_at = None

    def _violate(self, now: float, device_id: str, rule: str, detail: str) -> None:
        self.violations.append(
            ComplianceViolation(time=now, device_id=device_id, rule=rule, detail=detail)
        )

    @property
    def compliant(self) -> bool:
        """True when no violation has been recorded."""
        return not self.violations

    # -- Checkpointing --------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Per-device monitor state plus the recorded violations."""
        return {
            "devices": dict(self._devices),
            "violations": list(self.violations),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self._devices = dict(state["devices"])
        self.violations = list(state["violations"])
