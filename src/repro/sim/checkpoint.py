"""Versioned checkpoint/restore for the discrete-event simulator.

A *checkpoint* captures everything a run needs to continue bit-identically:
the engine clock and event heap, every named RNG stream's generator state,
and the mutable state of each registered subsystem (selectors, schedulers,
hoppers, databases, logs, ...).  The restore protocol is *build-then-load*:

1. the driver reconstructs the object graph from its config exactly as a
   fresh run would (same constructors, same wiring, same aliasing), then
2. :meth:`CheckpointRegistry.restore` overwrites the mutable state of each
   subsystem in place.

Because generators are mutated in place (``gen.bit_generator.state = ...``)
rather than replaced, any subsystem holding a reference to a shared stream
keeps drawing from the restored state -- aliasing survives the round trip.

Event callbacks cannot be pickled portably, so the heap is serialized as
*callback tokens*: a bound method of a registered subsystem, a registry-named
driver callback, a :class:`BoundCall` (method + canonically-serialized
arguments), or a periodic wrapper.  Anything else -- a raw lambda, an
unregistered owner -- raises :class:`CheckpointError` at snapshot time,
naming the offending callback, instead of silently writing a snapshot that
cannot be restored.

Hashing: ``hash_state`` produces a SHA-256 over a canonical JSON encoding
(sorted keys, no whitespace, tagged containers), so two runs agree on a
digest iff they agree on state.  See ``docs/CHECKPOINT.md``.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import runtime as _obs_runtime
from repro.obs.profile import callback_site
from repro.sim.engine import Event, Simulator, _PeriodicCallback

#: Snapshot format version; bump on any incompatible change to the payload
#: layout or the canonical encoding (a changed encoding changes every hash).
SNAPSHOT_VERSION = 1


class CheckpointError(RuntimeError):
    """A state value or callback cannot be serialized (or restored)."""


# -- Canonical encoding -------------------------------------------------------

#: Registered dataclasses, keyed by qualified name.  Only whitelisted
#: dataclasses round-trip through snapshots; arbitrary objects are rejected
#: so a snapshot can never silently capture less than it claims.
_DATACLASSES: Dict[str, type] = {}


def register_dataclass(cls: type) -> type:
    """Whitelist ``cls`` for canonical (de)serialization.  Returns ``cls``.

    Usable as a decorator.  Reconstruction builds the instance from its
    init fields, then force-sets every field to the recorded value, so
    ``__post_init__`` recomputation cannot skew restored state.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls!r} is not a dataclass")
    _DATACLASSES[_dataclass_key(cls)] = cls
    return cls


def _dataclass_key(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def registered_dataclasses() -> Tuple[str, ...]:
    """Qualified names of all whitelisted dataclasses (for tests/docs)."""
    return tuple(sorted(_DATACLASSES))


def to_jsonable(value: Any) -> Any:
    """Encode ``value`` into the canonical JSON-compatible form.

    Tagged forms (``__map__``, ``__set__``, ``__ndarray__``, ``__dc__``)
    keep non-string keys, sets, arrays and registered dataclasses
    round-trippable; plain dicts are only used when every key is a plain
    string with no ``__`` prefix, so tags can never collide with data.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": {
                "dtype": str(value.dtype),
                "shape": list(value.shape),
                "data": value.ravel().tolist(),
            }
        }
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        items = [to_jsonable(item) for item in value]
        return {"__set__": sorted(items, key=_sort_key)}
    if isinstance(value, dict):
        if all(
            isinstance(key, str) and not key.startswith("__") for key in value
        ):
            return {key: to_jsonable(value[key]) for key in value}
        entries = [[to_jsonable(k), to_jsonable(v)] for k, v in value.items()]
        entries.sort(key=lambda kv: _sort_key(kv[0]))
        return {"__map__": entries}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        key = _dataclass_key(type(value))
        if key not in _DATACLASSES:
            raise CheckpointError(
                f"dataclass {key} is not registered for checkpointing; "
                "call repro.sim.checkpoint.register_dataclass on it"
            )
        fields = {
            f.name: to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dc__": key, "fields": fields}
    raise CheckpointError(
        f"cannot serialize {type(value).__name__} value {value!r} canonically"
    )


def _sort_key(encoded: Any) -> str:
    """Deterministic ordering key for encoded set elements / map keys."""
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def from_jsonable(value: Any) -> Any:
    """Invert :func:`to_jsonable`.  Tuples come back as lists."""
    if isinstance(value, list):
        return [from_jsonable(item) for item in value]
    if isinstance(value, dict):
        if "__ndarray__" in value:
            spec = value["__ndarray__"]
            return np.array(
                spec["data"], dtype=np.dtype(spec["dtype"])
            ).reshape(spec["shape"])
        if "__set__" in value:
            return set(from_jsonable(item) for item in value["__set__"])
        if "__map__" in value:
            return {
                from_jsonable(k): from_jsonable(v) for k, v in value["__map__"]
            }
        if "__dc__" in value:
            key = value["__dc__"]
            cls = _DATACLASSES.get(key)
            if cls is None:
                raise CheckpointError(
                    f"snapshot references unregistered dataclass {key}"
                )
            fields = {
                name: from_jsonable(v) for name, v in value["fields"].items()
            }
            init_kwargs = {
                f.name: fields[f.name]
                for f in dataclasses.fields(cls)
                if f.init and f.name in fields
            }
            obj = cls(**init_kwargs)
            for name, restored in fields.items():
                object.__setattr__(obj, name, restored)
            return obj
        return {key: from_jsonable(v) for key, v in value.items()}
    return value


def canonical_json(value: Any) -> str:
    """Canonical JSON text of ``value`` (stable across runs and platforms)."""
    return json.dumps(to_jsonable(value), sort_keys=True, separators=(",", ":"))


def hash_state(value: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``value``."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def clone_state(value: Any) -> Any:
    """Deep, detached copy of a state tree via the canonical encoding.

    ``from_jsonable(to_jsonable(value))`` round-trips exactly the value
    population a snapshot can hold, so the copy shares no mutable storage
    with the source -- the property the shard supervisor relies on when it
    pins a merged checkpoint for later worker respawns while the live
    simulators keep mutating their state in place.  Tuples come back as
    lists, matching what a disk round trip would produce.
    """
    return from_jsonable(to_jsonable(value))


# -- Deferred calls ------------------------------------------------------------


class BoundCall:
    """A serializable deferred call: ``getattr(owner, method)(*args)``.

    Drivers and subsystems schedule these instead of argument-capturing
    lambdas; the snapshot records the owner's registry name, the method
    name, and the canonically-encoded arguments.
    """

    def __init__(self, owner: Any, method: str, *args: Any) -> None:
        if not callable(getattr(owner, method, None)):
            raise CheckpointError(
                f"{type(owner).__name__} has no callable {method!r}"
            )
        self.owner = owner
        self.method = method
        self.args = args
        # Instance attribute so callback_site() (traces, profiles,
        # Event.__repr__) names the target instead of a memory address.
        self.__qualname__ = f"{type(owner).__name__}.{method}"

    def __call__(self) -> Any:
        return getattr(self.owner, self.method)(*self.args)

    def __repr__(self) -> str:
        return f"BoundCall({type(self.owner).__name__}.{self.method}, args={self.args!r})"


# -- Snapshot payload ---------------------------------------------------------


@dataclasses.dataclass
class Snapshot:
    """One saved simulator state (already in canonical JSON-able form)."""

    version: int
    time: float
    sim: Optional[Dict[str, Any]]
    subsystems: Dict[str, Any]
    hashes: Dict[str, str]
    meta: Dict[str, Any]

    def digest(self) -> str:
        """Run digest: SHA-256 over the per-subsystem hash map."""
        return hashlib.sha256(
            json.dumps(self.hashes, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()

    def to_payload(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "time": self.time,
            "sim": self.sim,
            "subsystems": self.subsystems,
            "hashes": self.hashes,
            "meta": self.meta,
        }

    def save(self, path: str) -> None:
        """Write the snapshot as sorted-key JSON."""
        tel = _obs_runtime.active()
        with open(path, "w") as handle:
            json.dump(self.to_payload(), handle, sort_keys=True)
            handle.write("\n")
        if tel is not None:
            tel.inc("checkpoint.saved")

    @classmethod
    def load(cls, path: str) -> "Snapshot":
        """Read a snapshot written by :meth:`save`."""
        with open(path) as handle:
            payload = json.load(handle)
        if payload.get("version") != SNAPSHOT_VERSION:
            raise CheckpointError(
                f"snapshot {path} has version {payload.get('version')!r}; "
                f"this build reads version {SNAPSHOT_VERSION}"
            )
        tel = _obs_runtime.active()
        if tel is not None:
            tel.inc("checkpoint.loaded")
        return cls(
            version=payload["version"],
            time=payload["time"],
            sim=payload.get("sim"),
            subsystems=payload["subsystems"],
            hashes=payload.get("hashes", {}),
            meta=payload.get("meta", {}),
        )


def latest_checkpoint(directory: str) -> Optional[str]:
    """Path of the newest ``ckpt_*.json`` in ``directory``, or ``None``.

    Snapshot filenames embed a zero-padded position (sim time or epoch),
    so the lexicographic maximum is the latest checkpoint.
    """
    if not os.path.isdir(directory):
        return None
    paths = glob.glob(os.path.join(directory, "ckpt_*.json"))
    return max(paths) if paths else None


# -- Registry -----------------------------------------------------------------


class CheckpointRegistry:
    """Names the checkpointable parts of one run and snapshots them.

    The registry is rebuilt (identically) by the driver on every run; a
    snapshot stores only *names* plus state, never object references, so
    restore works in a fresh process.  A subsystem provides
    ``state_dict()`` (all mutable state, canonically serializable) and
    ``load_state(state)``; one holding live :class:`Event` references
    also provides ``link_events(lookup)``.
    """

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self._sim = sim
        self._subsystems: Dict[str, Any] = {}
        self._order: List[str] = []
        self._callbacks: Dict[str, Callable[[], None]] = {}
        self._callback_names: Dict[int, str] = {}
        self._owner_names: Dict[int, str] = {}

    @property
    def sim(self) -> Optional[Simulator]:
        return self._sim

    def register(self, name: str, subsystem: Any) -> Any:
        """Register ``subsystem`` under ``name``.  Returns the subsystem."""
        if name in self._subsystems:
            raise CheckpointError(f"subsystem name {name!r} already registered")
        for method in ("state_dict", "load_state"):
            if not callable(getattr(subsystem, method, None)):
                raise CheckpointError(
                    f"{type(subsystem).__name__} lacks {method}(); "
                    "it cannot be checkpointed"
                )
        self._subsystems[name] = subsystem
        self._order.append(name)
        self._owner_names[id(subsystem)] = name
        return subsystem

    def register_callback(self, name: str, fn: Callable[[], None]) -> Callable[[], None]:
        """Name a driver-level callback so the event heap can reference it."""
        if name in self._callbacks:
            raise CheckpointError(f"callback name {name!r} already registered")
        self._callbacks[name] = fn
        self._callback_names[id(fn)] = name
        return fn

    def subsystems(self) -> Dict[str, Any]:
        """Registered subsystems by name (insertion order preserved)."""
        return dict(self._subsystems)

    # -- callback tokens --

    def encode_callback(self, callback: Callable[[], None]) -> List[Any]:
        """Turn a live callback into its snapshot token."""
        if isinstance(callback, _PeriodicCallback):
            return ["periodic", callback.interval,
                    self.encode_callback(callback.callback)]
        if isinstance(callback, BoundCall):
            name = self._owner_names.get(id(callback.owner))
            if name is None:
                raise CheckpointError(
                    f"BoundCall owner {type(callback.owner).__name__} is not "
                    f"a registered subsystem (callback {callback!r})"
                )
            return ["call", name, callback.method, to_jsonable(callback.args)]
        owner = getattr(callback, "__self__", None)
        if owner is not None:
            name = self._owner_names.get(id(owner))
            if name is not None:
                return ["method", name, callback.__name__]
        name = self._callback_names.get(id(callback))
        if name is not None:
            return ["named", name]
        raise CheckpointError(
            "cannot serialize event callback "
            f"{callback_site(callback)}: not a bound method of a registered "
            "subsystem, a registered named callback, a BoundCall, or a "
            "periodic wrapper"
        )

    def decode_callback(self, token: List[Any]) -> Callable[[], None]:
        """Invert :meth:`encode_callback` against this registry."""
        kind = token[0]
        if kind == "periodic":
            if self._sim is None:
                raise CheckpointError("periodic token needs a registered sim")
            return _PeriodicCallback(
                self._sim, token[1], self.decode_callback(token[2])
            )
        if kind == "call":
            owner = self._lookup(token[1])
            args = from_jsonable(token[3])
            return BoundCall(owner, token[2], *args)
        if kind == "method":
            owner = self._lookup(token[1])
            method = getattr(owner, token[2], None)
            if not callable(method):
                raise CheckpointError(
                    f"subsystem {token[1]!r} has no method {token[2]!r}"
                )
            return method
        if kind == "named":
            fn = self._callbacks.get(token[1])
            if fn is None:
                raise CheckpointError(
                    f"snapshot references unregistered callback {token[1]!r}"
                )
            return fn
        raise CheckpointError(f"unknown callback token kind {kind!r}")

    def _lookup(self, name: str) -> Any:
        subsystem = self._subsystems.get(name)
        if subsystem is None:
            raise CheckpointError(
                f"snapshot references unregistered subsystem {name!r}"
            )
        return subsystem

    # -- snapshot / restore --

    def state_hashes(self) -> Dict[str, str]:
        """Per-subsystem SHA-256 hashes (plus ``sim`` when registered)."""
        hashes: Dict[str, str] = {}
        if self._sim is not None:
            hashes["sim"] = hash_state(self._sim.state_dict(self.encode_callback))
        for name in self._order:
            hashes[name] = hash_state(self._subsystems[name].state_dict())
        return hashes

    def run_digest(self) -> str:
        """SHA-256 digest over all subsystem hashes -- one line per run."""
        return hashlib.sha256(
            json.dumps(
                self.state_hashes(), sort_keys=True, separators=(",", ":")
            ).encode()
        ).hexdigest()

    def snapshot(self, meta: Optional[Dict[str, Any]] = None) -> Snapshot:
        """Capture the full run state as a :class:`Snapshot`."""
        tel = _obs_runtime.active()
        sim_state = None
        now = 0.0
        if self._sim is not None:
            sim_state = self._sim.state_dict(self.encode_callback)
            now = self._sim.now
        subsystems = {}
        hashes = {}
        if sim_state is not None:
            hashes["sim"] = hash_state(sim_state)
        for name in self._order:
            subsystem = self._subsystems[name]
            # Hash the *raw* state, not the encoded form: to_jsonable is
            # not idempotent (a tagged dict re-encodes as __map__), so
            # hashing the encoding would disagree with state_hashes().
            raw = subsystem.state_dict()
            subsystems[name] = to_jsonable(raw)
            hashes[name] = hash_state(raw)
        snap = Snapshot(
            version=SNAPSHOT_VERSION,
            time=now,
            sim=sim_state,
            subsystems=subsystems,
            hashes=hashes,
            meta=dict(meta or {}),
        )
        if tel is not None:
            tel.inc("checkpoint.snapshots")
            if tel.tracer is not None:
                tel.event(
                    "checkpoint.snapshot",
                    cat="checkpoint",
                    t=now,
                    args={"digest": snap.digest()[:16]},
                )
        return snap

    def restore(self, snapshot: Snapshot) -> None:
        """Overwrite all registered state from ``snapshot`` (build-then-load).

        The object graph must already exist, wired exactly as a fresh run
        would wire it; this only replaces mutable state, then re-binds any
        subsystem-held event references via ``link_events``.
        """
        if snapshot.version != SNAPSHOT_VERSION:
            raise CheckpointError(
                f"snapshot version {snapshot.version} != {SNAPSHOT_VERSION}"
            )
        missing = [n for n in snapshot.subsystems if n not in self._subsystems]
        if missing:
            raise CheckpointError(
                f"snapshot has state for unregistered subsystems: {missing}"
            )
        lookup: Dict[int, Event] = {}
        if snapshot.sim is not None:
            if self._sim is None:
                raise CheckpointError(
                    "snapshot contains engine state but no sim is registered"
                )
            lookup = self._sim.load_state(snapshot.sim, self.decode_callback)
        for name in self._order:
            if name not in snapshot.subsystems:
                continue
            state = from_jsonable(snapshot.subsystems[name])
            self._subsystems[name].load_state(state)
        for name in self._order:
            subsystem = self._subsystems[name]
            link = getattr(subsystem, "link_events", None)
            if callable(link):
                link(lookup)
        tel = _obs_runtime.active()
        if tel is not None:
            tel.inc("checkpoint.restored")


# Registered here rather than in repro.obs.record: the obs package must
# stay importable without the sim layer (engine telemetry would otherwise
# create an import cycle through the package __init__).
from repro.obs.record import Record as _Record  # noqa: E402

register_dataclass(_Record)
