"""One run configuration: the per-job settings every layer reads.

SLFE takes its per-job settings — backend, workers, fault tolerance,
store — once per job.  Here they are one frozen :class:`RunConfig`,
current for the whole process, so a CLI flag reaches engines, pools and
stores built deep inside experiment drivers without a parameter
threaded through every driver:

* :func:`configured` sets fields for the duration of a ``with`` body,
  validating every override before anything changes, and restores the
  exact previous config on exit, also when the body raises;
* :func:`current` returns the config in force;
* :func:`resolve` answers one scalar knob from the :data:`KNOBS` table,
  in the order explicit argument > configured > environment variable >
  default.  A blank environment value counts as unset; a bad value is
  an :class:`EngineError` naming its source (the argument or the
  variable).

Object fields (``recorder``, ``store``, ``live_plane``, ``fault_plan``)
are read straight from :func:`current`; ``None`` means "none".  Scalar
fields hold ``None`` until configured, so :func:`resolve` can fall
through to the environment and the default.
"""

from __future__ import annotations

import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, NamedTuple, Optional

from repro.errors import EngineError
from repro.trace.recorder import NULL_RECORDER, Recorder

__all__ = [
    "BACKENDS",
    "RunConfig",
    "Knob",
    "KNOBS",
    "current",
    "install",
    "configured",
    "resolve",
    "positive_float",
    "integer_at_least",
]

#: Recognised execution backends for the SLFE engine family.
BACKENDS = ("serial", "parallel", "ooc")

Validator = Callable[[Any, str], Any]


def positive_float(unit: str, zero_ok: bool = False) -> Validator:
    """Validator: a positive (with ``zero_ok``, non-negative), finite
    number of ``unit``."""

    def check(value: Any, source: str) -> float:
        bad = EngineError(
            "%s must be a %s number of %s (got %r)"
            % (source, "non-negative" if zero_ok else "positive", unit,
               value)
        )
        if isinstance(value, bool):
            raise bad
        try:
            number = float(value)
        except (TypeError, ValueError):
            raise bad
        if not math.isfinite(number) or number < 0 or (
            number == 0 and not zero_ok
        ):
            raise bad
        return number

    return check


def integer_at_least(k: int) -> Validator:
    """Validator: an integer >= ``k``, given as an int or a decimal str
    (never a bool or a float)."""

    def check(value: Any, source: str) -> int:
        bad = EngineError(
            "%s must be an integer >= %d (got %r)" % (source, k, value)
        )
        if isinstance(value, bool):
            raise bad
        if isinstance(value, str):
            try:
                value = int(value.strip())
            except ValueError:
                raise bad
        if not isinstance(value, numbers.Integral) or value < k:
            raise bad
        return int(value)

    return check


def _backend(value: Any, source: str) -> str:
    if value not in BACKENDS:
        raise EngineError(
            "unknown %s %r (choose from %s)"
            % (source, value, ", ".join(BACKENDS))
        )
    return str(value)


class Knob(NamedTuple):
    """One scalar run setting: how it is checked and where it falls back."""

    #: names an explicit or configured value in error messages
    label: str
    validate: Validator
    #: environment variable consulted below a configured value, or None
    env: Optional[str]
    default: Any


KNOBS: Dict[str, Knob] = {
    # Snapshot every N supersteps; 0 keeps only the superstep-0 snapshot
    # a fault-tolerant run needs as its rollback floor.
    "checkpoint_every": Knob(
        "checkpoint_every", integer_at_least(0), None, 0
    ),
    "backend": Knob("backend", _backend, None, "serial"),
    "num_workers": Knob("num_workers", integer_at_least(1), None, 1),
    # Generous: a worker reply only lags while the worker still holds
    # unfinished blocks of the current superstep.
    "reply_timeout": Knob(
        "parallel reply timeout", positive_float("seconds"),
        "REPRO_PARALLEL_TIMEOUT", 120.0,
    ),
    # Respawns per run before the pool degrades to inline execution.
    "max_respawns": Knob(
        "parallel respawn budget", integer_at_least(0),
        "REPRO_PARALLEL_MAX_RESPAWNS", 2,
    ),
    # Uncompressed shard payload target: the resident working set (one
    # shard plus a few cached neighbours) stays far below a real graph's
    # edge arrays, while per-shard decompression stays negligible next
    # to the kernels.
    "shard_mb": Knob(
        "shard size", positive_float("MiB"), "REPRO_SHARD_MB", 8.0
    ),
    # Decoded shards kept per stream: two is the working-set minimum
    # (current + read-ahead); four absorbs the pull loop re-touching a
    # recent destination range without re-decoding.
    "shard_cache": Knob(
        "shard cache", integer_at_least(1), "REPRO_SHARD_CACHE", 4
    ),
}


@dataclass(frozen=True)
class RunConfig:
    """The settings in force for the jobs of one run."""

    recorder: Recorder = NULL_RECORDER
    #: :class:`repro.store.ArtifactStore`, or None: caching off
    store: Any = None
    #: :class:`repro.obs.live.LiveTelemetryPlane`, or None
    live_plane: Any = None
    #: :class:`repro.cluster.faults.FaultPlan`, or None
    fault_plan: Any = None
    checkpoint_every: Optional[int] = None
    backend: Optional[str] = None
    num_workers: Optional[int] = None
    reply_timeout: Optional[float] = None
    max_respawns: Optional[int] = None
    shard_mb: Optional[float] = None
    shard_cache: Optional[int] = None


_CURRENT = RunConfig()


def current() -> RunConfig:
    """The run configuration in force."""
    return _CURRENT


def install(**overrides: Any) -> RunConfig:
    """Apply ``overrides`` to the current config; returns the one it replaced.

    Every override is validated first, so a rejected call changes
    nothing.  Prefer :func:`configured`, which also restores.
    """
    global _CURRENT
    for name, value in overrides.items():
        knob = KNOBS.get(name)
        if knob is not None and value is not None:
            overrides[name] = knob.validate(value, knob.label)
    if "recorder" in overrides and overrides["recorder"] is None:
        overrides["recorder"] = NULL_RECORDER
    previous = _CURRENT
    _CURRENT = replace(previous, **overrides)
    return previous


@contextmanager
def configured(**overrides: Any) -> Iterator[RunConfig]:
    """Run a ``with`` body under ``overrides``, then restore exactly."""
    global _CURRENT
    previous = install(**overrides)
    try:
        yield _CURRENT
    finally:
        _CURRENT = previous


def resolve(name: str, explicit: Any = None) -> Any:
    """Knob ``name``: explicit > configured > environment > default."""
    knob = KNOBS[name]
    if explicit is not None:
        return knob.validate(explicit, knob.label)
    configured_value = getattr(_CURRENT, name)
    if configured_value is not None:
        return configured_value
    raw = os.environ.get(knob.env, "") if knob.env else ""
    if raw.strip():
        return knob.validate(raw, knob.env)
    return knob.default
