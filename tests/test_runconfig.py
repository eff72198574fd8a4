"""The one run configuration: every knob row resolves the same way.

Each :data:`repro.runconfig.KNOBS` row is checked for the precedence
explicit > configured > environment > default, for a blank environment
value meaning the default, for a bad value from each source naming that
source, and for :func:`repro.runconfig.configured` validating before it
changes anything and restoring exactly, nested or raising.
"""

import re

import pytest

from repro.errors import EngineError
from repro.ooc import install_ooc
from repro.runconfig import KNOBS, configured, current, resolve
from repro.store import ArtifactStore, active_store, install_store
from repro.trace.recorder import NULL_RECORDER, TraceRecorder

#: knob -> (explicit, configured, environment text, its value, bad value)
SAMPLES = {
    "checkpoint_every": (5, 4, None, None, -1),
    "backend": ("ooc", "parallel", None, None, "threads"),
    "num_workers": (3, 2, None, None, 0),
    "reply_timeout": (4.0, 9.0, "2.5", 2.5, 0),
    "max_respawns": (5, 1, "3", 3, -1),
    "shard_mb": (1.0, 2.5, "0.5", 0.5, "x"),
    "shard_cache": (3, 7, "9", 9, 0),
}

ENV_KNOBS = sorted(name for name, row in KNOBS.items() if row.env)


@pytest.fixture(params=sorted(KNOBS))
def knob(request, monkeypatch):
    row = KNOBS[request.param]
    if row.env:
        monkeypatch.delenv(row.env, raising=False)
    return request.param


def test_samples_cover_every_row():
    assert set(SAMPLES) == set(KNOBS)


def test_precedence(knob, monkeypatch):
    explicit, configured_value, env_text, env_value, _bad = SAMPLES[knob]
    row = KNOBS[knob]
    assert resolve(knob) == row.default
    if row.env:
        monkeypatch.setenv(row.env, env_text)
        assert resolve(knob) == env_value
    with configured(**{knob: configured_value}):
        assert resolve(knob) == configured_value
        assert resolve(knob, explicit) == explicit


@pytest.mark.parametrize("knob", ENV_KNOBS)
@pytest.mark.parametrize("blank", ["", "  "])
def test_blank_environment_means_default(knob, blank, monkeypatch):
    monkeypatch.setenv(KNOBS[knob].env, blank)
    assert resolve(knob) == KNOBS[knob].default


def test_bad_value_names_its_source(knob, monkeypatch):
    row = KNOBS[knob]
    bad = SAMPLES[knob][-1]
    with pytest.raises(EngineError, match=re.escape(row.label)):
        resolve(knob, bad)
    with pytest.raises(EngineError, match=re.escape(row.label)):
        with configured(**{knob: bad}):
            pass
    if row.env:
        monkeypatch.setenv(row.env, str(bad))
        with pytest.raises(EngineError, match=row.env):
            resolve(knob)


def test_rejected_configured_leaves_current_untouched(knob):
    good, bad = SAMPLES[knob][1], SAMPLES[knob][-1]
    with configured(recorder=TraceRecorder(), **{knob: good}):
        before = current()
        with pytest.raises(EngineError):
            with configured(store=object(), **{knob: bad}):
                pass
        assert current() is before


def test_nested_and_raising_bodies_restore_exactly(knob):
    inner, outer = SAMPLES[knob][0], SAMPLES[knob][1]
    start = current()
    with configured(**{knob: outer}) as config:
        assert config is current()
        with pytest.raises(RuntimeError):
            with configured(**{knob: inner}):
                assert getattr(current(), knob) == inner
                raise RuntimeError("body failed")
        assert current() is config
    assert current() is start


def test_unknown_field_is_rejected_before_any_change():
    before = current()
    with pytest.raises(TypeError):
        with configured(shard_mb=1.0, no_such_knob=1):
            pass
    assert current() is before


def test_none_recorder_means_the_null_recorder():
    with configured(recorder=TraceRecorder()):
        with configured(recorder=None):
            assert current().recorder is NULL_RECORDER


def test_kept_names_round_trip_current(tmp_path):
    store = ArtifactStore(str(tmp_path))
    start = current()
    previous_store = install_store(store)
    previous_ooc = install_ooc(0.5, 2)
    try:
        assert previous_store is start.store
        assert previous_ooc == (start.shard_mb, start.shard_cache)
        assert active_store() is store is current().store
        assert (current().shard_mb, current().shard_cache) == (0.5, 2)
    finally:
        install_ooc(*previous_ooc)
        install_store(previous_store)
    assert current() == start
