"""The CLI's knob flags are the :data:`repro.runconfig.KNOBS` rows.

Every row's flag is accepted by each workload command, a value given by
flag comes out of ``_run_config`` resolved, an unset flag resolves like
any other caller of ``resolve``, and every environment-backed row's
``--help`` entry names its variable and its default.  A row whose flag
no command adds, or whose help stops matching its default, fails here.
"""

import contextlib
import io

import pytest

from repro.cli import _run_config, build_parser, main
from repro.runconfig import KNOBS, configured, resolve

#: knob -> (flag text, its resolved value)
SAMPLES = {
    "checkpoint_every": ("5", 5),
    "backend": ("ooc", "ooc"),
    "num_workers": ("3", 3),
    "reply_timeout": ("4.5", 4.5),
    "max_respawns": ("5", 5),
    "shard_mb": ("1.5", 1.5),
    "shard_cache": ("3", 3),
}

COMMANDS = {
    "run": ["run", "sssp"],
    "trace": ["trace", "sssp"],
    "bench": ["bench", "table5"],
    "report": ["report", "--app", "SSSP"],
}


def test_samples_cover_every_row():
    assert set(SAMPLES) == set(KNOBS)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", sorted(KNOBS))
def test_every_command_takes_every_knob_flag(command, name):
    row = KNOBS[name]
    text, value = SAMPLES[name]
    assert row.flag.startswith("--") and row.metavar and row.help
    args = build_parser().parse_args(COMMANDS[command] + [row.flag, text])
    assert getattr(args, row.dest) == value
    assert _run_config(args, None, None, num_nodes=8)[name] == value


def test_unset_flags_resolve_like_resolve(monkeypatch):
    for row in KNOBS.values():
        if row.env:
            monkeypatch.delenv(row.env, raising=False)
    args = build_parser().parse_args(COMMANDS["run"])
    assert all(getattr(args, row.dest) is None for row in KNOBS.values())
    with configured(checkpoint_every=3, num_workers=2):
        overrides = _run_config(args, None, None, num_nodes=8)
        assert overrides == {
            **{name: resolve(name) for name in KNOBS},
            "recorder": None,
            "fault_plan": None,
        }
    assert (overrides["checkpoint_every"], overrides["num_workers"]) == (3, 2)


def _help(argv):
    """``argv --help`` with all whitespace removed (wrapping-proof)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as stop:
        main(argv + ["--help"])
    assert stop.value.code == 0
    return "".join(out.getvalue().split())


@pytest.mark.parametrize(
    "name", sorted(name for name, row in KNOBS.items() if row.env)
)
def test_env_backed_help_names_its_variable_and_default(name):
    row = KNOBS[name]
    entry = "%s %s %s (default: $%s, else %g)" % (
        row.flag, row.metavar, row.help, row.env, row.default
    )
    assert "".join(entry.split()) in _help(["run"])
