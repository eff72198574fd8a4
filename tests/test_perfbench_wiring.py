"""Every callable the stopwatch benchmark wraps is defined where it looks.

``perfbench.spans.instrument`` wraps ``vars(owner)[attr]``: the owner's
own namespace, not its MRO.  A method that moves to a base class, or a
function that is renamed, would crash every ``perfbench measure --trace
1`` run with a bare ``KeyError``.  This fails in milliseconds instead,
naming the target, without running a workload — and without touching
``perfbench/`` (a PR that claims a gain may not edit the benchmark, so
the program has to keep the names the benchmark uses).
"""

import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from perfbench import layers  # noqa: E402


def _defined(target) -> bool:
    raw = vars(target.owner).get(target.attr)
    # classmethod/staticmethod objects wrap the callable in __func__.
    return callable(getattr(raw, "__func__", raw))


def _missing(targets):
    return sorted({t.name for t in targets if not _defined(t)})


def test_setup_and_preprocess_targets_resolve():
    targets = layers.setup_targets() + layers.preprocess_targets()
    assert _missing(targets) == []


@pytest.mark.parametrize("backend", ["serial", "parallel", "ooc"])
def test_job_targets_resolve(backend):
    missing = _missing(layers.job_targets(backend))
    assert missing == [], (
        "perfbench wraps these on the %s backend but their owner does "
        "not define them: %s" % (backend, ", ".join(missing))
    )


def test_kept_ambient_names_drive_the_one_run_config(tmp_path):
    """``perfbench/workloads.py`` sets the ooc job's store and shard
    knobs through ``install_store``/``install_ooc``/``active_store``;
    those must write the same config every reader consults."""
    from perfbench import measure, workloads  # noqa: F401

    from repro.runconfig import current
    from repro.store import ArtifactStore

    store = ArtifactStore(str(tmp_path / "store"), max_bytes=None)
    before = current()
    with workloads.backend_installed(workloads.WORKLOADS["pr-ooc"], store):
        assert current().shard_mb == 0.5
        assert current().shard_cache == 2
        assert current().store is store
    assert current() == before
