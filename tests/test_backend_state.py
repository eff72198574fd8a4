"""Configured backend state and worker-count validation at every entry point.

The configured ``(backend, num_workers)`` pair is process-global, so any
code path that sets it and fails to restore the *previous* value leaks
state into unrelated tests and drivers.  These tests pin the
restore-exactly semantics of :func:`repro.runconfig.configured` for the
backend pair and assert that every entry point — CLI flags,
:class:`SLFEEngine`, :func:`run_workload`, :class:`ParallelExecutor` —
rejects a bad worker count (zero, negative, bool, float) with a
one-line typed error before any work starts.
"""

import pytest

from repro import parallel
from repro.errors import EngineError
from repro.runconfig import configured, current, install, resolve


def _pair():
    return resolve("backend"), resolve("num_workers")


@pytest.fixture(autouse=True)
def _restore_config():
    with configured():
        yield


class TestBackendInstalled:
    def test_restores_previous_state(self):
        install(backend="parallel", num_workers=3)
        with configured(backend="serial", num_workers=1):
            assert _pair() == ("serial", 1)
        assert _pair() == ("parallel", 3)

    def test_restores_on_exception(self):
        install(backend="parallel", num_workers=2)
        with pytest.raises(RuntimeError):
            with configured(backend="serial", num_workers=1):
                raise RuntimeError("body failed")
        assert _pair() == ("parallel", 2)

    def test_nested_installs_unwind_in_order(self):
        with configured(backend="parallel", num_workers=2):
            with configured(backend="parallel", num_workers=4):
                assert _pair() == ("parallel", 4)
            assert _pair() == ("parallel", 2)
        assert _pair() == ("serial", 1)

    def test_install_backend_returns_previous_pair(self):
        previous = install(backend="parallel", num_workers=2)
        assert (previous.backend, previous.num_workers) == (None, None)
        previous = install(backend="serial", num_workers=1)
        assert (previous.backend, previous.num_workers) == ("parallel", 2)

    def test_rejected_install_leaves_state_untouched(self):
        install(backend="parallel", num_workers=2)
        before = current()
        for bad in (0, -1, 1.5, True):
            with pytest.raises(EngineError):
                install(backend="parallel", num_workers=bad)
            assert current() == before
        with pytest.raises(EngineError):
            install(backend="threads", num_workers=2)
        assert current() == before


BAD_WORKER_COUNTS = (0, -1, -8, 1.5, True, False)


class TestWorkerCountValidation:
    @pytest.mark.parametrize("bad", BAD_WORKER_COUNTS)
    def test_resolve_backend_rejects(self, bad):
        with pytest.raises(EngineError):
            resolve("num_workers", bad)

    @pytest.mark.parametrize("bad", BAD_WORKER_COUNTS)
    def test_engine_rejects(self, bad):
        from repro.bench import workloads
        from repro.core.engine import SLFEEngine

        graph = workloads.load_graph("PK", scale_divisor=16000)
        with pytest.raises(EngineError):
            SLFEEngine(graph, backend="parallel", num_workers=bad)

    @pytest.mark.parametrize("bad", BAD_WORKER_COUNTS)
    def test_run_workload_rejects_before_loading_the_graph(self, bad):
        from repro.bench.runner import run_workload

        with pytest.raises(EngineError):
            run_workload("SLFE", "SSSP", "PK", scale_divisor=16000,
                         backend="parallel", workers=bad)

    @pytest.mark.parametrize("bad", BAD_WORKER_COUNTS)
    def test_executor_rejects(self, bad):
        from repro.apps.sssp import SSSP
        from repro.bench import workloads

        app = SSSP()
        run_graph = app.prepare(
            workloads.load_graph("PK", scale_divisor=16000, weighted=True)
        )
        with pytest.raises(EngineError):
            parallel.ParallelExecutor(run_graph, app, num_workers=bad)

    @pytest.mark.parametrize("bad", ["0", "-1", "2.5", "two"])
    def test_cli_rejects_with_exit_code_2(self, bad, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--app", "SSSP", "--graph", "PK",
                  "--backend", "parallel", "--workers", bad])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "workers" in err
