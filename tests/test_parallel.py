"""Shared-memory parallel backend: pinned oracle cases and unit tests.

The backend's whole contract is *bit-identity* with the serial
superstep loops.  ``tests/test_oracle.py`` checks it on drawn graphs;
the cases here pin it on the PK stand-in: apps x RR x 1, 2 or 4
workers, a fault plan with checkpoints, and a warm artifact store.
"""

import numpy as np
import pytest

from repro.bench.runner import run_workload
from repro.cluster.faults import FaultPlan
from repro.errors import EngineError
from repro.obs import registry_from_trace
from repro.obs.report import build_report, render_markdown
from repro.runconfig import configured, current, resolve
from repro.store import ArtifactStore

from tests.conftest import pk_executor, pull_all
from tests.strategies.backends import run, stand_in
from tests.strategies.faults import Plan
from tests.test_oracle import check

SCALE = 16000  # tiny stand-in graphs: differential runs stay fast


def _case(app, backend="parallel", **fields):
    return stand_in(app, SCALE, backend=backend, num_nodes=2, **fields)


class TestDifferential:
    @pytest.mark.parametrize("app", ["SSSP", "CC", "PR"])
    @pytest.mark.parametrize("engine", ["SLFE", "SLFE-noRR"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_serial(self, app, engine, workers):
        check(_case(app, rr=engine == "SLFE", workers=workers))

    def test_four_workers(self):
        check(_case("SSSP", workers=4))

    def test_with_fault_plan_and_checkpoints(self):
        faults = FaultPlan.parse("crash@3:1,loss@2:0-1,slow@4:0x2.5",
                                 num_nodes=2)
        check(_case("SSSP", plan=Plan("node", faults, 2)))

    def test_with_warm_artifact_store(self, tmp_path):
        with configured(store=ArtifactStore(str(tmp_path))):
            run(_case("SSSP"))  # cold: populates the guidance artifact
            check(_case("SSSP"))

    def test_parallel_worker_events_recorded(self):
        _, recorder = run(_case("SSSP"))
        kinds = [event.name for event in recorder.events]
        assert "parallel_worker" in kinds


def _backend(backend=None, workers=None):
    return resolve("backend", backend), resolve("num_workers", workers)


class TestBackendResolution:
    def test_defaults_serial(self):
        assert _backend() == ("serial", 1)

    def test_explicit_wins(self):
        assert _backend("parallel", 3) == ("parallel", 3)

    def test_ambient_install(self):
        before = current()
        with configured(backend="parallel", num_workers=2):
            assert _backend() == ("parallel", 2)
            # Explicit arguments beat the configured pair per field:
            # the backend is overridden, the worker count persists.
            assert _backend("serial") == ("serial", 2)
            assert _backend("serial", 1) == ("serial", 1)
        assert current() == before

    @pytest.mark.parametrize("backend", ["threads", "", None])
    def test_unknown_backend_rejected(self, backend):
        if backend is None:
            pytest.skip("None means 'inherit', not a backend name")
        with pytest.raises(EngineError):
            with configured(backend=backend):
                pass

    @pytest.mark.parametrize("workers", [0, -1, 2.5, True])
    def test_bad_worker_counts_rejected(self, workers):
        with pytest.raises(EngineError):
            _backend("parallel", workers)

    def test_non_capable_engine_rejected(self):
        with pytest.raises(EngineError):
            run_workload(
                "PowerGraph",
                "PR",
                "PK",
                num_nodes=2,
                scale_divisor=SCALE,
                backend="parallel",
                workers=2,
            )


class TestExecutor:
    def test_close_is_idempotent(self):
        executor, _ = pk_executor(num_workers=2)
        executor.close()
        executor.close()  # second close must be a no-op

    def test_worker_stats_shape(self):
        ex, run_graph = pk_executor(num_workers=2)
        with ex:
            ex.values[...] = np.inf
            ex.values[0] = 0.0
            stats = pull_all(ex, run_graph)
        assert len(stats) == 2
        for entry in stats:
            assert set(entry) >= {
                "worker", "busy_seconds", "chunks", "steals", "tasks",
                "edges",
            }
        assert sum(e["chunks"] for e in stats) >= 1


class TestMeasuredScaling:
    """SSSP/LJ at a scale where the pool runs many 256-vertex blocks."""

    def test_parallel_matches_serial_at_scale(self):
        check(stand_in("SSSP", 2000, key="LJ", backend="parallel",
                       num_nodes=2))


class TestObservability:
    def test_registry_families_and_report_section(self):
        _, recorder = run(_case("SSSP"))
        registry = registry_from_trace(recorder)
        for name in (
            "repro_parallel_worker_busy_seconds",
            "repro_parallel_worker_chunks",
            "repro_parallel_worker_steals",
            "repro_parallel_worker_edges",
        ):
            family = registry.get(name)
            assert family is not None, name
            assert list(family.samples())
        report = build_report(recorder)
        rows = report["workers"]["per_worker"]
        assert [row["worker"] for row in rows] == [0, 1]
        assert report["workers"]["imbalance"] >= 1.0
        markdown = render_markdown(report)
        assert "Measured intra-node balance" in markdown

    def test_serial_report_has_no_worker_section(self):
        _, recorder = run(_case("SSSP", backend="serial"))
        report = build_report(recorder)
        assert report["workers"]["per_worker"] == []
        assert "Measured intra-node balance" not in render_markdown(report)
