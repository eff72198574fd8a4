"""repro.obs — observability layered on the trace recorder.

Three parts, all pure consumers of a :class:`TraceRecorder` (live or
loaded from JSONL), so turning them on never changes application
results:

* :mod:`repro.obs.metrics` — process-wide metrics registry (counters,
  gauges, fixed-bucket histograms with labels) rendered as OpenMetrics
  text, populated by projecting the trace's event vocabulary;
* :mod:`repro.obs.spans` — hierarchical span profiler (run ->
  superstep -> phase -> component) with Chrome trace-event and
  speedscope exporters;
* :mod:`repro.obs.report` — the ``repro report`` HTML/markdown run
  report, including the RR-effectiveness counterfactual;
* :mod:`repro.obs.live` — the live telemetry plane: shared-memory
  worker heartbeat sampler, ``/metrics`` + ``/healthz`` HTTP endpoint,
  ``repro top`` renderer, and the crash flight recorder.

:func:`write_profile` bundles the standard artifact set that the CLI's
``--profile-out DIR`` writes: ``trace.jsonl``, ``chrome_trace.json``,
``speedscope.json``, ``metrics.txt``.
"""

from __future__ import annotations

import json
import os
from typing import Dict

from repro.obs.live import (
    FlightRecorder,
    LiveMetricsService,
    LiveTelemetryPlane,
    MetricsHTTPServer,
    TelemetrySampler,
    default_flight_path,
    render_top,
    scrape,
    top_loop,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_openmetrics,
    populate_from_trace,
    registry_from_trace,
    render_openmetrics,
)
from repro.obs.report import build_report, render_html, render_markdown
from repro.obs.spans import (
    Span,
    build_span_tree,
    iter_spans,
    to_chrome_trace,
    to_speedscope,
)
from repro.trace.export import write_jsonl
from repro.trace.recorder import TraceRecorder

__all__ = [
    "FlightRecorder",
    "LiveMetricsService",
    "LiveTelemetryPlane",
    "MetricsHTTPServer",
    "TelemetrySampler",
    "default_flight_path",
    "render_top",
    "scrape",
    "top_loop",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_openmetrics",
    "populate_from_trace",
    "registry_from_trace",
    "render_openmetrics",
    "Span",
    "build_span_tree",
    "iter_spans",
    "to_chrome_trace",
    "to_speedscope",
    "build_report",
    "render_html",
    "render_markdown",
    "write_openmetrics",
    "write_profile",
    "PROFILE_FILENAMES",
]

#: Files :func:`write_profile` creates inside the profile directory.
PROFILE_FILENAMES = {
    "trace": "trace.jsonl",
    "chrome": "chrome_trace.json",
    "speedscope": "speedscope.json",
    "metrics": "metrics.txt",
}


def write_openmetrics(registry: MetricsRegistry, path: str) -> str:
    """Write the registry as OpenMetrics text; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_openmetrics(registry))
    return path


def write_profile(recorder: TraceRecorder, directory: str) -> Dict[str, str]:
    """Write the standard profile artifact set into ``directory``.

    Creates the directory if needed and returns ``{kind: path}`` for
    the four artifacts (raw JSONL trace, Chrome trace, speedscope
    profile, OpenMetrics text).  ``repro report`` accepts the
    directory as its source.
    """
    os.makedirs(directory, exist_ok=True)
    paths = {
        kind: os.path.join(directory, name)
        for kind, name in PROFILE_FILENAMES.items()
    }
    write_jsonl(recorder, paths["trace"])
    with open(paths["chrome"], "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(recorder), handle, indent=1)
    with open(paths["speedscope"], "w", encoding="utf-8") as handle:
        json.dump(to_speedscope(recorder), handle, indent=1)
    write_openmetrics(registry_from_trace(recorder), paths["metrics"])
    return paths
