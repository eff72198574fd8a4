"""perfbench — the repo's stopwatch benchmark.

Seven seeded, verified workloads timed end to end, plus a traced run
that attributes each millisecond of a job to the ``repro`` module that
spent it.  Layers are measured from outside by wrapping their public
callables; nothing under ``src/repro`` knows this package exists.

Entry points (``python -m perfbench <command>``):

* ``measure`` — one workload in this interpreter; the last stdout line
  is the JSON object ``BENCHMARK.json``'s contract asks for.
* ``run`` — every workload, each in a fresh child ``measure``.
* ``compare`` — two ``run`` outputs against the bounds in
  ``BENCHMARK.json``.

See ``perfbench/README.md`` for the metric and workload glossary.
"""
