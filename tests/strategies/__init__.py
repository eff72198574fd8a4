"""Hypothesis strategies shared by the property tests.

* :mod:`~tests.strategies.graphs` — every graph a property draws;
* :mod:`~tests.strategies.apps` — app name -> factory, root, oracle;
* :mod:`~tests.strategies.backends` — one ``run`` over every backend;
* :mod:`~tests.strategies.faults` — the fault plans a run can carry;
* :mod:`~tests.strategies.settings` — the tiered profiles
  (``tests/conftest.py`` loads them).
"""
