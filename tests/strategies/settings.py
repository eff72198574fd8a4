"""Tiered Hypothesis profiles for the whole suite.

Property tests that carry no ``@settings`` of their own run under the
loaded profile.  Profiles trade coverage for wall clock: ``ci`` is the
default, ``dev`` is a quick smoke, ``nightly`` draws four times ``ci``'s
examples and ``thorough`` twenty times.  Select with
``REPRO_HYPOTHESIS_PROFILE=nightly pytest ...``.
"""

import os

from hypothesis import settings

settings.register_profile("dev", max_examples=10, deadline=None)
settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=100, deadline=None)
settings.register_profile("thorough", max_examples=500, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))
