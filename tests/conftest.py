"""Hypothesis runs derandomized, with no deadline and no example database,
so the suite is deterministic.  Hypothesis's other cache files (the constants
it collects from the source at collection time) go to a temporary directory
removed at exit, so no .hypothesis/ directory appears in the checkout."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("qbrach", derandomize=True, deadline=None, database=None)
settings.load_profile("qbrach")

_HOME = tempfile.TemporaryDirectory(prefix="qbrach-hypothesis-")
set_hypothesis_home_dir(_HOME.name)
