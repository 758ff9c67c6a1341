"""Hypothesis runs derandomized, with no deadline and no example database:
the suite stays deterministic and does not time out on a slow or shared
host.  Hypothesis also caches constants it scrapes from the source under
its home directory, database or not, so that home is a temporary directory
removed at exit and no ``.hypothesis/`` appears in the checkout."""

import tempfile

from hypothesis import configuration, settings

settings.register_profile("cubix", derandomize=True, deadline=None, database=None)
settings.load_profile("cubix")

_home = tempfile.TemporaryDirectory(prefix="cubix-hypothesis-")
configuration.set_hypothesis_home_dir(_home.name)
