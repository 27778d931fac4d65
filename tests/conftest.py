import pytest
from hypothesis import settings

# helpers.py checks with assert; rewrite it like a test module so that those
# checks survive python -O.  This must run before anything imports helpers.
pytest.register_assert_rewrite("helpers")

# single examples may sweep a whole word corpus; wall time is budgeted at the
# suite level instead of per example
settings.register_profile("suite", deadline=None)
settings.load_profile("suite")
