"""Hypothesis profiles.

The default profile is tier-1's budget.  ``--hypothesis-profile=ci`` raises
every property test of ``test_linalg.py`` and ``test_combinat.py`` to 2000
examples:

    PYTHONPATH=src python -m pytest tests/test_linalg.py tests/test_combinat.py --hypothesis-profile=ci
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=2000, deadline=None)


def examples(n):
    """n, or the loaded profile's budget when that is larger (``--hypothesis-profile=ci``)."""
    return max(n, settings.default.max_examples)
