"""Shared test settings and fixtures.

Property tests draw the same examples on every run.
"""

import pytest
from hypothesis import settings

import framelab.verification as verification

settings.register_profile("framelab", derandomize=True, deadline=None)
settings.load_profile("framelab")


@pytest.fixture
def biased_gramian(monkeypatch):
    """Make every bracket-vs-Gramian entrywise deviation of verify 1e-6 larger."""
    deviations = verification._bracket_gramian_deviations

    def biased(rep, psis):
        dev, trace_dev = deviations(rep, psis)
        return dev + 1e-6, trace_dev

    monkeypatch.setattr(verification, "_bracket_gramian_deviations", biased)
