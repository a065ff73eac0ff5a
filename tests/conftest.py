"""Shared test settings, fixtures and helpers.

Property tests draw the same examples on every run.
"""

import dataclasses

import numpy as np

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


def faulty_rows(rep, src=None, phase=None):
    """A copy of rep whose rows() read the given (order, dim) src or phase.

    A test plants a fault in a copy of the rows of every element,
    rep.rows(np.arange(order)), and passes it here.  Every gather of chosen
    elements goes through rows(), so each sees the same fault.
    """
    every_src, every_phase = rep.rows(np.arange(rep.group.order))
    src = every_src if src is None else src
    phase = every_phase if phase is None else phase
    broken = dataclasses.replace(rep)
    object.__setattr__(broken, "rows", lambda elements: (src[elements], phase[elements]))
    return broken


def affine_table(p):
    """AGL(1, p), the maps x -> a x + b mod p, at index (a - 1) p + b."""
    a, b = np.divmod(np.arange((p - 1) * p), p)
    a += 1
    return (a[:, None] * a % p - 1) * p + (a[:, None] * b + b[:, None]) % p


def relabelled(table, perm):
    """The table with each element x renamed perm[x]."""
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out
