"""Shared fixtures: a small deterministic plane, its curve and its sweep."""

import pytest

from cpdtlab.codec import ContentSpec, synth_content
from cpdtlab.cpdt import build_rd_curve, full_sweep


@pytest.fixture(scope="session")
def plane64():
    """Small textured plane for fast codec/harness tests."""
    return synth_content(ContentSpec(seed=5, complexity=0.6, width=64, height=64))


@pytest.fixture(scope="session")
def curve64(plane64):
    return build_rd_curve(plane64)


@pytest.fixture(scope="session")
def sweep64(plane64):
    """91 transcode records: qp_s 24..30, qp_t 22..34."""
    return full_sweep(plane64, range(24, 31), range(22, 35))

