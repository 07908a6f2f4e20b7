"""Shared fixtures: benchmark evidence sets and random-BBA generators."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from credfuse import Frame, MassFunction, builtin_document

DATA_DIR = Path(__file__).parent.parent / "data"


@pytest.fixture(scope="session")
def frame3() -> Frame:
    return Frame(("A1", "A2", "A3"))


@pytest.fixture(scope="session")
def fault_case():
    """Five sensor reports over three fault hypotheses; sensor 5 is disturbed.

    A standard multi-sensor benchmark: plain Dempster combination picks the
    wrong hypothesis here, credibility-weighted schemes recover.  Read from
    the shipped builtin, so the frozen tables test what users get.
    """
    return builtin_document("fault-sensors").mass_functions


@pytest.fixture(scope="session")
def conflict_case():
    """Five reports with a compound focal set; report 2 conflicts, report 3
    gives the strongest support to the first hypothesis."""
    return builtin_document("conflict-sensors").mass_functions


@pytest.fixture(scope="session")
def close_pair():
    """Two nearby four-hypothesis reports differing only in frame mass."""
    m1, m2 = builtin_document("close-pair").mass_functions
    return m1, m2


@pytest.fixture(scope="session")
def iris_path() -> Path:
    return DATA_DIR / "iris.csv"


def random_mass_function(rng: np.random.Generator, frame: Frame,
                         max_focals: int = 5, omega_floor: float = 0.0) -> MassFunction:
    """A random sparse BBA; ``omega_floor`` reserves mass for the full frame
    (handy to keep combination away from total conflict)."""
    n_subsets = (1 << frame.n) - 1
    k = int(rng.integers(1, min(max_focals, n_subsets) + 1))
    masks = rng.choice(n_subsets, size=k, replace=False) + 1
    weights = rng.random(k) + 1e-3
    weights = weights / weights.sum() * (1.0 - omega_floor)
    masses = {int(mask): float(w) for mask, w in zip(masks, weights)}
    if omega_floor > 0.0:
        masses[frame.full_mask] = masses.get(frame.full_mask, 0.0) + omega_floor
    return MassFunction(frame, masses)


def random_bayesian_mass(rng: np.random.Generator, frame: Frame,
                         first_floor: float = 0.0) -> MassFunction:
    """A random BBA on singletons only; ``first_floor`` reserves mass for
    the first event (handy to keep a fold that holds it from total
    conflict)."""
    k = int(rng.integers(1, frame.n + 1))
    events = rng.choice(frame.n, size=k, replace=False)
    weights = rng.random(k) + 1e-3
    weights = weights / weights.sum() * (1.0 - first_floor)
    masses = {1 << int(j): float(w) for j, w in zip(events, weights)}
    if first_floor > 0.0:
        masses[1] = masses.get(1, 0.0) + first_floor
    return MassFunction(frame, masses)
