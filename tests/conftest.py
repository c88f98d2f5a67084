"""Shared fixtures: the bundled running example and everything built from it."""

from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")

from destx import (
    DistinguishabilitySpec,
    build_labeled_system,
    build_observer,
    consistency_fixpoint,
    distinguishability,
    extract_min_transmit,
    load_pairs,
    load_plant,
    load_policy,
    parse_labeled,
    prune_violating,
    realize_policy,
)
from destx.observer import ObserverState

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def plant():
    return load_plant(DATA / "running_example.des")


@pytest.fixture(scope="session")
def pairs():
    return load_pairs(DATA / "distinguish.pairs")


@pytest.fixture(scope="session")
def prop(pairs, plant):
    return distinguishability(pairs, plant)


@pytest.fixture(scope="session")
def lsys(plant):
    return build_labeled_system(plant)


@pytest.fixture(scope="session")
def obs(lsys):
    return build_observer(lsys)


@pytest.fixture(scope="session")
def g0(obs, prop):
    return prune_violating(obs, prop)


@pytest.fixture(scope="session")
def gstar(obs, g0):
    return consistency_fixpoint(obs, g0)


def obs_state(plant, *renderings):
    """Observer state from labeled-state renderings, e.g. obs_state(p, "q0NNY", "q5")."""
    return ObserverState(parse_labeled(r, plant) for r in renderings)


@pytest.fixture(scope="session")
def pinned_sched(plant, gstar):
    return extract_min_transmit(gstar, pin_initial=obs_state(plant, "q0NNY", "q1Y", "q5"))


@pytest.fixture(scope="session")
def pinned_policy(lsys, pinned_sched):
    return realize_policy(lsys, pinned_sched)


@pytest.fixture(scope="session")
def default_policy(lsys, gstar):
    return realize_policy(lsys, extract_min_transmit(gstar))


@pytest.fixture(scope="session")
def hand_policy(plant):
    return load_policy(DATA / "example.policy", plant)


@pytest.fixture(scope="session")
def fixture_spec():
    return DistinguishabilitySpec.of(
        [(a, b) for a in ("q0", "q1", "q3", "q5") for b in ("q2", "q4")]
    )
