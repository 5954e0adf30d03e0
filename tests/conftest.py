"""Shared fixtures and helpers for the test suite.

Hypothesis runs under one of two named profiles, selected by the
``HYPOTHESIS_PROFILE`` environment variable:

* ``dev`` (default) — few examples, fast local iteration;
* ``ci`` — derandomized (no flaky reruns), more examples, no deadline
  (shared CI runners have noisy wall clocks).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.config import gm_system, portals_system, tcp_system

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", max_examples=25, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def pytest_collection_modifyitems(config, items):
    """Seeded test-order shuffle for environments without pytest-randomly.

    CI installs ``pytest-randomly`` (see the ``test`` extra) and drives it
    with an explicit ``--randomly-seed``; bare environments can still
    exercise order-independence deterministically via
    ``TEST_SHUFFLE_SEED=<int> pytest``.  No-ops when unset or when the
    real plugin is present (it already reordered the items).
    """
    seed = os.environ.get("TEST_SHUFFLE_SEED")
    if not seed or config.pluginmanager.hasplugin("randomly"):
        return
    import random

    random.Random(int(seed)).shuffle(items)


@pytest.fixture(autouse=True)
def _isolated_outputs(tmp_path_factory, monkeypatch):
    """Point the default run ledger and point cache at per-test
    temporary directories.

    Every ledger- or cache-writing entry point (the CLI's
    ``--ledger-dir`` and ``--cache-dir`` defaults, ``comb bench``
    included) reads :data:`repro.obs.ledger.DEFAULT_LEDGER_DIR` and
    :data:`repro.core.executor.DEFAULT_CACHE_DIR` when its parser is
    built, so tests exercise the real write paths without appending to
    the working tree's ``results/ledger/ledger.jsonl`` (which ``comb
    history`` and ``comb compare`` read) or filling its ``.comb_cache/``.
    """
    from repro.core import executor
    from repro.obs import ledger

    monkeypatch.setattr(ledger, "DEFAULT_LEDGER_DIR",
                        tmp_path_factory.mktemp("ledger"))
    monkeypatch.setattr(executor, "DEFAULT_CACHE_DIR",
                        str(tmp_path_factory.mktemp("cache")))


@pytest.fixture
def gm():
    """The GM system preset."""
    return gm_system()


@pytest.fixture
def portals():
    """The Portals system preset."""
    return portals_system()


@pytest.fixture
def tcp():
    """The TCP system preset."""
    return tcp_system()


@pytest.fixture(params=["GM", "Portals"], ids=["gm", "portals"])
def either_system(request):
    """Parametrized over the paper's two measured systems."""
    return gm_system() if request.param == "GM" else portals_system()


def run_pair(world, gen0, gen1, until=None):
    """Spawn one generator per rank and run until ``gen0`` finishes."""
    p0 = world.engine.spawn(gen0, name="rank0")
    world.engine.spawn(gen1, name="rank1")
    return world.engine.run(until if until is not None else p0)


KB = 1024
