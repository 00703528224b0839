"""The algorithm registry: each runner's signature is the one record of
which keywords a program takes, and ``decompose`` enforces it."""

import inspect

import pytest

from repro import api
from repro.errors import (
    ReproError,
    UnknownAlgorithmError,
    UnsupportedKeywordError,
)
from repro.graph.examples import triangle
from tests.conftest import OBSERVER_PROGRAMS, programs_taking


@pytest.mark.parametrize("keyword", sorted(OBSERVER_PROGRAMS))
def test_observer_support_matches_the_pinned_table(keyword):
    assert programs_taking(keyword) == OBSERVER_PROGRAMS[keyword]


def test_time_budget_is_taken_by_the_gpu_systems_only():
    assert programs_taking("time_budget_ms") == {
        "vetga", "medusa-mpm", "medusa-peel", "gunrock", "gswitch",
    }


def test_no_runner_takes_var_keywords():
    for name, runner in api.ALGORITHMS.items():
        params = inspect.signature(runner.func).parameters.values()
        assert all(p.kind is not p.VAR_KEYWORD for p in params), name


def test_bound_keywords_are_not_supported():
    assert "variant" not in api.supported_keywords("gpu-ours")
    assert "parallel" not in api.supported_keywords("park-serial")
    assert {"parallel", "compact"}.isdisjoint(api.supported_keywords("pkc"))
    assert "program" not in api.supported_keywords("medusa-mpm")
    assert "num_devices" not in api.supported_keywords("gpu-multi2")
    # the multi-GPU entries bind the device count, not the variant
    assert "variant" in api.supported_keywords("gpu-multi2")


def test_supported_keywords_is_computed_once():
    assert api.supported_keywords("gpu-ours") is api.supported_keywords(
        "gpu-ours"
    )


def test_supported_keywords_of_unknown_name():
    with pytest.raises(UnknownAlgorithmError):
        api.supported_keywords("quantum-peel")


@pytest.mark.parametrize("algorithm, kwargs", [
    ("fast", {"memtrace": True}),
    ("bz", {"sanitize": True}),
    ("gpu-ours", {"variant": "bc"}),
    ("park-serial", {"parallel": True}),
    ("semi-external", {"profile": True}),
])
def test_unsupported_keyword_raises_typed_error(algorithm, kwargs):
    with pytest.raises(UnsupportedKeywordError) as info:
        api.decompose(triangle(), algorithm, **kwargs)
    err = info.value
    assert isinstance(err, TypeError) and isinstance(err, ReproError)
    assert err.algorithm == algorithm
    assert err.rejected == frozenset(kwargs)
    assert err.supported == api.supported_keywords(algorithm)
    (keyword,) = kwargs
    assert str(err).startswith(
        f"algorithm {algorithm!r} does not support keyword(s) {keyword} "
    )


def test_keywords_are_checked_before_the_program_runs():
    # a graph the runner would choke on: the keyword check fires first
    with pytest.raises(UnsupportedKeywordError):
        api.decompose(None, "gpu-ours", variant="bc")
