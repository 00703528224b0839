"""The documentation gate's phantom-module-name check.

Loads ``scripts/check_docs.py`` the way CI runs it and feeds it a
temporary page, so a doc naming code that does not exist is caught by a
test and not only by the CI step.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def check_docs():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(SCRIPTS))
        spec = importlib.util.spec_from_file_location(
            "check_docs", SCRIPTS / "check_docs.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_phantom_name_is_flagged_and_schema_id_is_not(check_docs, tmp_path):
    page = tmp_path / "PAGE.md"
    text = (
        "Real: `repro.api.supported_keywords` and `repro.systems.*`.\n"
        "Schema ids: `repro.runreport/v1`, `repro.matrix-baseline/v1`.\n"
        "Phantoms: `repro.core.peeling`, `repro.api.no_such_name`.\n"
    )
    problems = []
    assert check_docs.check_module_names(page, text, problems) == 4
    assert problems == [
        f"{page}:3: unknown module name repro.core.peeling",
        f"{page}:3: unknown module name repro.api.no_such_name",
    ]


def test_names_resolve_as_modules_or_attributes(check_docs):
    assert check_docs.resolves("repro.gpusim.memory")
    assert check_docs.resolves("repro.gpusim.device.Device.charge")
    assert not check_docs.resolves("repro.gpusim.metrics")


def test_phantom_keyword_is_flagged_in_spans_and_fenced_blocks(
    check_docs, tmp_path
):
    page = tmp_path / "PAGE.md"
    text = (
        "Real: `gpu_peel(..., memtrace=True)`; stale: `Device(profile=True)`.\n"
        "Not a call: `Device(...` and `x.decompose(graph, nope=1)`.\n"
        "```python\n"
        "dev = Device(spec=None,\n"
        "             sanitize=True)\n"
        "result = decompose(graph, 'gpu-ours', anything=1)  # **kwargs\n"
        "```\n"
    )
    problems = []
    known = check_docs.exported_keywords()
    assert "decompose" not in known  # takes **kwargs: skipped
    assert check_docs.check_keywords(page, text, known, problems) == 4
    assert problems == [
        f"{page}:1: Device() has no keyword 'profile'",
        f"{page}:5: Device() has no keyword 'sanitize'",
    ]


def test_phantom_repository_path_is_flagged(check_docs, tmp_path):
    page = tmp_path / "PAGE.md"
    text = (
        "Real: `python scripts/check_docs.py --verbose`, "
        "`benchmarks/results/table2_ablation.json`, `docs/SIMULATOR.md`.\n"
        "Not a repository path: `hostbench/scripts/x.py`, "
        "`benchmarks/results/*.json`.\n"
        "```\n"
        "python scripts/check_perf_regression.py\n"
        "```\n"
        "Deleted: `benchmarks/results/memory_baseline.json`.\n"
    )
    problems = []
    assert check_docs.check_paths(page, text, problems) == 5
    assert problems == [
        f"{page}:4: no such file scripts/check_perf_regression.py",
        f"{page}:6: no such file benchmarks/results/memory_baseline.json",
    ]
