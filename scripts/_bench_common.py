"""Shared plumbing for the ``scripts/check_*`` CI gates.

Every gate script needs the same three things: the repo layout
(``REPO_ROOT`` / ``RESULTS_DIR``), an import path that reaches
``src/repro`` without installation (:func:`bootstrap`), and committed
``repro.bench/v1`` table records loaded into a convenient
``dataset -> column -> cell`` mapping (:func:`load_record` /
:func:`cells_by_dataset`).  Gates that emit machine-readable findings
(``lint_kernels --json``, ``check_dataflow --json``,
``check_admission --json``) share one artifact schema,
``repro.findings/v1`` — owned by :mod:`repro.sanitize.findings` so the
CLI's ``--json`` dumps emit the identical artifact; the names here are
compatibility re-exports for the gate scripts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"


def bootstrap() -> None:
    """Make ``import repro`` work from an uninstalled checkout."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


bootstrap()
from repro.obs.export import write_artifact  # noqa: E402,F401  (needs bootstrap)
from repro.sanitize.findings import write_findings  # noqa: E402,F401


def load_record(path: "str | Path") -> Dict[str, Any]:
    """Load one committed bench/profile JSON record.

    Raises ``SystemExit(2)`` with a clear message when the file is
    missing or not valid JSON — gates treat a broken artefact as a
    configuration error, distinct from a failed check (exit 1).
    """
    path = Path(path)
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"error: {path}: no such file", file=sys.stderr)
        raise SystemExit(2) from None
    except ValueError as exc:
        print(f"error: {path}: invalid JSON ({exc})", file=sys.stderr)
        raise SystemExit(2) from None
    if not isinstance(record, dict):
        print(f"error: {path}: record must be a JSON object",
              file=sys.stderr)
        raise SystemExit(2)
    return record


def cells_by_dataset(record: Dict[str, Any]) -> Dict[str, Dict[str, str]]:
    """``repro.bench/v1`` table -> ``{dataset: {column: cell}}``.

    The first column of a bench table is the dataset label; the
    remaining columns are zipped against each row's cells.
    """
    columns = record["columns"][1:]
    return {
        row["dataset"]: dict(zip(columns, row["cells"]))
        for row in record["rows"]
    }
