"""Make ``repro`` (under ``src/``) and the benchmark's modules importable
when the tests run from the root of a checkout:
``python3 -m pytest hostbench``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
