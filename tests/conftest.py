"""Child interpreters started by the tests (``python -m walklab ...``)
import walklab from this checkout's ``src/``, as the tests themselves do
through ``pythonpath`` in ``pyproject.toml``."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if _SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, *_paths]))
