"""Make ``src`` importable for the ``python -m sqss`` subprocesses of the tests.

``pythonpath`` in pyproject.toml puts ``src`` on this process's path
only; child interpreters read PYTHONPATH, so a bare ``python -m pytest``
from the repository root extends it here.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
