"""Let the ``qgamma`` CLI processes that tests start import the in-tree package.

pytest itself finds ``src`` through ``pythonpath`` in pyproject.toml; child
processes only see the environment.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
