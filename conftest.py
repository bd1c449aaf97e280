"""Test set-up for the whole checkout: where ``actimetrics`` is imported from.

The package comes from ``PYTHONPATH`` or an installed copy when there is
one, so ``PYTHONPATH=<other checkout>/src python -m pytest`` tests that
checkout's code. Only when neither provides it is this checkout's ``src``
appended, so a bare ``python -m pytest`` (``tests`` or ``bench/tests``)
still runs.
"""
import importlib.util
import sys
from pathlib import Path

if importlib.util.find_spec("actimetrics") is None:
    sys.path.append(str(Path(__file__).resolve().parent / "src"))
