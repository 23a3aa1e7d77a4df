"""Repository-level pytest configuration.

Adds ``src/`` to ``sys.path`` so the test-suite and ``perfbench/selftest.py``
run against the in-tree sources even when the package has not been installed
(useful on machines without network access where ``pip install -e .`` cannot
resolve build dependencies; ``python setup.py develop`` is the supported
offline install).
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
