"""Path set-up for the ledger's own tests.

Run with ``python3 -m pytest benchmarks/ledger/tests`` from the root of
the checkout; tier-1 (``testpaths = ["tests"]``) does not collect them.
"""

import os
import sys

LEDGER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(LEDGER))

for path in (os.path.join(ROOT, "src"), LEDGER):
    if path not in sys.path:
        sys.path.insert(0, path)
