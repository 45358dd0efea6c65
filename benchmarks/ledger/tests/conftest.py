"""Make the ledger package and the program under test importable.

Run with ``python -m pytest benchmarks/ledger/tests`` from the repository
root; these tests are the benchmark's own and are not part of tier-1.
"""

import os
import sys

LEDGER_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
for path in (os.path.join(ROOT, "src"), LEDGER_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)
