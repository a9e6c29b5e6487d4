import sys
from pathlib import Path

# The benchmark's modules import each other by name and splitread from
# the checkout's sources, as they do when run as scripts.
BENCH = Path(__file__).resolve().parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
