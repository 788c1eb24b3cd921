import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(_BENCH.parent / "src"), str(_BENCH)]

import run  # noqa: E402,F401  pins the BLAS thread variables before numpy loads
