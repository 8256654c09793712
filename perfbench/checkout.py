"""Locate the checkout being measured and import ``qbcsim`` from its source.

The benchmark runs from the root of a checkout and measures the package in
that checkout's ``src/`` tree, never an installed copy.  Without that tree
it stops with exit code 2 before measuring anything.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def use_checkout_source() -> None:
    package = SRC / "qbcsim" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: no package source at {package}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import qbcsim

    if Path(qbcsim.__file__).resolve() != package.resolve():
        print(f"perfbench: imported qbcsim from {qbcsim.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)
