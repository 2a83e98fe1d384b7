"""The sepdraw benchmark.

    python3 perfbench/run.py --workload recognize --seed 1 --seconds 15 --trace 0

Runs one seeded workload against the package in ``src/`` of the checkout
this file sits in, checks every answer, and prints as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
a separate traced run gives per-module call counts and self times.
``--selfcheck`` runs every workload at tiny sizes in a few seconds;
``--pin`` rewrites the pinned answer digests of the default seed.
See README.md beside this file for why each workload exists.

Exits with 2, printing no result, when the checkout has no ``src/sepdraw``.
"""
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "sepdraw" / "__init__.py").is_file():
        print(f"error: no sepdraw package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from harness import main

    sys.exit(main())
