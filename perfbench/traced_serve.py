"""``python -m repro.service`` with every layer boundary wrapped.

The gateway workload's traced run starts the server through this file
instead of ``python -m repro.service``; arguments are passed through
unchanged.  The per-layer self-time counters (see :mod:`layers`) land in
the server's metric registry and are read back from ``GET /metrics``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
from repro.service.__main__ import main  # noqa: E402

if __name__ == "__main__":
    layers.install()
    sys.exit(main(sys.argv[1:]))
