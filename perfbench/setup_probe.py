"""Time one benchmark set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py INPUT...

Imports the package, parses every input (run configs through
``cli.load_config``, the ``ml-mix`` argument file as JSON), makes one
warm-up ``lambda_at`` call and prints the elapsed seconds, then the
median time of the calibration loop (``calibrate.py``) run right after.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import halanay.cli  # noqa: E402
import halanay.halanay  # noqa: E402

for path in sys.argv[1:]:
    if path.endswith("ml_mix.json"):
        with open(path, encoding="utf-8") as fh:
            json.load(fh)
    else:
        halanay.cli.load_config(path)
halanay.halanay.lambda_at(0.5, 1.0, [0.3], [1.0])
ELAPSED = time.perf_counter() - T0

import statistics  # noqa: E402

import calibrate  # noqa: E402

print(repr(ELAPSED), repr(statistics.median(calibrate.sample())))
