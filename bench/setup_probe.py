"""Set-up of a fresh interpreter, up to the first call the benchmark times.

    python3 bench/setup_probe.py CONFIG

Imports netepi (with numpy, scipy and PyYAML), loads CONFIG and parses
its distributions, then prints `time.perf_counter()` (CLOCK_MONOTONIC,
shared by all processes).  The caller subtracts its own reading taken
just before it started this process.
"""

import sys
import time

import checkout

checkout.prepare()

from netepi import cli  # noqa: E402

cfg = cli.load_config(sys.argv[1])
if cfg["model"]:
    cli.model_distributions(cli.resolve_model(cfg["model"]))
if cfg["infection"]:
    cli.infection_spec(cli.resolve_infection(cfg["infection"]))
print(repr(time.perf_counter()))
