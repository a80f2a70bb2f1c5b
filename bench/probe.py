"""Set-up probe run in a fresh interpreter by ``run.py``.

Imports sinailab, prepares one workload's inputs (builds the system or
parses the sweep config) and prints ``ready``; the caller times the
interval from spawning this process to that line. Then it runs the
host-speed reference kernel and prints its seconds: run in this process,
it measures the vCPU the set-up ran on (a kernel run in the caller
tracked the set-up time far worse).

    python3 bench/probe.py <workload> <inputs.json>
"""

import json
import sys

from workloads import WORKLOADS

name, path = sys.argv[1], sys.argv[2]
with open(path, encoding="utf-8") as fh:
    WORKLOADS[name].setup(json.load(fh))
print("ready", flush=True)

import hostspeed  # noqa: E402  (after "ready": not part of the set-up time)

print(repr(hostspeed.kernel_s()), flush=True)
