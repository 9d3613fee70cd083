"""`python -m diffrad.cli ARGS`, with the calibration kernel sampled inside.

    python3 perfbench/cold_probe.py verify-paper --json

Behaves as `python -m diffrad.cli`; on exit the kernel runs' perf_counter
times go to stderr as a last line `marks [[start, end], ...]`, so that the
caller can calibrate the process's wall time.
"""

import atexit
import json
import runpy
import sys

from calibration import SpeedSampler

sampler = SpeedSampler()


@atexit.register
def _report():
    sampler.stop()
    sys.stderr.write("\nmarks " + json.dumps(sampler.marks) + "\n")


sampler.start()
sys.argv = ["diffrad.cli", *sys.argv[1:]]
runpy.run_module("diffrad.cli", run_name="__main__", alter_sys=True)
