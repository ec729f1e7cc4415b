"""``python -m aimnu ARGS`` with the host's speed sampled inside the process.

    python3 benchmarks/cli_child.py ARGS...

Runs the package's ``__main__`` as ``python -m aimnu`` does, so stdout and
the exit code are the CLI's own.  While it runs, ``hostprobe.HostProbe``
times the calibration loop every 0.1 s between two bytecodes of the CLI, as
the measuring worker does for in-process operations; a loop timed in the
waiting parent would read another CPU than the one the CLI runs on.  The
last line of stderr is ``host {"loops": [seconds, ...], "spent": seconds}``.
"""

import json
import runpy
import sys

from hostprobe import HostProbe


def main() -> None:
    probe = HostProbe(float("inf"), sample=True)
    sys.argv = ["aimnu", *sys.argv[1:]]
    probe.arm()
    try:
        runpy.run_module("aimnu", run_name="__main__", alter_sys=True)
    finally:
        probe.disarm()
        sys.stdout.flush()
        print("host " + json.dumps({"loops": probe.samples, "spent": probe.spent}), file=sys.stderr)


main()
