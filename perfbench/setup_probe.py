"""Set-up cost of one uamm run: start, import, parse the config, load frames.

    python3 perfbench/setup_probe.py CONFIG

Goes through the same imports and calls as ``uamm predict`` and ``uamm
demo-field`` up to the point where the input frames are in memory, then
exits. The benchmark times it from launch to exit.
"""

import sys

from uamm import cli

if __name__ == "__main__":
    frames = cli.load_config(sys.argv[1]).source.load()
    sys.exit(0 if frames else 1)
