"""Set-up probe: the work every esnkit command does before its first reservoir.

Run as ``python3 perfbench/setup_probe.py <esnkit CLI arguments>`` with
``src`` on ``PYTHONPATH``. It imports esnkit, parses the arguments and the
config file, and builds the task bundle if the config names one. The caller
times the whole process, so interpreter start is included.
"""

import sys

from esnkit.cli import build_parser, task_from_config
from esnkit.storage import read_json

args = build_parser().parse_args(sys.argv[1:])
cfg = read_json(args.config)
if "task" in cfg:
    task_from_config(cfg["task"])
