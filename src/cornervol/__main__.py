"""``python -m cornervol``: the command line, exiting with its exit code."""

import sys

from .cli import main

sys.exit(main())
