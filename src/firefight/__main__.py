"""``python -m firefight``: the same command line as ``firefight``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
