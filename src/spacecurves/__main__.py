"""``python -m spacecurves``: the command-line tool of ``spacecurves.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
