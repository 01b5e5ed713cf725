"""``python -m groupcs``: the command-line front end of ``groupcs.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
