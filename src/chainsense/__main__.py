"""``python -m chainsense``: the same command line as the ``chainsense`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
