"""``python -m preqholo``: the same command line as the ``preqholo`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
