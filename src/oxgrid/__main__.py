"""``python -m oxgrid``: the command-line front end of :mod:`oxgrid.cli`."""

import sys

from .cli import main

# guarded: a worker process started by spawn imports the main module again
if __name__ == "__main__":
    sys.exit(main())
