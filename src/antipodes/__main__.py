"""`python -m antipodes` runs the same command line as `antipodes`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
