"""`python -m odolab`: the `odolab` command line (`odolab.cli`)."""

import sys

from .cli import main

sys.exit(main())
