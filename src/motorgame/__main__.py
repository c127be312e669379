"""``python -m motorgame``: the same command line as the ``motorgame`` script."""

import sys

from .cli import main

sys.exit(main())
