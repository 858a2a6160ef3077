"""`python -m nsscale`: the `nsscale` command, from a source checkout too."""

import sys

from .cli import main

sys.exit(main())
