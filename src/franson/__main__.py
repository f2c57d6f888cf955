"""``python -m franson``: the same command line as the ``franson`` script."""

from .cli import main

raise SystemExit(main())
