"""``python -m foelab``: the command-line front end (see ``foelab.cli``)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
