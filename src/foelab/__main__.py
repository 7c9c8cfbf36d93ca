"""``python -m foelab`` and the ``foelab`` script: the command-line front end
(see ``foelab.cli``).

An exception escaping ``main`` is a program bug: its traceback goes to
stderr and the exit status is ``EXIT_BUG`` (4), never ``EXIT_VIOLATION``.
"""

import traceback

from .cli import EXIT_BUG, main


def entry(argv=None):
    try:
        return main(argv)
    except Exception:
        traceback.print_exc()
        return EXIT_BUG


if __name__ == "__main__":
    raise SystemExit(entry())
