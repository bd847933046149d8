"""``python -m gsverify``: the same entry point as the ``gsverify`` script."""

from .cli import main

if __name__ == "__main__":
    main()
