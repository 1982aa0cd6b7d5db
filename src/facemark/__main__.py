"""``python -m facemark``: the ``facemark`` command."""

from .cli import main

if __name__ == "__main__":
    main()
