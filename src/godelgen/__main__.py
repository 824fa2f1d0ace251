"""``python -m godelgen``: the command-line driver (see ``godelgen.cli``)."""

from .cli import main

if __name__ == "__main__":
    main()
