"""``python -m cflevels``: the same command line as the ``cflevels`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
