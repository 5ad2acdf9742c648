"""``python -m gksplit``: the command line tool, runnable from a source checkout."""

from .cli import entry

if __name__ == "__main__":
    entry()
