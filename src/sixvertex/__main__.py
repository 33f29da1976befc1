"""python -m sixvertex: the command-line interface of sixvertex.cli."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
