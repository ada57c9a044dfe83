"""python -m camtrack: the camtrack command line (see cli)."""
from .cli import main

if __name__ == "__main__":
    main()
