"""``python -m sniep5``: the same command line as the ``sniep5`` script."""
from .cli import main

if __name__ == "__main__":
    main()
