"""``python -m kgalilei``: the command-line front end."""

from .cli import main

if __name__ == "__main__":
    main()
