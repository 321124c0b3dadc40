"""`python -m boxlab` runs the `boxlab` command line."""

from .cli import main

main()
