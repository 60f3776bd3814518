"""``python -m clustersqueeze``: the command-line interface."""

from .cli import run

run()
