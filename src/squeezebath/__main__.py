"""Run the command-line interface: python -m squeezebath <command> ..."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
