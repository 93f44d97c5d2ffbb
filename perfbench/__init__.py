"""The repository's benchmark; see README.md and run.py."""
