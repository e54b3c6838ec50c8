"""The repo benchmark (see bench/README.md); run with ``python3 bench/run.py``."""
