"""Building blocks of the repository benchmark (see ``perfbench/run.py``)."""
