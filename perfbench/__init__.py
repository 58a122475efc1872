"""End-to-end benchmark of the consolidation library (see ``run.py``)."""
