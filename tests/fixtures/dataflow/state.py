"""Cross-module fixture for the program graph: ``pipeline.py`` imports
``FLOW_TABLE`` from here, so ``from … import`` binding has a second
analysed module to resolve against."""

FLOW_TABLE = {}


def remember(key, value):
    FLOW_TABLE[key] = value
