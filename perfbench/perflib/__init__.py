"""Support code for the repository benchmark driven by ``perfbench/run.py``.

The benchmark imports the library under test only through its public modules
and never edits it: inputs are generated here from the seed, layer spans are
recorded here around the calls one layer makes into the next, and results are
checked here against independent solves.
"""
