"""A fixed task that shares no code with peakalg, for the benchmark's
reference speed (see run.py): start an interpreter, import a fixed set of
standard-library modules, do fixed dict, tuple and Fraction work over a
working set larger than a core's L2 cache, then print the monotonic clock.

    python3 perfbench/reference.py
"""

import time

import argparse  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import decimal  # noqa: F401
import json  # noqa: F401
import logging  # noqa: F401
import statistics  # noqa: F401
from fractions import Fraction

counts: dict = {}
for i in range(40000):
    key = ((i * 7919) % 65521, i % 17)
    counts[key] = counts.get(key, 0) + i
sum(Fraction(value, 3) for value in list(counts.values())[:3000])
print(time.monotonic())
