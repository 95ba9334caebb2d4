#!/usr/bin/env python3
"""Emit the zeta-value relations induced by all coefficients up to a weight (default 8).

Writes one JSON record per relation to stdout, the same as running
``hsw relations --weight W --format json`` for each even W from 2 up; pipe
through ``jq`` or collect into a file for further processing.  A bad weight
exits 2 with a message.
"""

import argparse
import sys

from hsw.cli import MAX_RELATION_WEIGHT, main

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("max_weight", nargs="?", type=int, default=8, help="largest weight")
    max_weight = parser.parse_args().max_weight
    if not 2 <= max_weight <= MAX_RELATION_WEIGHT:
        parser.error(f"max_weight must be an integer from 2 to {MAX_RELATION_WEIGHT}, got {max_weight}")
    for weight in range(2, max_weight + 1, 2):
        code = main(["relations", "--weight", str(weight), "--format", "json"])
        if code:
            sys.exit(code)
