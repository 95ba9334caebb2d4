#!/usr/bin/env python3
"""Emit the zeta-value relations induced by all coefficients up to weight 8.

Writes one JSON record per relation to stdout; pipe through ``jq`` or collect
into a file for further processing.
"""

import json
import sys

from hsw.cli import relation_records
from hsw.mzveval import H0Evaluator

if __name__ == "__main__":
    max_weight = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    evaluator = H0Evaluator()
    for weight in range(2, max_weight + 1, 2):
        for record in relation_records(weight, evaluator):
            print(json.dumps(record), flush=True)
