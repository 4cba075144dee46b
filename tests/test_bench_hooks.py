"""The benchmark's layer metrics wrap package entry points by module attribute
(``bench/layers.py``); an entry point that a refactor drops would read 0 there
instead of failing. Only the replicate runners that the batched replicate
engine replaced may be absent."""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_every_wrapped_entry_point_exists():
    sys.path.insert(0, BENCH)
    try:
        from layers import Tracer
    finally:
        sys.path.remove(BENCH)
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["inference.run_indexed", "coloc.run_indexed"]
    finally:
        tracer.uninstall()
