import importlib.util
from pathlib import Path

import gsqc.cli
import gsqc.sparse

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_benchmark_hooks_all_find_their_targets():
    # a gsqc name the benchmark's tracer wraps that moved would silently
    # zero its per-layer metric
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    main, total = gsqc.cli.main, gsqc.sparse.TermSet.total
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        assert gsqc.cli.main is not main
    finally:
        restore()
    assert gsqc.cli.main is main and gsqc.sparse.TermSet.total is total
    assert tracer.missing == []
