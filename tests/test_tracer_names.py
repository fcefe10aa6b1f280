"""The benchmark's tracer still reads what the library returns.

`bench/tracer.py` wraps library functions by name and reads counters off
their results (`pairs_checked`, `subsets_checked`, `tuples_checked`,
`candidates_tried`, `retries`).  A renamed function or report field breaks
only the traced benchmark run, which tier-1 does not otherwise execute.
This test loads the tracer as it is and calls every function it names once,
on a tiny input, with the tracer installed.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from sparsecode.codes import Code
from sparsecode.embeddings import sph_code
from sparsecode.group_testing import Design
from sparsecode.recovery import cs_encode, unit_circle_nodes, vandermonde_matrix

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

CODE = Code.from_array(2, [[0, 0, 0, 0], [0, 0, 0, 1], [0, 1, 1, 0], [1, 0, 1, 1]])
SPH = sph_code(CODE)
BOOL = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]], dtype=bool)
VAND = vandermonde_matrix(unit_circle_nodes(5), 4)

# traced function -> its arguments
CALLS = {
    "codes.min_distance": (CODE,),
    "codes.code_bias": (CODE,),
    "codes.lwise_distance": (CODE, 3),
    "codes.lwise_bias": (CODE, 3),
    "certify.coherence": (SPH,),
    "certify.rip2_profile": (SPH, 2),
    "certify.flat_rip_constant": (SPH, 1),
    "certify.kernel_injectivity": (SPH, 1),
    "listdecode.list_sizes_at_radii": (CODE, 1),
    "group_testing.verify_disjunct": (BOOL, 1),
    "group_testing.verify_design": (Design(BOOL),),
    "recovery.cs_decode_exhaustive": (VAND, cs_encode(VAND, np.eye(5)[1]), 1),
    "codes.random_linear_code_gv": (2, 8, 0.25, 0),
}


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_its_counters_read():
    tracer = _tracer()
    assert set(CALLS) == set(tracer.KERNELS) | set(tracer.COUNTERS)
    with tracer.Tracer() as t:
        for key, args in CALLS.items():
            layer, name = key.split(".")
            getattr(importlib.import_module(f"sparsecode.{layer}"), name)(*args)
    assert {key: stats["calls"] for key, stats in t.snapshot().items()
            if key in CALLS} == dict.fromkeys(CALLS, 1)
