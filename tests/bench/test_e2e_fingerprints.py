"""The end-to-end workloads' simulated results, pinned byte for byte.

Each of the four ``BENCHMARK.json`` workloads runs at 5% scale on the
default seed and the held-out one; the sha256 of its ``measure()`` result
(simulated-clock metrics, per-layer counts and sample sizes, serialized
as the e2e worker serializes them) must match the pinned prefix, and the
attempted and failed operation counts must match too.  A change meant to
make the simulator faster without changing what it simulates keeps every
hash; one that moves a single timestamp changes one.  The workloads are
imported read-only from ``benchmarks.e2e.workloads``.  The hashes do not
depend on ``PYTHONHASHSEED``.

The pins are per Python minor version: from 3.12 on, ``sum()`` adds
floats with compensated summation, so the last bits of float sums that
feed ``measure()`` (the paced workloads' arrival stretch, the waterfall
mean) may differ between interpreters.  The set below was measured on
CPython 3.11; on an interpreter without a pinned set the test skips.
The runs take about 10 s, so the file is marked slow and CI runs it in
its e2e smoke job.
"""

import hashlib
import json
import sys

import pytest

from benchmarks.e2e.workloads import WORKLOADS

pytestmark = pytest.mark.slow

SCALE = 0.05

# Python (major, minor) -> {(workload, seed) ->
#     (sha256 prefix of measure(), attempted, failed)}
FINGERPRINTS = {
    (3, 11): {
        ("tpcc-local", 7): ("a2c5336215f7d12d", 200, 0),
        ("tpcc-local", 11): ("40a32f70bf18cd85", 200, 0),
        ("replicated-chain", 7): ("e0289395355f06e2", 60, 0),
        ("replicated-chain", 11): ("d971bdf66d8eb0c3", 60, 0),
        ("mixed-io", 7): ("2a6c71538b2d4f69", 394, 0),
        ("mixed-io", 11): ("74dd7c8aa40c735b", 394, 0),
        ("fleet-diurnal", 7): ("e25eaee3c69f23dc", 200, 0),
        ("fleet-diurnal", 11): ("3b6069446c231af0", 200, 0),
    },
}

CASES = sorted(FINGERPRINTS[(3, 11)])
PINNED = FINGERPRINTS.get(sys.version_info[:2])


@pytest.mark.skipif(
    PINNED is None,
    reason="no fingerprints pinned for Python %d.%d" % sys.version_info[:2])
@pytest.mark.parametrize("workload, seed", CASES)
def test_simulated_results_match_pinned_fingerprint(workload, seed):
    stack = WORKLOADS[workload](seed, SCALE)
    stack.drive()
    result = stack.measure()
    blob = json.dumps(result, sort_keys=True).encode()
    digest = hashlib.sha256(blob).hexdigest()[:16]
    assert (digest, stack.attempted, stack.failed) == \
        PINNED[(workload, seed)]
