"""glibc malloc thresholds fixed at import: a step's freed temporaries stay in
the heap for the next step instead of being faulted in again, and glibc's own
settings, where a user gives them, are left alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _is_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


pytestmark = pytest.mark.skipif(not _is_glibc(), reason="malloc thresholds are glibc's")

# Twenty rounds of eight 3 MiB arrays, each written end to end, then all freed;
# prints the minor page faults of each round. Each array stays under 4 MiB,
# where numpy starts to ask for huge pages, which would hide the faults.
ROUNDS = """
import json, resource
import numpy as np
from polyscore.bench import environment
faults = []
for _ in range(20):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.empty(ARRAY_BYTES // 8) for _ in range(8)]
    for a in arrays:
        a.fill(1.0)
    del arrays, a
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"faults": faults, "environment": environment()}))
"""
ARRAY_BYTES = 3 << 20


def run_rounds(**env_extra) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(env_extra)
    code = ROUNDS.replace("ARRAY_BYTES", str(ARRAY_BYTES))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_freed_arrays_are_not_faulted_in_again():
    result = run_rounds()
    pages_touched = 10 * 8 * ARRAY_BYTES // os.sysconf("SC_PAGE_SIZE")
    assert sum(result["faults"][10:]) < pages_touched / 10, result["faults"]
    assert result["environment"]["malloc"] == {"mmap_threshold": 32 << 20,
                                               "trim_threshold": 256 << 20}


def test_glibc_settings_of_the_user_win():
    assert run_rounds(MALLOC_TRIM_THRESHOLD_="1048576")["environment"]["malloc"] is None
