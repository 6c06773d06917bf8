"""One workload phase in a fresh process: ``python3 perfbench/worker.py SPEC``.

``SPEC`` is a JSON object naming the phase (see ``workloads.PHASES``) and
its seed, size and tracing flag.  The program is imported from the
checkout's ``src/``; the last stdout line is the phase's JSON result.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(argv[1])
    import workloads

    out = workloads.PHASES[spec["phase"]](spec, T0)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
