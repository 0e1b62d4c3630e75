"""Traced stand-in for ``python -m iquantum ARGS`` used by the traced cli_cold pass.

It times ``import iquantum.cli``, runs ``cli.run`` under the layer wrappers
and exits with its code.  Stdout is the command's own output, unchanged, so
the caller checks it exactly as for an untraced call; the timings and layer
totals go to stderr as the last line, one JSON object.
"""

import json
import sys
from time import perf_counter

from tracer import Tracer

if __name__ == "__main__":
    t0 = perf_counter()
    import iquantum.cli

    import_s = perf_counter() - t0
    import layers

    tracer = Tracer(layers.TARGETS)
    tracer.install()
    try:
        with tracer.open_item(0, "cli.item"):
            rc = iquantum.cli.run(sys.argv[1:])
    finally:
        tracer.remove()
    sys.stdout.flush()
    report = {"import_s": import_s, "totals": tracer.totals(), "caches": layers.cache_sizes()}
    print(json.dumps(report), file=sys.stderr)
    sys.exit(rc)
