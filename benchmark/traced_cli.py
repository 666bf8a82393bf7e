"""Run the cube-lab CLI with the benchmark's spans installed.

    python3 benchmark/traced_cli.py verify --timings

The CLI's own output goes to stdout unchanged; the span totals follow on
stderr as one line starting with TRACE.  Needs the library on sys.path
(`src/` on PYTHONPATH in a plain checkout).
"""

import json
import sys

import cube_lab.cli

from tracer import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    code = cube_lab.cli.main(sys.argv[1:])
    sys.stdout.flush()
    print("TRACE " + json.dumps(tracer.to_json()), file=sys.stderr)
    sys.exit(code)
