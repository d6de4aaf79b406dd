"""The benchmark's server process: hosts the served objects and a
control object the load generator reads this process's counters from.

Started by ``run.py``; prints one JSON line (its endpoint) once it
serves, and shuts down when its standard input closes.

    python3 perfbench/server.py --endpoint tcp://HOST:0 --seed N \
        [--trace SPANS_PATH] [--wrong-every K]
"""

import argparse
import json
import sys

import bootstrap

bootstrap.prepare()

from repro import Space  # noqa: E402

import common  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--endpoint", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--wrong-every", type=int, default=0)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install()
    space = Space("bench-server", listen=[args.endpoint],
                  call_timeout=common.CALL_TIMEOUT_S)
    try:
        payloads = common.Payloads(args.seed)
        space.serve("svc", common.Service(payloads, args.wrong_every))
        space.serve("board", common.Board())
        space.serve("ctl", common.Control(space, tracer))
        print(json.dumps({"endpoint": space.endpoints[0]}), flush=True)
        sys.stdin.read()
    finally:
        space.shutdown()
        if tracer is not None:
            tracer.write_spans(args.trace)


if __name__ == "__main__":
    main()
