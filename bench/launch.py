"""Start one ``operad-forge`` process from this checkout's sources, the way
the installed ``operad-forge`` script does.

    python3 bench/launch.py [--trace OUT.json] [--speed OUT.json] -- <arguments>

With ``--trace`` the per-layer tracer is installed before ``cli.main`` runs,
and its totals are written to ``OUT.json`` when the command returns.  With
``--speed`` the process samples the host reference every 0.2 s while it
runs (see ``hostspeed.py``) and writes the samples to ``OUT.json``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def main() -> int:
    args = sys.argv[1:]
    split = args.index("--")
    opts, argv = dict(zip(args[:split:2], args[1:split:2])), args[split + 1:]
    speed = t = None
    if "--speed" in opts:
        import hostspeed  # from this script's directory, which is on sys.path

        speed = hostspeed.HostSpeed()
        speed.sample_every(hostspeed.SAMPLE_EVERY_S)
    import operad_forge.cli as cli

    if "--trace" in opts:
        import tracer

        t = tracer.Tracer()
        tracer.install(t)
        t.ops = 1
    try:
        return cli.main(argv)
    finally:
        if speed is not None:
            speed.stop()
            speed.dump(opts["--speed"])
        if t is not None:
            t.dump(opts["--trace"])


if __name__ == "__main__":
    sys.exit(main())
