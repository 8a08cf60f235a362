"""Start the k0heap CLI from the checkout's source tree, as the console script would.

    python3 k0bench/cli_entry.py ARGS...               # plain
    python3 k0bench/cli_entry.py --spans FILE ARGS...  # traced; spans go to FILE
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    argv = sys.argv[1:]
    if argv[:1] == ["--spans"]:
        import tracer
        from k0heap import cli

        t = tracer.Tracer()
        t.install()
        code = cli.run_cli(argv[2:])
        sys.stdout.flush()
        t.dump(argv[1])
        sys.exit(code)
    from k0heap.cli import main as cli_main

    sys.argv = ["k0heap", *argv]
    cli_main()


if __name__ == "__main__":
    main()
