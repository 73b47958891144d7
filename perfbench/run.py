"""Run one workload of the hetlda benchmark and print its metrics.

    python3 perfbench/run.py --workload cv-blend --seed 0 --seconds 25 \
        --trace 0

Run it from the root of a source checkout: the package is imported from
the checkout's src/ directory, never from an installed copy, and the run
fails without a result when that directory is missing. The last line of
standard output is the JSON result; see perfbench/README.md.
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "hetlda" / "__init__.py").is_file():
        print(f"error: no hetlda package in {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    from hetbench.harness import main
    sys.exit(main(ROOT, SRC))
