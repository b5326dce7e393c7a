"""One cold start of a workload: what a user pays before the first result.

Run as a fresh interpreter by ``run.py``, once per set-up sample:

    python3 perfbench/coldstart.py --workload scan --out perfbench/runs/scan

It imports coricci, builds the workload's chains with ``gallery.generate``
(which validates every metric) and writes one chain file per chain.  The
last line of its standard output is a JSON object with the seconds spent in
``gallery.generate``, for the traced run's ``gallery.generate_s``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Chain name -> (preset, parameters), per workload.  Names are the chain file
# stems and the case labels in run records.
CHAINS = {
    "scan": {
        "cube6": ("cube", {"N": 6}),
        "cube8": ("cube", {"N": 8}),
        "glauber8": ("glauber", {"graph": "cycle:8", "beta": 0.2}),
        "binomial40": ("binomial", {"N": 40, "p": 0.5}),
        "reset60": ("geometric_reset", {"alpha": 0.5, "K": 60}),
    },
    "contraction": {
        "cube7": ("cube", {"N": 7}),
        "glauber7": ("glauber", {"graph": "cycle:7", "beta": 0.2}),
    },
    "verify": {
        "cube4": ("cube", {"N": 4}),
        "binomial7": ("binomial", {"N": 7, "p": 0.5}),
        "binomial20": ("binomial", {"N": 20, "p": 0.5}),
        "glauber4": ("glauber", {"graph": "cycle:4", "beta": 0.2}),
    },
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHAINS))
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from coricci import chainfile, gallery

    args.out.mkdir(parents=True, exist_ok=True)
    generate_s = 0.0
    for name, (preset, params) in CHAINS[args.workload].items():
        t0 = time.perf_counter()
        chain = gallery.generate(gallery.PresetSpec(preset, params))
        generate_s += time.perf_counter() - t0
        chainfile.save_chain(chain, str(args.out / f"{name}.json"))
    print(json.dumps({"generate_s": generate_s}))


if __name__ == "__main__":
    main()
