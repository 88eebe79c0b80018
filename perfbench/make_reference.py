"""Write reference.json: strata and component counts and the poset digest of
every configuration the pipeline and sweep workloads solve.

    python3 perfbench/make_reference.py

The committed file was made at the commit that introduced the benchmark.
Regenerate it only when the expected outputs change on purpose; the gates in
``workloads.StrataWorkload.check`` compare every run against it.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from limitcanon.model import CurveConfig  # noqa: E402
from limitcanon.poset import build_poset, components  # noqa: E402
from limitcanon.strata import enumerate_strata  # noqa: E402
from workloads import PIPELINE_CONFIGS, REFERENCE_PATH, SWEEP_CONFIGS, WARMUP_CONFIG, poset_digest  # noqa: E402


def main():
    configs = {}
    for triple in sorted(set(PIPELINE_CONFIGS) | set(SWEEP_CONFIGS) | {WARMUP_CONFIG}):
        config = CurveConfig(*triple)
        found = enumerate_strata(config, jobs=1)
        poset = build_poset(config, strata=found)
        comps = components(config, poset=poset)
        configs[",".join(map(str, triple))] = {
            "strata": len(found),
            "components": comps["count"],
            "digest": poset_digest(poset, comps["maximal"]),
        }
    body = {
        "about": "per (g_X,g_Y,delta): strata count, component count, sha256 of keys/dims/closures/maximal keys",
        "configs": configs,
    }
    REFERENCE_PATH.write_text(json.dumps(body, indent=1) + "\n")
    print(f"wrote {len(configs)} configurations to {REFERENCE_PATH.name}")


if __name__ == "__main__":
    main()
