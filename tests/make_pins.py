"""Write tests/pins.json: the bits of every model value and reference stream.

    python tests/make_pins.py

(with rismac importable: installed, or PYTHONPATH=src from a checkout). The
script takes no options and reads no environment, so two runs on the same
tree write the same bytes. tests/test_pins.py recomputes every entry through
pins_of and compares the strings; a change that moves a model value on
purpose regenerates the file, and its git diff is the parity table to
declare.

Each config is the list of `rismac --set` overrides applied to the default.
Floats are pinned as float.hex, so a last-bit move shows.
"""

from __future__ import annotations

import json
from pathlib import Path

from rismac import (
    PolicyKind,
    analytic_throughput,
    apply_overrides,
    attempt_value,
    build_threshold_table,
    default_config,
    expected_contention_time,
    make_policy,
    mean_probe_value,
    run_campaign,
)
from rismac.config import config_hash

PINS_PATH = Path(__file__).with_name("pins.json")

_GRID = [[f"pt={pt} dBm", f"tau_d={ms} ms"]
         for pt in (-60, -40, 0, 30, 80) for ms in (5, 15, 100, 250)]
_SOURCES = ["0,0", "0,10", "0,20", "0,30", "0,40"]
_DESTS = ["150,0", "150,10", "150,20", "150,30", "150,40"]


def _first_pairs(k: int) -> list[str]:
    return [f"K={k}", "p=0.3", "sources=" + "; ".join(_SOURCES[:k]),
            "dests=" + "; ".join(_DESTS[:k])]


CONFIGS = [
    *_GRID,
    *([f"M={m}"] for m in (0, 1, 2, 8, 64, 256, 1024, 65536)),
    [],
    ["p=0.05,0.6,0.05,0.05,0.6,0.05,0.05,0.05"],
    _first_pairs(1),
    _first_pairs(5),
    *([f"p={p}"] for p in (0.1, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8)),
    *([f"pt={pt} dBm", "tau_d=10 s"] for pt in (-60, -40, 0)),
    ["pt=80 dBm", "tau_d=10 s", "M=1024"],
    *([f"pt={pt} dBm"] for pt in (20, 24, 28)),
]

# run_campaign streams at 8,192 rounds, seed 5 and 1 worker: proposed is the
# one discipline that releases at level 1, so the skipped-release path is in it
STREAM_CONFIGS = [[], ["pt=-40 dBm", "tau_d=250 ms"]]
BASELINES = (PolicyKind.NO_WAIT_DIRECT, PolicyKind.NO_WAIT_RIS, PolicyKind.OPTIMAL_RIS_STOP)


def load_pins() -> dict:
    """The committed pins, by config name."""
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def config_name(overrides: list[str]) -> str:
    """The overrides, less the first-K sources and dests that "set" spells out."""
    return ", ".join(o for o in overrides if not o.startswith(("sources=", "dests="))) or "default"


def pins_of(overrides: list[str]) -> dict:
    """Every pinned field of one config, in file order."""
    cfg = apply_overrides(default_config(), overrides)
    table = build_threshold_table(cfg)
    lam = table.lambda_star
    ks = sorted(table.kstar)
    prices = (0.0, lam / 2.0, lam, 2.0 * lam)
    pins = {
        "set": overrides,
        "config_hash": config_hash(cfg),
        "expected_contention_time": expected_contention_time(cfg).hex(),
        "lambda_star": lam.hex(),
        "kstar": ks,
        "zeta": [table.zeta[k].hex() for k in ks],
        "eta": [table.eta[k].hex() for k in ks],
        **{kind.value: analytic_throughput(kind, cfg).hex() for kind in BASELINES},
        "attempt_value": [attempt_value(x, cfg).hex() for x in prices],
        "mean_probe_value": [mean_probe_value(x, cfg).hex() for x in prices],
    }
    if overrides in STREAM_CONFIGS:
        for kind in PolicyKind:
            est = run_campaign(cfg, make_policy(kind, cfg, table), 8192, seed=5, workers=1)
            pins[f"stream {kind.value}"] = [est.mean.hex(), est.total_bits.hex(),
                                            est.total_time.hex()]
    return pins


def dump(pins: dict) -> str:
    """JSON with one field per line, so a diff names each field that moved."""
    blocks = []
    for name, entry in pins.items():
        fields = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entry.items())
        blocks.append(f" {json.dumps(name)}: {{\n{fields}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> None:
    pins = {config_name(o): pins_of(o) for o in CONFIGS}
    PINS_PATH.write_text(dump(pins), encoding="utf-8")
    print(f"wrote {len(pins)} configs to {PINS_PATH.name}")


if __name__ == "__main__":
    main()
