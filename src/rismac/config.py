"""Network configuration: parsing, validation, canonical emission.

All quantities are stored in SI linear units (watts, seconds, meters, linear
gains). dB/dBm/us conversions happen exactly once, at ingestion; everything
downstream works on the converted values.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from importlib import resources


class ConfigError(ValueError):
    """Raised for malformed, inconsistent, or physically invalid configs."""


def _exp10(x: float, what: str) -> float:
    """10^x; a value past the float range is a ConfigError, not an OverflowError."""
    try:
        return 10.0 ** x
    except OverflowError:
        raise ConfigError(f"{what} is past the float range") from None


def dbm_to_watt(x_dbm: float) -> float:
    return _exp10((x_dbm - 30.0) / 10.0, f"{x_dbm:g} dBm")


def db_to_linear(x_db: float) -> float:
    return _exp10(x_db / 10.0, f"{x_db:g} dB")


@dataclass(frozen=True)
class NetworkConfig:
    """One network instance: K source-destination pairs plus one RIS.

    K: number of contending pairs.
    M: number of reflecting elements (0 disables the surface).
    pt: transmit power (W); gt, gr: antenna gains (linear).
    beta0: reference path gain at 1 m (linear); n0: noise power (W).
    alpha1 / alpha2: path-loss exponents of the direct and RIS links.
    p: per-pair RTS probability, length K.
    delta, tau_r, tau_c, tau_p, tau_d: idle slot, RTS slot, feedback slot,
      RIS probing time, coherence interval (all seconds).
    sources / dests / ris: planar coordinates in meters.
    fc: carrier frequency (Hz); recorded but no formula uses it.
    """

    K: int
    M: int
    pt: float
    gt: float
    gr: float
    beta0: float
    n0: float
    alpha1: float
    alpha2: float
    p: tuple[float, ...]
    delta: float
    tau_r: float
    tau_c: float
    tau_p: float
    tau_d: float
    sources: tuple[tuple[float, float], ...]
    dests: tuple[tuple[float, float], ...]
    ris: tuple[float, float]
    fc: float = 2e9

    def __post_init__(self):
        for f in fields(self):
            if not all(math.isfinite(x) for x in _scalars(getattr(self, f.name))):
                raise ConfigError(f"{f.name} must be finite")
        if self.K < 1:
            raise ConfigError("K must be >= 1")
        if self.M < 0:
            raise ConfigError("M must be >= 0")
        if not (self.pt > 0 and self.n0 > 0 and self.beta0 > 0):
            raise ConfigError("pt, n0, beta0 must be positive")
        if self.gt < 0 or self.gr < 0:
            raise ConfigError("antenna gains must be nonnegative")
        if self.alpha1 <= 0 or self.alpha2 <= 0:
            raise ConfigError("path-loss exponents must be positive")
        for name in ("delta", "tau_r", "tau_c", "tau_p", "tau_d"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.tau_d <= self.tau_m2:
            raise ConfigError(
                f"tau_d = {self.tau_d} must exceed tau_m2 = {self.tau_m2} "
                "(no payload window would remain after an assisted stop)")
        if len(self.p) != self.K:
            raise ConfigError(f"p has {len(self.p)} entries, expected K = {self.K}")
        if any(not (0.0 < pk <= 1.0) for pk in self.p):
            raise ConfigError("every contention probability must lie in (0, 1]")
        if len(self.sources) != self.K or len(self.dests) != self.K:
            raise ConfigError("sources/dests must each have K coordinate pairs")

    @property
    def tau_m1(self) -> float:
        """Contention-success overhead: RTS plus feedback slot."""
        return self.tau_r + self.tau_c

    @property
    def tau_m2(self) -> float:
        """Overhead of a probe-then-stop round: tau_m1 + probing + feedback."""
        return self.tau_m1 + self.tau_p + self.tau_c


def _scalars(value):
    """The numbers in a field value: itself, or the leaves of nested tuples."""
    if isinstance(value, tuple):
        for item in value:
            yield from _scalars(item)
    else:
        yield value


# key -> (kind, required). Kinds drive unit handling in _parse_value.
_SCHEMA = {
    "K": ("int", True),
    "M": ("int", True),
    "pt": ("power", True),
    "gt": ("gain", True),
    "gr": ("gain", True),
    "beta0": ("gain", True),
    "n0": ("power", True),
    "alpha1": ("float", True),
    "alpha2": ("float", True),
    "p": ("problist", True),
    "delta": ("duration", True),
    "tau_r": ("duration", True),
    "tau_c": ("duration", True),
    "tau_p": ("duration", True),
    "tau_d": ("duration", True),
    "fc": ("frequency", False),
    "sources": ("points", True),
    "dests": ("points", True),
    "ris": ("point", True),
}

_DURATION_EXP = {"s": 0, "ms": -3, "us": -6}
_FREQ_EXP = {"hz": 0, "khz": 3, "mhz": 6, "ghz": 9}


def _num(token: str, key: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse number from {token!r}") from None


def _scale_decimal(token: str, exp10: int, key: str) -> float:
    """Scale a numeric token by 10**exp10 in decimal, so that '25 us'
    parses to exactly 25e-6 rather than 25 * float(1e-6)."""
    v = _num(token, key)
    if exp10 == 0 or v == 0.0 or not math.isfinite(v):
        return v
    mant, _, e = token.lower().partition("e")
    return float(f"{mant}e{(int(e) if e else 0) + exp10}")


def _parse_value(key: str, kind: str, raw: str):
    parts = raw.split()
    if kind == "int":
        v = _num(parts[0], key)
        if len(parts) != 1 or v != int(v):
            raise ConfigError(f"{key}: expected a bare integer, got {raw!r}")
        return int(v)
    if kind == "float":
        if len(parts) != 1:
            raise ConfigError(f"{key}: expected a bare number, got {raw!r}")
        return _num(parts[0], key)
    if kind == "power":
        v = _num(parts[0], key)
        unit = parts[1].lower() if len(parts) > 1 else "w"
        if unit == "dbm":
            return dbm_to_watt(v)
        if unit == "w":
            return v
        if unit == "mw":
            return _scale_decimal(parts[0], -3, key)
        raise ConfigError(f"{key}: unknown power unit {unit!r} (use dBm, W, mW)")
    if kind == "gain":
        v = _num(parts[0], key)
        unit = parts[1].lower() if len(parts) > 1 else None
        if unit is None:
            return v
        if unit in ("db", "dbi"):
            return db_to_linear(v)
        raise ConfigError(f"{key}: unknown gain unit {unit!r} (use dB or bare linear)")
    if kind == "duration":
        unit = parts[1].lower() if len(parts) > 1 else "s"
        if unit not in _DURATION_EXP:
            raise ConfigError(f"{key}: unknown duration unit {unit!r} (use us, ms, s)")
        return _scale_decimal(parts[0], _DURATION_EXP[unit], key)
    if kind == "frequency":
        unit = parts[1].lower() if len(parts) > 1 else "hz"
        if unit not in _FREQ_EXP:
            raise ConfigError(f"{key}: unknown frequency unit {unit!r}")
        return _scale_decimal(parts[0], _FREQ_EXP[unit], key)
    if kind == "problist":
        toks = [t for t in raw.replace(",", " ").split() if t]
        return tuple(_num(t, key) for t in toks)
    if kind == "point":
        return _parse_point(raw, key)
    if kind == "points":
        items = [s.strip() for s in raw.split(";") if s.strip()]
        return tuple(_parse_point(s, key) for s in items)
    raise AssertionError(kind)


def _parse_point(text: str, key: str) -> tuple[float, float]:
    toks = [t for t in text.replace(",", " ").split() if t]
    if len(toks) != 2:
        raise ConfigError(f"{key}: expected 'x,y' coordinates, got {text!r}")
    return (_num(toks[0], key), _num(toks[1], key))


def parse_config_text(text: str) -> NetworkConfig:
    """Parse the key=value config format (values may carry unit suffixes)."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not raw:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        values[key] = _parse_value(key, _SCHEMA[key][0], raw)

    missing = [k for k, (_, req) in _SCHEMA.items() if req and k not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    # a scalar p broadcasts across the K pairs
    p = values["p"]
    if len(p) == 1:
        p = p * values["K"]
    values["p"] = p
    return NetworkConfig(**values)  # type: ignore[arg-type]


def parse_config(path) -> NetworkConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _emit_value(kind: str, value) -> str:
    if kind == "problist":
        return ", ".join(repr(x) for x in value)
    if kind == "points":
        return "; ".join(_emit_value("point", xy) for xy in value)
    if kind == "point":
        return f"{value[0]!r},{value[1]!r}"
    return repr(value)


def emit_config(cfg: NetworkConfig) -> str:
    """Canonical emission: SI base units, shortest round-trip float reprs,
    keys in _SCHEMA order.

    parse_config_text(emit_config(cfg)) reproduces cfg bit for bit.
    """
    return "".join(f"{key} = {_emit_value(kind, getattr(cfg, key))}\n"
                   for key, (kind, _) in _SCHEMA.items())


def config_hash(cfg: NetworkConfig) -> str:
    return hashlib.sha256(emit_config(cfg).encode()).hexdigest()


def replace_config(cfg: NetworkConfig, **overrides) -> NetworkConfig:
    """New config with some fields replaced (re-validates)."""
    known = {f.name for f in fields(NetworkConfig)}
    bad = set(overrides) - known
    if bad:
        raise ConfigError(f"unknown config fields: {sorted(bad)}")
    kw = {f.name: getattr(cfg, f.name) for f in fields(NetworkConfig)}
    kw.update(overrides)
    return NetworkConfig(**kw)


def apply_overrides(cfg: NetworkConfig, items: list[str]) -> NetworkConfig:
    """Apply 'key=value' override strings (same units as the file format)."""
    overrides: dict[str, object] = {}
    for item in items:
        key, sep, raw = item.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep or not raw:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        overrides[key] = _parse_value(key, _SCHEMA[key][0], raw)
    k = overrides.get("K", cfg.K)
    p = overrides.get("p")
    if p is not None and len(p) == 1:
        overrides["p"] = p * k
    return replace_config(cfg, **overrides)


def default_config() -> NetworkConfig:
    """Reference setup: 8 pairs on a 150 m street, surface at (75, 100),
    parsed from the shipped default config file."""
    return parse_config(default_config_path())


def default_config_path():
    """Path to the shipped default config file."""
    return resources.files("rismac").joinpath("data/default.cfg")

