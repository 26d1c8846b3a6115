import math

import pytest

from make_pins import load_pins
from rismac import (
    ConfigError,
    apply_overrides,
    default_config,
    parse_config,
    replace_config,
)
from rismac.config import (
    config_hash,
    db_to_linear,
    dbm_to_watt,
    default_config_path,
    emit_config,
    parse_config_text,
)


def test_unit_conversions():
    assert math.isclose(dbm_to_watt(30.0), 1.0, rel_tol=1e-12)
    assert math.isclose(dbm_to_watt(0.0), 1e-3, rel_tol=1e-12)
    assert math.isclose(dbm_to_watt(-80.0), 1e-11, rel_tol=1e-12)
    assert math.isclose(db_to_linear(-30.0), 1e-3, rel_tol=1e-12)
    assert db_to_linear(0.0) == 1.0


def test_shipped_file_matches_builtin_default(cfg):
    parsed = parse_config(default_config_path())
    assert parsed == cfg


def test_default_overheads(cfg):
    assert cfg.tau_m1 == pytest.approx(1e-4, rel=1e-12)
    assert cfg.tau_m2 == pytest.approx(6.5e-4, rel=1e-12)
    assert cfg.K == 8 and cfg.M == 32
    assert cfg.p == (0.3,) * 8


def test_emit_parse_round_trip_bitwise(cfg):
    assert parse_config_text(emit_config(cfg)) == cfg
    other = replace_config(cfg, pt=dbm_to_watt(26.0), tau_d=5e-3,
                           p=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.25))
    assert parse_config_text(emit_config(other)) == other


def test_config_hash_stable_and_sensitive(cfg):
    h1 = config_hash(cfg)
    assert h1 == config_hash(default_config())
    assert h1 != config_hash(replace_config(cfg, tau_d=14e-3))
    assert len(h1) == 64


def test_default_config_hash_is_pinned(cfg):
    # threshold tables already written carry this hash; emission must not move it
    assert config_hash(cfg) == load_pins()["default"]["config_hash"]


def test_parse_units_text():
    text = """
    K = 2
    M = 4
    pt = 26 dBm
    gt = 0 dBi
    gr = 3 dB
    beta0 = -30 dB
    n0 = -80 dBm
    alpha1 = 3
    alpha2 = 2.5
    p = 0.3
    delta = 25 us
    tau_r = 50 us
    tau_c = 50 us
    tau_p = 0.5 ms
    tau_d = 0.015 s
    sources = 0,0; 0,10
    dests = 150,0; 150,10
    ris = 75,100
    """
    cfg = parse_config_text(text)
    assert math.isclose(cfg.pt, dbm_to_watt(26.0), rel_tol=1e-12)
    assert math.isclose(cfg.gr, db_to_linear(3.0), rel_tol=1e-12)
    assert cfg.delta == 25e-6 and cfg.tau_p == 0.5e-3 and cfg.tau_d == 0.015
    assert cfg.p == (0.3, 0.3)  # scalar broadcasts over K


@pytest.mark.parametrize("mutation,fragment", [
    ("bogus = 1", "unknown key"),
    ("K = 2", "duplicate"),
])
def test_parse_rejects_bad_lines(cfg, mutation, fragment):
    text = emit_config(cfg) + mutation + "\n"
    with pytest.raises(ConfigError, match=fragment):
        parse_config_text(text)


def test_parse_rejects_missing_key(cfg):
    text = "\n".join(line for line in emit_config(cfg).splitlines()
                     if not line.startswith("tau_d"))
    with pytest.raises(ConfigError, match="missing"):
        parse_config_text(text)


def test_validation_rules(cfg):
    with pytest.raises(ConfigError):
        replace_config(cfg, K=0)
    with pytest.raises(ConfigError):
        replace_config(cfg, M=-1)
    with pytest.raises(ConfigError):
        replace_config(cfg, pt=0.0)
    for gain in ("gt", "gr"):
        with pytest.raises(ConfigError, match="antenna gains"):
            replace_config(cfg, **{gain: 0.0})
    with pytest.raises(ConfigError):
        replace_config(cfg, p=(0.3,) * 7)
    with pytest.raises(ConfigError):
        replace_config(cfg, p=(0.0,) + (0.3,) * 7)
    with pytest.raises(ConfigError):
        replace_config(cfg, p=(1.5,) + (0.3,) * 7)
    with pytest.raises(ConfigError, match="tau_d"):
        replace_config(cfg, tau_d=5e-4)  # below tau_m2
    with pytest.raises(ConfigError):
        replace_config(cfg, sources=cfg.sources[:-1])
    with pytest.raises(ConfigError, match="unknown config fields"):
        replace_config(cfg, nonsense=1)


_BASE = default_config()


@pytest.mark.parametrize("overrides", [
    {"tau_d": math.nan},
    {"tau_d": math.inf},
    {"pt": math.inf},
    {"gt": math.inf},
    {"beta0": math.nan},
    {"n0": math.inf},
    {"alpha1": math.nan},
    {"alpha2": math.inf},
    {"delta": math.nan},
    {"fc": math.inf},
    {"p": (math.nan,) * 8},
    {"sources": ((math.nan, 0.0),) + _BASE.sources[1:]},
    {"dests": _BASE.dests[:-1] + ((150.0, math.inf),)},
    {"ris": (math.nan, 100.0)},
], ids=lambda o: next(iter(o)))
def test_validation_rejects_non_finite(overrides):
    """NaN and inf pass every ordering check, so each float field and
    coordinate is checked for finiteness first."""
    with pytest.raises(ConfigError, match="finite"):
        replace_config(_BASE, **overrides)


def test_apply_overrides(cfg):
    out = apply_overrides(cfg, ["pt=26 dBm", "tau_d=5 ms"])
    assert math.isclose(out.pt, dbm_to_watt(26.0), rel_tol=1e-12)
    assert out.tau_d == 5e-3
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["nope=3"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["pt"])
    # scalar p override broadcasts
    assert apply_overrides(cfg, ["p=0.5"]).p == (0.5,) * 8


@pytest.mark.parametrize("item", ["K=inf", "M=1e400", "K=nan", "M=-inf"])
def test_integer_field_out_of_range_names_its_key(cfg, item):
    # inf and 1e400 used to raise OverflowError from int(), nan a ValueError
    # that did not say which key was wrong
    key = item.split("=")[0]
    with pytest.raises(ConfigError, match=f"^{key}: expected an integer"):
        apply_overrides(cfg, [item])


@pytest.mark.parametrize("item", ["pt=30 dBm junk", "tau_d=15 ms 99", "gt=0 dB 3"])
def test_trailing_tokens_rejected(cfg, item):
    # one value holds at most one unit; extra tokens were silently dropped
    with pytest.raises(ConfigError, match="number \\[unit\\]"):
        apply_overrides(cfg, [item])
