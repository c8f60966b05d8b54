"""Flat key=value configuration for sessions and the command line."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .channel import FiberLink, transmission, uniform_hop_transmissions

_ADVERSARIES = ("none", "pns", "tag", "impersonate")
# The largest mean numpy's Poisson sampler accepts (int64 max - 10 sqrt of it).
_MAX_MEAN_PHOTONS = 2.0**63 - 10.0 * 2.0**31.5
# The most rounds one session runs, in target mode too: bounds its time and memory.
MAX_ROUNDS = 10_000_000
# The most receivers a ring may have. A traced session chunk peaked at up to
# 84 B per round x receiver cell (tracemalloc, N <= 100), so one chunk of
# 65,536 rounds stays under 1 GB: 150 x 65,536 x 84 B is 0.83 GB.
MAX_RECEIVERS = 150


class ConfigError(ValueError):
    """A configuration problem, carrying the offending key."""

    def __init__(self, key: str, message: str) -> None:
        super().__init__(f"config key '{key}': {message}")
        self.key = key


@dataclass(slots=True)
class SimConfig:
    """Everything a session run depends on.

    Loss is specified either as a direct per-hop transmission or as a
    link length with a fiber loss coefficient, never both. A zero
    ``target_key_bits`` runs exactly ``rounds`` rounds; a positive value
    repeats rounds until that many sifted bits exist. A zero
    ``parity_block`` skips reconciliation and privacy amplification. A
    zero ``dishonest_receiver`` means every receiver is honest.
    """

    receivers: int = 2
    mean_photons: float = 6.0
    transmission: float | None = None
    link_length_km: float | None = None
    link_loss_db_per_km: float | None = None
    rounds: int = 1000
    target_key_bits: int = 0
    adversary: str = "none"
    pns_channel: int = 1
    bs_ratio: float = 1.0
    parity_block: int = 8
    seed: int = 1
    dishonest_receiver: int = 0
    trace: bool = False

    def validate(self) -> None:
        if not 1 <= self.receivers <= MAX_RECEIVERS:
            raise ConfigError("receivers", f"must be in 1..{MAX_RECEIVERS}, got {self.receivers}")
        if not 0.0 < self.mean_photons <= _MAX_MEAN_PHOTONS:
            raise ConfigError(
                "mu", f"must be > 0 and at most {_MAX_MEAN_PHOTONS:.4g}, got {self.mean_photons}"
            )
        link_set = self.link_length_km is not None or self.link_loss_db_per_km is not None
        if self.transmission is not None and link_set:
            raise ConfigError(
                "transmission", "cannot be combined with link.length_km/link.loss_db_per_km"
            )
        if link_set and (self.link_length_km is None or self.link_loss_db_per_km is None):
            raise ConfigError(
                "link.length_km", "link.length_km and link.loss_db_per_km must be set together"
            )
        if self.link_length_km is not None and self.link_length_km < 0.0:
            raise ConfigError("link.length_km", f"must be >= 0, got {self.link_length_km}")
        if self.link_loss_db_per_km is not None and self.link_loss_db_per_km < 0.0:
            raise ConfigError(
                "link.loss_db_per_km", f"must be >= 0, got {self.link_loss_db_per_km}"
            )
        t = self._hop_transmission()
        if not 0.0 < t <= 1.0:  # also a link whose loss underflows or is NaN
            key = "link.length_km" if link_set else "transmission"
            raise ConfigError(key, f"the hop transmission must be in (0, 1], got {t}")
        if not 1 <= self.rounds <= MAX_ROUNDS:
            raise ConfigError("rounds", f"must be in 1..{MAX_ROUNDS}, got {self.rounds}")
        if self.target_key_bits < 0:
            raise ConfigError("key_bits", f"must be >= 0, got {self.target_key_bits}")
        if self.adversary not in _ADVERSARIES:
            raise ConfigError(
                "adversary", f"must be one of {', '.join(_ADVERSARIES)}, got '{self.adversary}'"
            )
        if self.pns_channel not in (1, 3, 4):
            raise ConfigError("pns_channel", f"must be 1, 3 or 4, got {self.pns_channel}")
        if self.adversary == "pns" and self.pns_channel > 2 * self.receivers + 1:
            raise ConfigError(
                "pns_channel",
                f"ring with {self.receivers} receivers has only {2 * self.receivers + 1} hops",
            )
        if not 0.0 < self.bs_ratio <= 1.0:
            raise ConfigError("bs_ratio", f"must be in (0, 1], got {self.bs_ratio}")
        if not 0 <= self.parity_block <= MAX_ROUNDS:  # no key outgrows the rounds
            raise ConfigError(
                "parity_block", f"must be in 0..{MAX_ROUNDS}, got {self.parity_block}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed", f"must be an unsigned 64-bit integer, got {self.seed}")
        if self.dishonest_receiver and not 1 <= self.dishonest_receiver <= self.receivers:
            raise ConfigError(
                "dishonest_receiver",
                f"must be 0 or a receiver index in 1..{self.receivers}, got {self.dishonest_receiver}",
            )

    def _hop_transmission(self) -> float:
        """Transmission of every hop: the configured link's, else ``transmission`` (default 1)."""
        if self.link_length_km is not None and self.link_loss_db_per_km is not None:
            return transmission(FiberLink(self.link_length_km, self.link_loss_db_per_km))
        return 1.0 if self.transmission is None else self.transmission

    def hop_transmissions(self) -> list[float]:
        """Per-hop transmissions in travel order (2N+1 hops)."""
        return uniform_hop_transmissions(self.receivers, self._hop_transmission())


# key name in the file -> (attribute, parser)
_KEYS: dict[str, tuple[str, type]] = {
    "receivers": ("receivers", int),
    "mu": ("mean_photons", float),
    "transmission": ("transmission", float),
    "link.length_km": ("link_length_km", float),
    "link.loss_db_per_km": ("link_loss_db_per_km", float),
    "rounds": ("rounds", int),
    "key_bits": ("target_key_bits", int),
    "adversary": ("adversary", str),
    "pns_channel": ("pns_channel", int),
    "bs_ratio": ("bs_ratio", float),
    "parity_block": ("parity_block", int),
    "seed": ("seed", int),
    "dishonest_receiver": ("dishonest_receiver", int),
    "trace": ("trace", bool),
}


def _parse_value(key: str, raw: str):
    attr, kind = _KEYS[key]
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("true", "1", "yes"):
            return attr, True
        if lowered in ("false", "0", "no"):
            return attr, False
        raise ConfigError(key, f"expected a boolean, got '{raw}'")
    try:
        return attr, kind(raw)
    except ValueError:
        raise ConfigError(key, f"expected {kind.__name__}, got '{raw}'") from None


def parse_config(text: str) -> SimConfig:
    """Parse key=value lines into a SimConfig; '#' starts a comment line."""
    config = SimConfig()
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(stripped, f"line {lineno} is not a key=value pair")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEYS:
            raise ConfigError(key, "unknown key")
        if key in seen:
            raise ConfigError(key, f"duplicated on line {lineno}")
        seen.add(key)
        attr, value = _parse_value(key, raw)
        setattr(config, attr, value)
    return config


def load_config(path: str | Path) -> SimConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def serialize_config(config: SimConfig) -> str:
    """Render a SimConfig back to key=value text (round-trips through parse)."""
    lines = []
    for key, (attr, kind) in _KEYS.items():
        value = getattr(config, attr)
        if value is None:
            continue
        if kind is bool:
            value = "true" if value else "false"
        elif kind is float:
            value = repr(float(value))
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def apply_overrides(config: SimConfig, overrides: list[str]) -> SimConfig:
    """Apply ``key=value`` override strings on top of an existing config."""
    updated = replace(config)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(item, "override must look like key=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(key, "unknown key")
        attr, value = _parse_value(key, raw.strip())
        setattr(updated, attr, value)
    return updated
