"""Exogenous signal specifications built from simple primitives."""

from __future__ import annotations

import numbers
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

KINDS = ("zero", "constant", "sin", "cos", "square", "expdecay")
PARAMETERS = ("amplitude", "frequency", "phase", "rate")


@dataclass(frozen=True)
class Term:
    """One additive primitive on a channel.

    kind: "zero", "constant", "sin", "cos", "square" (sign of a sine), or
    "expdecay".  frequency is angular [rad/s]; rate is a decay rate [1/s].
    """

    kind: str
    amplitude: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown term kind {self.kind!r}")
        for name in PARAMETERS:
            v = getattr(self, name)
            # a bound, not math.isfinite, refuses an int past the float range; true is no number
            if not isinstance(v, numbers.Real) or isinstance(v, bool) or not abs(v) <= sys.float_info.max:
                raise ValueError(f"term field {name!r} must be a finite number, got {v!r}")
        if self.kind == "expdecay" and self.rate <= 0:
            raise ValueError("expdecay rate must be positive")

    def eval(self, t: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(t)
        if self.kind == "constant":
            return np.full_like(t, self.amplitude)
        if self.kind == "sin":
            return self.amplitude * np.sin(self.frequency * t + self.phase)
        if self.kind == "cos":
            return self.amplitude * np.cos(self.frequency * t + self.phase)
        if self.kind == "square":
            return self.amplitude * np.sign(np.sin(self.frequency * t + self.phase))
        return self.amplitude * np.exp(-self.rate * t)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SignalSpec:
    """Vector signal: one list of additive terms per channel."""

    channels: tuple[tuple[Term, ...], ...] = field(default=())

    def __post_init__(self):
        chans = tuple(tuple(ch) for ch in self.channels)
        if not chans or any(len(ch) == 0 for ch in chans):
            raise ValueError("every channel needs at least one term")
        object.__setattr__(self, "channels", chans)

    @property
    def dim(self) -> int:
        return len(self.channels)

    def eval(self, t) -> np.ndarray:
        """Sample the signal: scalar t -> (dim,), array t -> (len(t), dim)."""
        tarr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.stack(
            [sum(term.eval(tarr) for term in ch) for ch in self.channels], axis=-1
        )
        return out[0] if np.isscalar(t) or np.asarray(t).ndim == 0 else out

    def is_decaying(self) -> bool:
        """True iff every term vanishes or decays exponentially."""
        return all(
            term.kind in ("zero", "expdecay") or term.amplitude == 0.0
            for ch in self.channels
            for term in ch
        )

    def is_zero(self) -> bool:
        return all(
            term.kind == "zero" or term.amplitude == 0.0
            for ch in self.channels
            for term in ch
        )

    def sup_norm(self, times: np.ndarray) -> float:
        """Largest Euclidean norm over the sample grid."""
        return float(np.linalg.norm(self.eval(times), axis=1).max())

    @staticmethod
    def zero(dim: int) -> "SignalSpec":
        return SignalSpec(tuple((Term("zero"),) for _ in range(dim)))

    def to_dict(self) -> dict:
        return {"channels": [[t.to_dict() for t in ch] for ch in self.channels]}

    @staticmethod
    def from_dict(data: dict) -> "SignalSpec":
        """Inverse of :meth:`to_dict`; malformed input raises ValueError naming the field."""
        if not isinstance(data, dict) or not isinstance(data.get("channels"), list):
            raise ValueError("signal must be an object with a 'channels' list")
        chans = []
        for ch in data["channels"]:
            if not isinstance(ch, list) or not all(isinstance(t, dict) for t in ch):
                raise ValueError("each signal channel must be a list of term objects")
            for t in ch:
                unknown = sorted(set(t) - {"kind", *PARAMETERS})
                if unknown:
                    raise ValueError(f"unknown signal term field(s): {', '.join(map(repr, unknown))}")
                if "kind" not in t:
                    raise ValueError("signal term is missing field 'kind'")
            chans.append(tuple(Term(**t) for t in ch))
        return SignalSpec(tuple(chans))
