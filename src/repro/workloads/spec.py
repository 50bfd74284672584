"""Declarative run model: one deterministic transfer as plain data.

A :class:`RunSpec` names one simulation run -- the scenario and its
parameters, the protocol, the transfer shape and any
:class:`~repro.core.config.HRMCConfig` deltas -- as JSON data, and
:meth:`RunSpec.build` is the one place that turns it into a world.
Every fleet cell (:mod:`repro.fleet.worker`) and every command of the
CLI that runs one transfer builds its run here, so two runs of the same
spec are byte-identical no matter which process (or machine) executes
them, and the spec's canonical content hash is a stable address for
the result.

The fleet's cache key additionally folds in the code fingerprint
(:mod:`repro.fleet.fingerprint`), which covers this module: editing how
a spec becomes a world invalidates previously stored results.
"""

from __future__ import annotations

import json
# hashlib.blake2b itself, without hashlib's OpenSSL (DESIGN §5g)
from _blake2 import blake2b
from dataclasses import dataclass, field, fields, replace
from typing import Any, Optional

from repro.core.config import HRMCConfig
from repro.harness.runner import PROTOCOLS
from repro.workloads.groups import (GROUP_A, GROUP_B, GROUP_C, TEST_CASES,
                                    expand_test_case)
from repro.workloads.scenarios import (Scenario, build_chaos, build_lan,
                                       build_wan)

__all__ = ["RunSpec", "SPEC_VERSION", "CHAOS_TUNING"]

#: bump when the spec schema or its execution semantics change in a way
#: that makes old cached results incomparable
SPEC_VERSION = 5

_SCENARIOS = ("lan", "wan", "chaos")

_GROUPS = {g.name: g for g in (GROUP_A, GROUP_B, GROUP_C)}

#: the config delta of the chaos runs: a shorter member-eviction horizon,
#: so a crashed receiver stops blocking window release within ~2 s
#: instead of ~10 s
CHAOS_TUNING = {"member_timeout_us": 2_000_000, "member_timeout_probes": 4}


@dataclass
class RunSpec:
    """One simulation run, content-addressable.

    ``scenario_params`` depend on the scenario:

    * ``lan``   -- ``receivers``, ``bandwidth_bps``, ``seed`` and, for a
      LAN under a saved fault plan, ``plan`` (the plan's JSON document,
      :meth:`FaultPlan.to_dict`)
    * ``wan``   -- ``bandwidth_bps``, ``seed`` plus either ``groups``
      (list of characteristic-group names, one receiver each) or
      ``test`` + ``receivers`` (a Figure-14 test case)
    * ``chaos`` -- ``receivers``, ``bandwidth_bps``, ``seed``,
      ``horizon_us``, ``allow_crash`` (the same seed drives topology
      and fault plan; :meth:`chaos` sets ``allow_crash`` to whether
      the protocol is H-RMC)

    ``cfg`` holds :class:`HRMCConfig` field overrides (``protocol="rmc"``
    applies :meth:`HRMCConfig.as_rmc` itself).
    A spec no world can be built from raises ``ValueError`` here.
    """

    scenario: str
    scenario_params: dict
    nbytes: int
    protocol: str = "hrmc"
    sndbuf: int = 64 * 1024
    cfg: dict = field(default_factory=dict)
    disk: bool = False
    invariants: bool = False

    def __post_init__(self) -> None:
        p = self.scenario_params
        if self.scenario not in _SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; "
                             f"known: {', '.join(_SCENARIOS)}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; "
                             f"known: {', '.join(PROTOCOLS)}")
        unknown = [g for g in p.get("groups", ()) if g not in _GROUPS]
        if unknown:
            raise ValueError(f"unknown characteristic group {unknown[0]!r}; "
                             f"known: {', '.join(_GROUPS)}")
        if "test" in p and p["test"] not in TEST_CASES:
            raise ValueError(f"unknown test case {p['test']!r}; known: "
                             f"{', '.join(map(str, TEST_CASES))}")
        receivers = len(p["groups"]) if "groups" in p \
            else p.get("receivers", 0)
        if receivers < 1:
            raise ValueError(f"need at least one receiver, got {receivers}")
        if (self.scenario == "chaos" or "plan" in p) and \
                self.protocol == "tcp":
            raise ValueError("fault plans are not supported for the "
                             "tcp-like reference (sequential unicast)")

    # -- convenience constructors (the shapes the harness uses) --------

    @classmethod
    def lan(cls, receivers: int, bandwidth_bps: float, *, seed: int,
            nbytes: int, plan: Optional[dict] = None,
            **kw: Any) -> "RunSpec":
        params: dict[str, Any] = {"receivers": int(receivers),
                                  "bandwidth_bps": float(bandwidth_bps),
                                  "seed": int(seed)}
        if plan is not None:
            params["plan"] = plan
        return cls(scenario="lan", scenario_params=params,
                   nbytes=nbytes, **kw)

    @classmethod
    def wan(cls, *, bandwidth_bps: float, seed: int, nbytes: int,
            groups: Optional[list[str]] = None,
            test: Optional[int] = None,
            receivers: Optional[int] = None, **kw: Any) -> "RunSpec":
        if (groups is None) == (test is None):
            raise ValueError("wan spec needs exactly one of "
                             "groups= or test=")
        params: dict[str, Any] = {"bandwidth_bps": float(bandwidth_bps),
                                  "seed": int(seed)}
        if groups is not None:
            params["groups"] = [str(g) for g in groups]
        else:
            params["test"] = int(test)
            params["receivers"] = int(receivers)
        return cls(scenario="wan", scenario_params=params,
                   nbytes=nbytes, **kw)

    @classmethod
    def chaos(cls, receivers: int, bandwidth_bps: float, *, seed: int,
              nbytes: int, horizon_us: int = 2_000_000,
              **kw: Any) -> "RunSpec":
        """A LAN under a seed-random fault plan; unless ``kw`` says
        otherwise, with 128K buffers, :data:`CHAOS_TUNING` and the
        invariant checker on.  The plan crashes receivers only under
        H-RMC, whose membership evicts a silent member: the ACK
        baseline would wait for one forever."""
        kw = {"protocol": "hrmc", "sndbuf": 128 * 1024,
              "cfg": dict(CHAOS_TUNING), "invariants": True, **kw}
        return cls(scenario="chaos",
                   scenario_params={"receivers": int(receivers),
                                    "bandwidth_bps": float(bandwidth_bps),
                                    "seed": int(seed),
                                    "horizon_us": int(horizon_us),
                                    "allow_crash": kw["protocol"] == "hrmc"},
                   nbytes=nbytes, **kw)

    # -- the world -----------------------------------------------------

    def build(self) -> tuple[Scenario, dict]:
        """A fresh scenario built from the spec alone, and the keyword
        arguments of :func:`~repro.harness.runner.run_transfer` that run
        the spec's transfer on it."""
        p = self.scenario_params
        if self.scenario == "lan":
            scenario = build_lan(p["receivers"], p["bandwidth_bps"],
                                 seed=p["seed"])
            if "plan" in p:
                from repro.faults.plan import FaultPlan
                scenario.fault_plan = FaultPlan.from_dict(p["plan"])
        elif self.scenario == "wan":
            groups = (expand_test_case(p["test"], p["receivers"])
                      if "test" in p else [_GROUPS[g] for g in p["groups"]])
            scenario = build_wan(groups, p["bandwidth_bps"], seed=p["seed"])
        else:
            scenario = build_chaos(p["receivers"], p["bandwidth_bps"],
                                   seed=p["seed"], horizon_us=p["horizon_us"],
                                   allow_crash=p["allow_crash"])
        return scenario, {"nbytes": self.nbytes, "protocol": self.protocol,
                          "sndbuf": self.sndbuf, "cfg": self._config(),
                          "disk": self.disk, "seed": p["seed"],
                          "invariants": self.invariants}

    def _config(self) -> Optional[HRMCConfig]:
        if not self.cfg:
            return None
        try:
            return replace(HRMCConfig(), **self.cfg)
        except TypeError as exc:
            raise ValueError(f"bad config delta for {self.describe()}: "
                             f"{exc}") from None

    # -- serialization + addressing ------------------------------------

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["version"] = SPEC_VERSION
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunSpec":
        d = dict(d)
        version = d.pop("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(f"unsupported RunSpec version {version!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown RunSpec fields: "
                             f"{', '.join(sorted(unknown))}")
        return cls(**d)

    def canonical_json(self) -> str:
        """Deterministic encoding: sorted keys, no whitespace noise."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def content_hash(self) -> str:
        """Stable address of this spec (independent of code state)."""
        return blake2b(self.canonical_json().encode(),
                       digest_size=16).hexdigest()

    def describe(self) -> str:
        p = self.scenario_params
        where = (f"test{p['test']}x{p['receivers']}" if "test" in p
                 else f"x{len(p['groups'])}" if "groups" in p
                 else f"x{p['receivers']}")
        return (f"{self.scenario} {where} {self.protocol} "
                f"{self.nbytes}B sndbuf={self.sndbuf} seed={p['seed']}")
