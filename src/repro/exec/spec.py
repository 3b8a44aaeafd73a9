"""Run specs: the picklable unit of sweep work.

A :class:`RunSpec` is pure data — a kind tag, an optional
:class:`~repro.simulation.config.SimulationConfig`, and JSON-able
params — so it can cross a process boundary and be content-hashed for
the result cache.  All shared setup an experiment used to re-derive
per run (catalogs, derived quantities) is reconstructed *inside* the
worker from the spec, memoised per process (see
:func:`repro.simulation.runner.cached_catalog`), so neither the parent
nor the workers repeat it.

Each kind maps to a registered function ``fn(spec, obs) -> payload``
where the payload is a JSON-able dict (cacheable, byte-comparable).
A kind is registered when the module defining it is imported
(:func:`register_kind`); fork-started workers inherit the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from repro.errors import ConfigurationError
from repro.exec.hashing import HASH_SCHEME_VERSION, canonical, code_salt, digest_document
from repro.simulation.config import SimulationConfig



@dataclass(frozen=True)
class RunSpec:
    """One independent run of a sweep.

    ``kind`` selects the registered run function, ``config`` carries a
    full simulation configuration for "experiment" runs, and
    ``params`` the keyword arguments of non-config kinds (mixed-media
    rows, fairness rows).  ``label`` is display-only and excluded from
    the cache key.
    """

    kind: str
    config: Optional[SimulationConfig] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""

    def describe(self) -> str:
        if self.label:
            return self.label
        if self.config is not None:
            return self.config.describe()
        return self.kind


#: Config fields excluded from the cache key.  ``sanitize`` only adds
#: runtime checks — it cannot change a run's payload — so runs under
#: any sanitize mode share cache entries (and a strict CI pass warms
#: the cache for normal runs).
DIGEST_EXCLUDED_CONFIG_FIELDS = ("sanitize",)


def spec_digest(spec: RunSpec) -> str:
    """Content hash of a spec: config + params + kind + code salt."""
    config_doc = None
    if spec.config is not None:
        config_doc = canonical(spec.config)
        for excluded in DIGEST_EXCLUDED_CONFIG_FIELDS:
            config_doc.pop(excluded, None)
    return digest_document(
        {
            "version": HASH_SCHEME_VERSION,
            "kind": spec.kind,
            "config": config_doc,
            "params": canonical(dict(spec.params)),
            "salt": code_salt(),
        }
    )


def experiment_spec(config: SimulationConfig, label: str = "") -> RunSpec:
    """The common case: one :func:`run_experiment` call as a spec."""
    return RunSpec(kind="experiment", config=config, label=label)


# ----------------------------------------------------------------------
# Kind registry
# ----------------------------------------------------------------------
KindFn = Callable[[RunSpec, Any], Dict[str, Any]]

_KINDS: Dict[str, KindFn] = {}


def register_kind(name: str) -> Callable[[KindFn], KindFn]:
    """Decorator registering the run function for a spec kind."""

    def decorator(fn: KindFn) -> KindFn:
        _KINDS[name] = fn
        return fn

    return decorator


def resolve_kind(name: str) -> KindFn:
    """The run function registered for ``name``."""
    try:
        return _KINDS[name]
    except KeyError:
        raise ConfigurationError(f"unknown run kind {name!r}") from None


def run_spec(spec: RunSpec, obs=None) -> Dict[str, Any]:
    """Execute one spec in this process; returns its JSON-able payload."""
    return resolve_kind(spec.kind)(spec, obs)


@register_kind("experiment")
def _experiment_kind(spec: RunSpec, obs=None) -> Dict[str, Any]:
    from repro.simulation.runner import run_experiment

    if spec.config is None:
        raise ConfigurationError("experiment spec needs a config")
    return run_experiment(spec.config, obs=obs).to_dict()
