"""Typed component registry + declarative scenario specs.

The paper's evaluation is a *comparison of policies* under a traffic mix, yet
until this module existed the comparison was hard-wired: schedulers came from
a literal dict in :mod:`repro.experiments.common`, and the traffic / mobility
/ channel / placement models were fixed dataclass fields a caller had to
construct by hand.  This module makes the wiring declarative:

* a :class:`ComponentRegistry` holds **named, registered implementations**
  under namespaced kinds (``scheduler``, ``traffic``, ``mobility``,
  ``channel``, ``placement``).  A new policy is one class + one
  ``@register("scheduler", "my-policy")`` decorator in its own file — nothing
  else to edit;
* a **scenario spec** is a plain dict (hand-written, or loaded from a TOML /
  JSON file via :func:`load_scenario_spec`) that *names* registered
  components with kwargs.  :func:`build_scenario` turns a spec into a
  concrete :class:`~repro.simulation.scenario.ScenarioConfig` plus a
  scheduler instance; :func:`spec_from_scenario` round-trips a config back
  into a spec; :func:`spec_fingerprint` gives a stable digest so campaign
  checkpoints and result archives can refuse mismatched specs.

Spec format (TOML spelling; JSON is the same shape)::

    version = 1

    [scheduler]               # registry kind "scheduler"
    name = "proportional-fair"
    time_constant_frames = 64

    [traffic]                 # a registered mix, or raw TrafficConfig fields
    name = "web-video"

    [mobility]
    name = "pedestrian"

    [placement]
    name = "hotspot"
    fraction = 0.6

    [channel]                 # a registered RadioConfig profile
    name = "dense-urban"

    [scenario]                # plain ScenarioConfig fields
    num_data_users_per_cell = 12
    duration_s = 10.0
    seed = 2001

Every section is optional; an empty spec builds the library-default scenario
with the paper's JABA-SD(J1) scheduler.  Unknown sections, component names
and kwargs all fail fast with errors that list the accepted alternatives.
The one allowance is for saved specs: a ``scenario`` key of a retired
``ScenarioConfig`` field, and a ``system.radio`` or ``channel`` key of a
retired ``RadioConfig`` field, is dropped with a :class:`DeprecationWarning`
(see :func:`validate_spec`).
"""

from __future__ import annotations

import ast
import dataclasses
import difflib
import hashlib
import inspect
import json
import typing
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "KINDS",
    "RegistryError",
    "UnknownComponentError",
    "DuplicateComponentError",
    "SpecError",
    "Registration",
    "ComponentRegistry",
    "registry",
    "register",
    "create",
    "component_names",
    "describe_components",
    "ensure_builtin_components",
    "parse_component_spec",
    "load_scenario_spec",
    "validate_spec",
    "build_scenario",
    "spec_from_scenario",
    "spec_fingerprint",
    "BuiltScenario",
]

#: The namespaced component kinds a scenario is composed from.
KINDS = ("scheduler", "traffic", "mobility", "channel", "placement")

#: Spec sections that are *not* registry components.
_PLAIN_SECTIONS = ("scenario", "system", "version")

SCENARIO_SPEC_VERSION = 1


class RegistryError(Exception):
    """Base class of every registry / spec failure."""


class UnknownComponentError(RegistryError, KeyError):
    """A component name (or kind) that nothing registered.

    Subclasses :class:`KeyError` so callers that guarded the old literal
    scheduler dict with ``except KeyError`` keep working.
    """

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message flat
        return self.args[0] if self.args else ""


class DuplicateComponentError(RegistryError, ValueError):
    """Two registrations under the same (kind, name)."""


class SpecError(RegistryError, ValueError):
    """A malformed scenario spec or component kwargs."""


def _suggest(name: str, known: Sequence[str]) -> str:
    """``did you mean`` clause + the full list of alternatives."""
    close = difflib.get_close_matches(name, known, n=3, cutoff=0.5)
    hint = f" (did you mean {', '.join(repr(c) for c in close)}?)" if close else ""
    return f"{hint}; known: {sorted(known)}"


@dataclass(frozen=True)
class Registration:
    """One registered component: factory + default kwargs + a doc line."""

    kind: str
    name: str
    factory: Callable[..., Any]
    defaults: Mapping[str, Any]
    summary: str

    def accepted_parameters(self) -> Optional[List[str]]:
        """Keyword parameters the factory accepts; ``None`` if it takes **kwargs."""
        try:
            signature = inspect.signature(self.factory)
        except (TypeError, ValueError):  # pragma: no cover - builtins
            return None
        names: List[str] = []
        for param in signature.parameters.values():
            if param.kind is inspect.Parameter.VAR_KEYWORD:
                return None
            if param.kind in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            ):
                names.append(param.name)
        return names

    def build(self, **kwargs: Any) -> Any:
        """Instantiate the component with ``defaults`` overridden by ``kwargs``."""
        merged = {**self.defaults, **kwargs}
        accepted = self.accepted_parameters()
        if accepted is not None:
            unknown = [key for key in merged if key not in accepted]
            if unknown:
                raise SpecError(
                    f"{self.kind} {self.name!r} got unknown parameter(s) "
                    f"{sorted(unknown)}; accepted: {sorted(accepted)}"
                )
        try:
            return self.factory(**merged)
        except TypeError as exc:
            raise SpecError(
                f"{self.kind} {self.name!r} rejected its parameters: {exc}"
            ) from exc


class ComponentRegistry:
    """Named factories, namespaced by component kind.

    The module-level :data:`registry` instance is what the library uses;
    separate instances exist only for tests.
    """

    def __init__(self, kinds: Sequence[str] = KINDS) -> None:
        self._components: Dict[str, Dict[str, Registration]] = {
            kind: {} for kind in kinds
        }

    # -- registration -----------------------------------------------------------
    def _kind_table(self, kind: str) -> Dict[str, Registration]:
        try:
            return self._components[kind]
        except KeyError:
            raise UnknownComponentError(
                f"unknown component kind {kind!r}"
                f"{_suggest(kind, list(self._components))}"
            ) from None

    def add(
        self,
        kind: str,
        name: str,
        factory: Callable[..., Any],
        defaults: Optional[Mapping[str, Any]] = None,
        summary: Optional[str] = None,
    ) -> Registration:
        """Register ``factory`` under ``(kind, name)``; error on duplicates."""
        table = self._kind_table(kind)
        if name in table:
            existing = table[name].factory
            raise DuplicateComponentError(
                f"{kind} {name!r} is already registered "
                f"(by {getattr(existing, '__qualname__', existing)!r}); "
                f"pick a different name or remove the old registration"
            )
        if summary is None:
            doc = inspect.getdoc(factory) or ""
            summary = doc.split("\n", 1)[0]
        registration = Registration(
            kind=kind,
            name=name,
            factory=factory,
            defaults=dict(defaults or {}),
            summary=summary,
        )
        table[name] = registration
        return registration

    def register(
        self,
        kind: str,
        name: str,
        *,
        defaults: Optional[Mapping[str, Any]] = None,
        summary: Optional[str] = None,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator form of :meth:`add`: returns the factory unchanged."""

        def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
            self.add(kind, name, factory, defaults=defaults, summary=summary)
            return factory

        return decorator

    # -- lookup -----------------------------------------------------------------
    def get(self, kind: str, name: str) -> Registration:
        """The registration of ``(kind, name)``; helpful error when unknown."""
        table = self._kind_table(kind)
        if name not in table:
            raise UnknownComponentError(
                f"unknown {kind} {name!r}{_suggest(name, list(table))}"
            )
        return table[name]

    def create(self, kind: str, name: str, **kwargs: Any) -> Any:
        """Instantiate ``(kind, name)`` with ``kwargs`` over its defaults."""
        return self.get(kind, name).build(**kwargs)

    def names(self, kind: str) -> List[str]:
        """Sorted names registered under ``kind``."""
        return sorted(self._kind_table(kind))

    def registrations(self, kind: str) -> List[Registration]:
        """Registrations of ``kind`` in name order."""
        table = self._kind_table(kind)
        return [table[name] for name in sorted(table)]

    def describe(self) -> Dict[str, Dict[str, str]]:
        """``{kind: {name: summary}}`` over everything registered."""
        return {
            kind: {name: table[name].summary for name in sorted(table)}
            for kind, table in self._components.items()
        }


#: The library-wide registry all built-in components register into.
registry = ComponentRegistry()

#: Module-level decorator used by the component modules:
#: ``@register("scheduler", "my-policy")``.
register = registry.register

_populated = False


def ensure_builtin_components() -> None:
    """Import the modules that register the built-in component zoo.

    Registration happens at import time of the component modules (that is
    what keeps "one policy = one file" true), so lookups must make sure
    those modules were imported.  Idempotent and cycle-safe: the component
    modules import only the registry *core* from here.
    """
    global _populated
    if _populated:
        return
    _populated = True
    import repro.mac.schedulers  # noqa: F401  (registers the policy zoo)
    import repro.simulation.placement  # noqa: F401  (placement models)
    import repro.simulation.presets  # noqa: F401  (traffic/mobility/channel)


def create(kind: str, name: str, **kwargs: Any) -> Any:
    """Instantiate a registered component (built-ins auto-populated)."""
    ensure_builtin_components()
    return registry.create(kind, name, **kwargs)


def component_names(kind: str) -> List[str]:
    """Names registered under ``kind`` (built-ins auto-populated)."""
    ensure_builtin_components()
    return registry.names(kind)


def describe_components() -> Dict[str, Dict[str, str]]:
    """``{kind: {name: summary}}`` over the populated registry."""
    ensure_builtin_components()
    return registry.describe()


# ---------------------------------------------------------------------------
# Component spec strings — "name:key=value,key=value"
# ---------------------------------------------------------------------------
def parse_component_spec(text: str) -> Tuple[str, Dict[str, Any]]:
    """Parse ``"name[:k=v,...]"`` into ``(name, kwargs)``.

    Values are parsed as Python literals when possible (``1``, ``0.5``,
    ``True``) and kept as strings otherwise (``J1``), which is what the CLI's
    ``--scheduler jaba-sd:objective=J1,solver=greedy`` spelling needs.
    """
    text = text.strip()
    if not text:
        raise SpecError("component spec must not be empty")
    name, _, tail = text.partition(":")
    name = name.strip()
    kwargs: Dict[str, Any] = {}
    if tail.strip():
        for item in tail.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key.strip():
                raise SpecError(
                    f"malformed component spec item {item!r} in {text!r}; "
                    f"expected name:key=value[,key=value...]"
                )
            try:
                parsed: Any = ast.literal_eval(value.strip())
            except (ValueError, SyntaxError):
                parsed = value.strip()
            kwargs[key.strip()] = parsed
    return name, kwargs


def format_component_spec(name: str, kwargs: Mapping[str, Any]) -> str:
    """Inverse of :func:`parse_component_spec` (for labels and logs)."""
    if not kwargs:
        return name
    tail = ",".join(f"{key}={kwargs[key]!r}" for key in sorted(kwargs))
    return f"{name}:{tail}"


# ---------------------------------------------------------------------------
# Dataclass <-> plain-dict conversion (nested, tuple-aware)
# ---------------------------------------------------------------------------
def _from_plain(field_type: Any, value: Any) -> Any:
    """Rebuild a dataclass field value from its JSON/TOML representation."""
    if dataclasses.is_dataclass(field_type) and isinstance(value, Mapping):
        return _dataclass_from_dict(field_type, value)
    origin = typing.get_origin(field_type)
    if origin is tuple and isinstance(value, (list, tuple)):
        return tuple(value)
    return value


def _dataclass_from_dict(cls: type, data: Mapping[str, Any], where: str = "") -> Any:
    """Construct dataclass ``cls`` from a plain mapping, with helpful errors."""
    where = where or cls.__name__
    if not isinstance(data, Mapping):
        raise SpecError(f"{where} section must be a mapping, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    valid = {field.name for field in dataclasses.fields(cls)}
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        if key not in valid:
            raise SpecError(
                f"unknown {where} field {key!r}{_suggest(key, sorted(valid))}"
            )
        kwargs[key] = _from_plain(hints.get(key), value)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid {where} section: {exc}") from exc


def _dataclass_to_dict(value: Any) -> Any:
    """``dataclasses.asdict`` with tuples flattened to lists (JSON/TOML shape)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _dataclass_to_dict(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, tuple):
        return [_dataclass_to_dict(item) for item in value]
    return value


# ---------------------------------------------------------------------------
# Scenario specs
# ---------------------------------------------------------------------------
def load_scenario_spec(path: str) -> Dict[str, Any]:
    """Load a scenario spec from a ``.toml`` or ``.json`` file."""
    text_path = str(path)
    if text_path.endswith(".toml"):
        import tomllib

        with open(text_path, "rb") as handle:
            spec = tomllib.load(handle)
    else:
        with open(text_path, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
    if not isinstance(spec, dict):
        raise SpecError(f"scenario spec {text_path!r} must be a mapping at top level")
    return spec


#: ``scenario`` keys of :class:`~repro.simulation.scenario.ScenarioConfig`
#: fields that no longer exist, with the reason each is ignored.  Every spec
#: :func:`spec_from_scenario` wrote while a field existed carries its key.
_RETIRED_SCENARIO_KEYS = {
    "batched_fleet": "the per-user layer always runs on the structure-of-arrays fleets",
    "batched_admission": "the admission builders always run the queue-wide kernels",
    "warm_start_power_control": "every power-control solve starts cold",
    "warm_start_solver": "the scheduler carries no state from one decision to the next",
    "power_control_tolerance": "power control solves for its exact fixed point",
}

#: ``system.radio`` and ``channel`` keys of :class:`~repro.config.RadioConfig`
#: fields that no longer exist, with the reason each is ignored.
_RETIRED_RADIO_KEYS = {
    "doppler_hz": "the link gains are local means; VTAOC averages over the fast fading",
    "power_control_iterations": "power control solves for its exact fixed point",
    "power_control_tolerance": "power control solves for its exact fixed point",
}


def _drop_retired_keys(section: Dict[str, Any], retired: Mapping[str, str], where: str) -> None:
    for key, reason in retired.items():
        if key in section:
            legacy = section.pop(key)
            warnings.warn(
                f"{where}-spec key {key}={legacy!r} is ignored: {reason}",
                DeprecationWarning,
                stacklevel=4,
            )


def validate_spec(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """Normalise a spec: check sections, fill the version, copy mutables.

    A ``scenario`` key of :data:`_RETIRED_SCENARIO_KEYS`, and a
    ``system.radio`` or ``channel`` key of :data:`_RETIRED_RADIO_KEYS`, is
    dropped with a :class:`DeprecationWarning`, so a saved spec that carries
    it builds, and fingerprints, like the same spec without it.
    """
    allowed = set(KINDS) | set(_PLAIN_SECTIONS)
    normalized: Dict[str, Any] = {}
    for key, value in spec.items():
        if key not in allowed:
            raise SpecError(
                f"unknown scenario-spec section {key!r}"
                f"{_suggest(key, sorted(allowed))}"
            )
        normalized[key] = dict(value) if isinstance(value, Mapping) else value
    scenario = normalized.get("scenario")
    if isinstance(scenario, dict):
        _drop_retired_keys(scenario, _RETIRED_SCENARIO_KEYS, "scenario")
    system = normalized.get("system")
    if isinstance(system, dict) and isinstance(system.get("radio"), Mapping):
        system["radio"] = dict(system["radio"])
        _drop_retired_keys(system["radio"], _RETIRED_RADIO_KEYS, "system.radio")
    if isinstance(normalized.get("channel"), dict):
        _drop_retired_keys(normalized["channel"], _RETIRED_RADIO_KEYS, "channel")
    version = normalized.setdefault("version", SCENARIO_SPEC_VERSION)
    if version != SCENARIO_SPEC_VERSION:
        raise SpecError(
            f"unsupported scenario-spec version {version!r} "
            f"(this library reads version {SCENARIO_SPEC_VERSION})"
        )
    for kind in KINDS:
        section = normalized.get(kind)
        if section is None:
            continue
        if not isinstance(section, Mapping):
            raise SpecError(f"spec section {kind!r} must be a mapping")
        name = section.get("name")
        if name is not None and not isinstance(name, str):
            raise SpecError(f"spec section {kind!r} has a non-string name: {name!r}")
    return normalized


def _component_section(
    spec: Mapping[str, Any], kind: str
) -> Tuple[Optional[str], Dict[str, Any]]:
    """``(name, kwargs)`` of a component section (name may be absent)."""
    section = dict(spec.get(kind) or {})
    name = section.pop("name", None)
    return name, section


def _build_system(spec: Mapping[str, Any]):
    from repro.config import SystemConfig

    section = spec.get("system")
    if section is None:
        system = SystemConfig()
    else:
        system = _dataclass_from_dict(SystemConfig, section, where="system")
    channel_name, channel_kwargs = _component_section(spec, "channel")
    if channel_name is not None:
        ensure_builtin_components()
        radio = registry.create("channel", channel_name, **channel_kwargs)
        system = system.with_overrides(radio=radio)
    return system


@dataclass(frozen=True)
class BuiltScenario:
    """What :func:`build_scenario` assembles from one spec.

    Attributes
    ----------
    scenario:
        The concrete :class:`~repro.simulation.scenario.ScenarioConfig`.
    scheduler:
        The instantiated scheduling policy.
    scheduler_section:
        The normalised ``{"name": ..., **kwargs}`` mapping the scheduler was
        built from — picklable, so campaign grids can ship it to workers as
        a scheduler spec (see
        :func:`repro.experiments.common.scheduler_from_spec`).
    spec:
        The normalised spec (version filled in, sections copied).
    fingerprint:
        :func:`spec_fingerprint` of ``spec`` — stable across processes, used
        to refuse archives/checkpoints written under a different spec.
    """

    scenario: Any
    scheduler: Any
    scheduler_section: Dict[str, Any]
    spec: Dict[str, Any]
    fingerprint: str


def build_scenario(spec: Mapping[str, Any]) -> BuiltScenario:
    """Assemble a concrete scenario + scheduler from a declarative spec.

    Composition order: the ``system`` section (full nested
    :class:`~repro.config.SystemConfig` dump) is built first, then a named
    ``channel`` profile overrides its radio section, then ``traffic`` /
    ``mobility`` / ``placement`` components and the plain ``scenario`` fields
    are applied.  The ``scheduler`` section defaults to the paper's
    JABA-SD(J1).
    """
    from repro.simulation.scenario import (
        MobilityConfig,
        PlacementConfig,
        ScenarioConfig,
        TrafficConfig,
    )

    ensure_builtin_components()
    spec = validate_spec(spec)

    scheduler_name, scheduler_kwargs = _component_section(spec, "scheduler")
    if scheduler_name is None:
        if scheduler_kwargs:
            raise SpecError(
                "scheduler section needs a name= entry naming a registered "
                f"policy; known: {registry.names('scheduler')}"
            )
        scheduler_name = "jaba-sd"
        scheduler_kwargs = {"objective": "J1"}
    scheduler = registry.create("scheduler", scheduler_name, **scheduler_kwargs)

    traffic_name, traffic_kwargs = _component_section(spec, "traffic")
    if traffic_name is None:
        traffic = _dataclass_from_dict(TrafficConfig, traffic_kwargs, where="traffic")
    else:
        traffic = registry.create("traffic", traffic_name, **traffic_kwargs)

    mobility_name, mobility_kwargs = _component_section(spec, "mobility")
    if "speed_range_m_s" in mobility_kwargs:
        mobility_kwargs["speed_range_m_s"] = tuple(mobility_kwargs["speed_range_m_s"])
    if mobility_name is None:
        mobility = _dataclass_from_dict(
            MobilityConfig, mobility_kwargs, where="mobility"
        )
    else:
        mobility = registry.create("mobility", mobility_name, **mobility_kwargs)

    placement_name, placement_kwargs = _component_section(spec, "placement")
    if placement_name is None:
        placement = _dataclass_from_dict(
            PlacementConfig, placement_kwargs, where="placement"
        )
    else:
        placement = registry.create(
            "placement", placement_name, **placement_kwargs
        ).to_config()

    system = _build_system(spec)

    scenario_kwargs = dict(spec.get("scenario") or {})
    for reserved in ("system", "traffic", "mobility", "placement"):
        if reserved in scenario_kwargs:
            raise SpecError(
                f"scenario section must not set {reserved!r} directly; use the "
                f"dedicated [{reserved}] / [channel] sections"
            )
    valid = {field.name for field in dataclasses.fields(ScenarioConfig)}
    for key in scenario_kwargs:
        if key not in valid:
            raise SpecError(
                f"unknown scenario field {key!r}{_suggest(key, sorted(valid))}"
            )
    try:
        scenario = ScenarioConfig(
            system=system,
            traffic=traffic,
            mobility=mobility,
            placement=placement,
            **scenario_kwargs,
        )
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid scenario section: {exc}") from exc

    return BuiltScenario(
        scenario=scenario,
        scheduler=scheduler,
        scheduler_section={"name": scheduler_name, **scheduler_kwargs},
        spec=spec,
        fingerprint=spec_fingerprint(spec),
    )


def spec_from_scenario(
    scenario: Any, scheduler: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """Round-trip a :class:`ScenarioConfig` back into a declarative spec.

    ``build_scenario(spec_from_scenario(cfg)).scenario == cfg`` holds for any
    config (the whole system section is dumped, so nothing is lost).  The
    scheduler is not part of a :class:`ScenarioConfig`; pass a
    ``{"name": ..., **kwargs}`` mapping to embed one in the spec.
    """
    from repro.config import SystemConfig
    from repro.simulation.scenario import ScenarioConfig

    if not isinstance(scenario, ScenarioConfig):
        raise SpecError(
            f"spec_from_scenario expects a ScenarioConfig, got {type(scenario).__name__}"
        )
    spec: Dict[str, Any] = {"version": SCENARIO_SPEC_VERSION}
    if scheduler is not None:
        scheduler = dict(scheduler)
        if "name" not in scheduler:
            raise SpecError("scheduler mapping needs a 'name' entry")
        spec["scheduler"] = scheduler
    if scenario.system != SystemConfig():
        spec["system"] = _dataclass_to_dict(scenario.system)
    spec["traffic"] = _dataclass_to_dict(scenario.traffic)
    spec["mobility"] = _dataclass_to_dict(scenario.mobility)
    placement = scenario.placement
    spec["placement"] = {
        "name": placement.kind,
        **(
            {
                "fraction": placement.hotspot_fraction,
                "radius_fraction": placement.hotspot_radius_fraction,
                "cell": placement.hotspot_cell,
            }
            if placement.kind == "hotspot"
            else {}
        ),
    }
    scalar_fields = {}
    for field in dataclasses.fields(ScenarioConfig):
        if field.name in ("system", "traffic", "mobility", "placement"):
            continue
        scalar_fields[field.name] = getattr(scenario, field.name)
    spec["scenario"] = scalar_fields
    return validate_spec(spec)


def _canonical(value: Any) -> Any:
    """JSON-stable shape: mappings key-sorted, tuples as lists."""
    if isinstance(value, Mapping):
        return {str(key): _canonical(value[key]) for key in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def spec_fingerprint(spec: Mapping[str, Any]) -> str:
    """Stable 16-hex digest of a (normalised) scenario spec.

    Key order, TOML-vs-JSON provenance and tuple-vs-list spelling do not
    change the fingerprint; any value change does.  Campaign metadata carries
    this digest so checkpoints written under a different spec are refused.
    """
    normalized = validate_spec(spec)
    payload = json.dumps(_canonical(normalized), sort_keys=True, allow_nan=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
