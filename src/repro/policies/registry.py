"""Decorator registry for scheduling policies.

Mirrors :mod:`repro.benchkit.registry`: each policy module registers its
factories at import time::

    from repro.policies import Policy, register_policy

    @register_policy("greedy", kind="offline",
                     description="minimal-feasible greedy sweep")
    class GreedyPolicy(Policy):
        ...

Re-importing the same module replaces the entry silently (pytest and the
CLI in one process); two *different* modules claiming one name is a
:class:`PolicyError`.  :func:`make_policy` builds a fresh instance per
call, so registered policies never share state across runs, and stamps
the registered name, kind and description on it: a policy's identity is
declared once, in its decorator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.instances.jobs import Instance
from repro.policies.base import POLICY_KINDS, Policy, PolicyError, PolicyResult


@dataclass(frozen=True)
class PolicySpec:
    """One registered policy: identity plus its factory."""

    name: str
    kind: str
    description: str
    factory: Callable[..., Policy]
    module: str


_REGISTRY: dict[str, PolicySpec] = {}


def register_policy(
    name: str, *, kind: str, description: str = ""
) -> Callable[[Callable[..., Policy]], Callable[..., Policy]]:
    """Decorator: add a policy factory (class or callable) to the registry."""
    if kind not in POLICY_KINDS:
        raise PolicyError(
            f"policy kind {kind!r} not in {POLICY_KINDS} (policy {name!r})"
        )
    if not name or name != name.strip().lower():
        raise PolicyError(
            f"policy name {name!r} must be non-empty lowercase (it is the "
            "CLI / service spelling)"
        )

    def wrap(factory: Callable[..., Policy]) -> Callable[..., Policy]:
        module = getattr(factory, "__module__", "?")
        existing = _REGISTRY.get(name)
        if (
            existing is not None
            and existing.module != module
            and "__main__" not in (existing.module, module)
        ):
            raise PolicyError(
                f"duplicate policy name {name!r}: already registered by "
                f"{existing.module}, re-registered by {module}"
            )
        spec = PolicySpec(
            name=name,
            kind=kind,
            description=description,
            factory=factory,
            module=module,
        )
        _REGISTRY[name] = spec
        return factory

    return wrap


def policy_specs() -> dict[str, PolicySpec]:
    """The registry, name → spec, sorted by (kind, name) for display."""
    return dict(
        sorted(
            _REGISTRY.items(),
            key=lambda kv: (POLICY_KINDS.index(kv[1].kind), kv[0]),
        )
    )


def policy_names() -> list[str]:
    """Registered names in display order."""
    return list(policy_specs())


def make_policy(name: str, **params: Any) -> Policy:
    """Instantiate a registered policy by name.

    ``params`` go to the policy's factory (e.g. ``node_budget`` for
    ``exact``).  Raises :class:`PolicyError` naming the known policies
    for unknown names — callers (CLI, service) surface that list to the
    user.
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        raise PolicyError(
            f"unknown policy {name!r}; known policies: "
            f"{', '.join(sorted(_REGISTRY)) or '(none registered)'}"
        )
    policy = spec.factory(**params)
    if not isinstance(policy, Policy):
        raise PolicyError(
            f"factory for policy {name!r} returned {type(policy).__name__}, "
            "not a Policy"
        )
    policy.name, policy.kind = spec.name, spec.kind
    policy.description = spec.description
    return policy


def run_policy(name: str, instance: Instance) -> PolicyResult:
    """One-shot convenience: instantiate and run a registered policy."""
    return make_policy(name).run(instance)
