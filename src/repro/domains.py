"""The domain of every configuration field, stated once.

Each field of a frozen configuration value names its :class:`Domain` with
:func:`declared`; :func:`check_fields`, run from each ``__post_init__``,
refuses a value outside it with a :class:`ConfigurationError` naming the
field.  A numpy int is a count and a numpy bool a bool; a bool is no number.
This module imports only the exceptions, so every module can use it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, field, fields
from typing import Any, Callable, Dict, NamedTuple, Tuple

from repro.exceptions import ConfigurationError


class Domain(NamedTuple):
    """The values a field accepts: ``check(value)``, and its ``rule``."""

    check: Callable[[Any], bool]
    rule: str


def _real(value: Any) -> bool:
    return type(value) in (int, float) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool))


def _whole(value: Any) -> bool:
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool))


def fraction(low_open: bool = False, high_open: bool = False) -> Domain:
    """A real in the unit interval, each end closed unless said open."""
    ends = "(" if low_open else "[", ")" if high_open else "]"
    return Domain(lambda value: _real(value)
                  and (0 < value if low_open else 0 <= value)
                  and (value < 1 if high_open else value <= 1),
                  f"in {ends[0]}0, 1{ends[1]}")


def instance(kind: type) -> Domain:
    """An instance of ``kind``: an enum's string spelling is not one."""
    return Domain(lambda value: isinstance(value, kind), f"a {kind.__name__}")


def one_of(*values: Any) -> Domain:
    """One of ``values``, by equality."""
    return Domain(lambda value: value in values, "one of " + ", ".join(
        str(getattr(value, "value", value)) for value in values))


def optional(domain: Domain) -> Domain:
    """``None`` (not set) or a value of ``domain``."""
    return Domain(lambda value: value is None or domain.check(value),
                  f"None or {domain.rule}")


COUNT = Domain(lambda value: _whole(value) and value >= 1, "an integer >= 1")
COUNT0 = Domain(lambda value: _whole(value) and value >= 0, "an integer >= 0")
#: A whole number of bytes: a whole float (``4096.0``) is one too.
WHOLE = Domain(lambda value: _real(value) and value >= 1
               and float(value).is_integer(), "a whole number >= 1")
POSITIVE = Domain(lambda value: _real(value) and 0 < value < math.inf,
                  "finite and > 0")
NONNEGATIVE = Domain(lambda value: _real(value) and 0 <= value < math.inf,
                     "finite and >= 0")
AT_LEAST_ONE = Domain(lambda value: _real(value) and 1 <= value < math.inf,
                      "finite and >= 1")
FRACTION = fraction()
#: True or False: NaN or 2.5 is not taken as true.
BOOL = Domain(lambda value: isinstance(value, bool) or (
    not isinstance(value, numbers.Number) and value in (True, False)),
    "a bool")


def declared(domain: Domain, default: Any = MISSING, *,
             default_factory: Any = MISSING) -> Any:
    """A dataclass field that :func:`check_fields` holds to ``domain``."""
    return field(default=default, default_factory=default_factory,
                 metadata={"domain": domain})


#: ``(name, check, rule)`` of each checked class's fields, built once.
_CHECKS: Dict[type, Tuple[Tuple[str, Callable[[Any], bool], str], ...]] = {}


def check_fields(owner: Any) -> None:
    """Raise :class:`ConfigurationError` naming the first field of the
    dataclass value ``owner`` that lies outside its declared domain."""
    kind = type(owner)
    checks = _CHECKS.get(kind)
    if checks is None:  # a field that declares no domain is a KeyError
        checks = _CHECKS[kind] = tuple(
            (each.name, *each.metadata["domain"]) for each in fields(kind))
    for name, check, rule in checks:
        value = getattr(owner, name)
        if not check(value):
            raise ConfigurationError(
                f"{kind.__name__}.{name} must be {rule}, got {value!r}")


def require(name: str, value: Any, domain: Domain,
            error: type = ConfigurationError) -> None:
    """Refuse an argument ``name`` whose ``value`` lies outside ``domain``."""
    if not domain.check(value):
        raise error(f"{name} must be {domain.rule}, got {value!r}")
