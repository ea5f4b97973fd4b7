"""Counter registry — the fabric's single source of runtime statistics.

Every stat producer in the data path (switches, HCAs, links, the SM, the
three port-filter policies, auth services, attackers) registers named
:class:`Counter` objects into one :class:`CounterRegistry` instead of
keeping bespoke ``self.<stat> = 0`` integers.  That buys three things:

* **one namespace** — ``registry.snapshot()`` is the complete statistical
  state of a run, with hierarchical dotted names
  (``switch.s1x0.filtered_drops``, ``filter.s1x0.p0.activations``,
  ``hca.3.delivered``, ``sm.traps_processed``);
* **survivability** — the snapshot is a plain ``dict[str, int | float]``
  that pickles into :class:`~repro.sim.runner.SimReport` and therefore
  crosses the parallel-sweep process boundary and lands in the
  ``.sweep_cache/`` unchanged;
* **aggregation** — report builders sum over glob patterns
  (:meth:`CounterRegistry.total`) instead of walking object graphs.

A :class:`Counter` emulates an integer (comparisons, arithmetic,
``sum()``, formatting), so call sites that *read* statistics —
``sum(sw.forwarded for ...)``, ``assert filt.drops > 0`` — keep working
verbatim; only the *producers* change, from ``self.x += 1`` to
``self.x.inc()``.  ``tools/check_bare_counters.py`` enforces that no new
bare-integer stat sneaks back into ``iba/`` or ``core/``.

Counters are always on: there is no disabled registry, so every report's
snapshot is the run's full statistical state.
Tracing, by contrast, is opt-in per run (see DESIGN.md §3f).
"""

from __future__ import annotations

from fnmatch import fnmatchcase


class Counter:
    """A named, mutable, int-emulating statistic.

    Mutation goes through :meth:`inc` / :meth:`add` (never ``+=`` on the
    attribute — that would rebind the attribute to a plain number and
    detach it from the registry).  Reads behave like the underlying
    number: ``int(c)``, ``c > 0``, ``c == 5``, ``sum([...])``, ``f"{c}"``
    all work.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int | float = 0) -> None:
        self.name = name
        self.value = value

    # -- mutation ----------------------------------------------------------

    def inc(self, n: int | float = 1) -> None:
        self.value += n

    add = inc  #: alias — reads better for non-unit increments.

    def reset(self) -> None:
        self.value = 0

    # -- number emulation --------------------------------------------------

    @staticmethod
    def _val(other):
        return other.value if isinstance(other, Counter) else other

    def __int__(self) -> int:
        return int(self.value)

    __index__ = __int__

    def __float__(self) -> float:
        return float(self.value)

    def __bool__(self) -> bool:
        return bool(self.value)

    def __eq__(self, other) -> bool:
        return self.value == self._val(other)

    def __ne__(self, other) -> bool:
        return self.value != self._val(other)

    def __lt__(self, other) -> bool:
        return self.value < self._val(other)

    def __le__(self, other) -> bool:
        return self.value <= self._val(other)

    def __gt__(self, other) -> bool:
        return self.value > self._val(other)

    def __ge__(self, other) -> bool:
        return self.value >= self._val(other)

    def __add__(self, other):
        return self.value + self._val(other)

    __radd__ = __add__

    def __sub__(self, other):
        return self.value - self._val(other)

    def __rsub__(self, other):
        return self._val(other) - self.value

    def __mul__(self, other):
        return self.value * self._val(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.value / self._val(other)

    def __rtruediv__(self, other):
        return self._val(other) / self.value

    def __neg__(self):
        return -self.value

    # Counters are mutable: identity hash (like any plain object), even
    # though equality compares values.  They are never used as dict keys
    # for value lookup.
    def __hash__(self) -> int:
        return id(self)

    def __format__(self, spec: str) -> str:
        return format(self.value, spec)

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value!r})"


class CounterRegistry:
    """Flat, ordered namespace of :class:`Counter` objects.

    Names are dotted paths: ``<component>.<instance>.<stat>``.  Requesting
    an existing name returns the same object, so a component constructed
    twice against the same registry shares (and keeps accumulating into)
    its counters — components therefore use unique instance scopes.

    A registry is always live: every counter it hands out records, and the
    simulation may read a counter to make decisions (SIF's Invalid P_Key
    violation counter drives its idle timeout).
    """

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}

    def counter(self, name: str, initial: int | float = 0) -> Counter:
        """Create (or fetch) the counter called *name*."""
        c = self._counters.get(name)
        if c is None:
            c = Counter(name, initial)
            self._counters[name] = c
        return c

    #: Gauges are counters whose value is *set* rather than accumulated;
    #: the registry does not distinguish — the alias documents intent.
    gauge = counter

    def get(self, name: str) -> int | float:
        """Current value of *name* (0 when never registered)."""
        c = self._counters.get(name)
        return c.value if c is not None else 0

    def names(self) -> list[str]:
        return sorted(self._counters)

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def __len__(self) -> int:
        return len(self._counters)

    def total(self, pattern: str) -> int | float:
        """Sum of every counter whose name matches the glob *pattern*
        (e.g. ``switch.*.filtered_drops``)."""
        return sum(
            c.value for name, c in self._counters.items()
            if fnmatchcase(name, pattern)
        )

    def snapshot(self, pattern: str | None = None) -> dict[str, int | float]:
        """Plain, picklable ``{name: value}`` dict (sorted by name);
        *pattern* optionally restricts to matching names."""
        return {
            name: self._counters[name].value
            for name in sorted(self._counters)
            if pattern is None or fnmatchcase(name, pattern)
        }
