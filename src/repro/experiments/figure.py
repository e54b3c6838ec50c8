"""A sweep figure as data: one value, one driver, one renderer.

Most of the paper's evaluation has one shape -- a metric of a set of
systems across models x bandwidths x cluster sizes, plus a few cluster
axes -- so a figure of that shape is one frozen :class:`Figure`: its axes,
the reduced axes ``--quick`` uses, and a layout of text blocks.
:meth:`Figure.run` expands the axes into :class:`~repro.sweep.SweepTask`
objects through :func:`~repro.simulation.speedup.curve_tasks`, runs each
distinct simulation once (:func:`~repro.simulation.speedup.run_points`)
and merges the results by key into one :class:`Points` mapping;
:func:`render` prints a layout over it.  Merging by key, never by
completion order, keeps a report byte-identical for every ``--jobs``
value.

Block templates use ``str.format`` syntax over one :class:`Point`:
``{model.name}``, ``{system.name}``, ``{cluster.num_workers}``,
``{result.speedup:.1f}``, a derived metric such as ``{efficiency:.0%}``,
or one of the system's tags such as ``{policy}``.  ``{registry}`` names
the registered communication backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (Any, Dict, Hashable, Iterator, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple, Union)

from repro import units
from repro.comm.backend import registered_backends
from repro.config import ClusterConfig
from repro.config import SystemConfig
from repro.experiments.report import format_table
from repro.nn.model_zoo import get_model_spec
from repro.nn.spec import ModelSpec
from repro.simulation.speedup import curve_tasks, run_points
from repro.simulation.throughput import SimulationResult

_MISSING = object()


class Key(NamedTuple):
    """Where a point sits on every axis: its merge key."""

    model: str
    system: str
    bandwidth: float
    topology: Hashable
    nodes: int


class _Joined(tuple):
    """Numbers formatting as one space-separated run (``{x:.1f}``)."""

    def __format__(self, spec: str) -> str:
        return " ".join(format(value, spec) for value in self)


@dataclass(frozen=True)
class Point:
    """One simulated configuration of a figure and its result.

    Attributes:
        model, system, cluster: what was simulated.
        topology: the cluster-axis label (``None`` without a cluster axis).
        result: the simulation result.
        tags: the system's extra coordinates and template fields.
    """

    model: ModelSpec
    system: SystemConfig
    cluster: ClusterConfig
    topology: Hashable
    result: SimulationResult
    tags: Mapping[str, str]

    @property
    def key(self) -> Key:
        return Key(self.model.name, self.system.name,
                   self.cluster.bandwidth_gbps, self.topology,
                   self.cluster.num_workers)

    @property
    def coords(self) -> Dict[str, Hashable]:
        """Every coordinate a block can select on: the key's and the tags."""
        return {**self.key._asdict(), **self.tags}

    def __getitem__(self, name: str) -> Any:
        if name in self.tags:
            return self.tags[name]
        try:
            return getattr(self, name)
        except AttributeError:
            raise KeyError(name) from None

    @property
    def efficiency(self) -> float:
        """Speedup per node (1.0 = linear scaling)."""
        return self.result.speedup / self.cluster.num_workers

    @property
    def gpu_speedup(self) -> float:
        """Speedup over a single GPU: every GPU of a node counts."""
        return self.result.speedup * self.cluster.gpus_per_node

    @property
    def node_gbits(self) -> _Joined:
        """Traffic of every node in gigabits per iteration."""
        return _Joined(units.bytes_to_bits(nbytes) / units.GBIT
                       for nbytes in self.result.per_node_traffic_bytes)

    @property
    def imbalance(self) -> float:
        """Peak over mean per-node traffic (1.0 = perfectly balanced)."""
        mean = self.result.mean_traffic_gbits
        return self.result.max_traffic_gbits / mean if mean else 1.0


class Points(Dict[Key, Point]):
    """A figure's points keyed by :class:`Key`, in expansion order."""

    def where(self, **coords: Any) -> "Points":
        """The points on the given coordinates (key fields or tags).

        A value may be ``min`` or ``max``: the smallest or largest value the
        points selected so far take on that coordinate.
        """
        points = list(self.values())
        for name, value in coords.items():
            if callable(value):
                value = value(p.coords[name] for p in points
                              if name in p.coords)
            points = [p for p in points
                      if p.coords.get(name, _MISSING) == value]
        return Points((p.key, p) for p in points)

    def at(self, **coords: Any) -> Point:
        """The one point on the given coordinates.

        Raises:
            KeyError: if no point or more than one is there.
        """
        matches = list(self.where(**coords).values())
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} points at {coords}")
        return matches[0]


# -- layout blocks -----------------------------------------------------------------


@dataclass(frozen=True)
class Text:
    """One line, filled from the first point on ``at``."""

    text: str
    at: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Series:
    """``label: x=y x=y ...``, one line per distinct label, in point order.

    A point whose tags cannot fill ``label`` is not part of the series (so
    one figure can print views of disjoint system sets).  With a
    ``baseline``, ``{ratio}`` is the point's ``metric`` (a result
    attribute) over that of its baseline point: the one that has
    ``baseline``'s coordinates and agrees with the point on every other
    coordinate both carry (the system name only when ``baseline`` sets it).
    """

    label: str
    x: str
    y: str
    at: Mapping[str, Any] = field(default_factory=dict)
    baseline: Mapping[str, Any] = field(default_factory=dict)
    metric: str = "speedup"


@dataclass(frozen=True)
class Table:
    """One row of ``cells`` per point; ``at`` / ``baseline`` as for Series."""

    headers: Tuple[str, ...]
    cells: Tuple[str, ...]
    at: Mapping[str, Any] = field(default_factory=dict)
    baseline: Mapping[str, Any] = field(default_factory=dict)
    metric: str = "speedup"


@dataclass(frozen=True)
class Best:
    """The systems ``among`` ranked by ``metric`` on ``at``, as one line.

    ``text`` gets ``{first}`` and ``{second}`` (points) and ``{ratio}``
    (first's metric over second's); ties go to the earlier name.
    """

    text: str
    metric: str
    among: Tuple[str, ...]
    at: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Group:
    """``head`` once per distinct value, each followed by ``body`` over the
    points that share it."""

    head: str
    body: Tuple["Block", ...]


Block = Union[Text, Series, Table, Best, Group]


# -- the figure --------------------------------------------------------------------


@dataclass(frozen=True)
class Figure:
    """One sweep figure: what to simulate and how to print it.

    Attributes:
        models: model-zoo keys.
        systems: the compared systems (unique names).
        layout: the blocks :func:`render` prints.
        bandwidths: the Gb/s axis; a mapping gives each model its own.
        nodes: the node-count axis; empty takes each cluster's own size.
        clusters: the cluster axis as ``(label, cluster)`` pairs -- racks,
            oversubscription, GPUs per node, GPU model; the label is the
            ``topology`` coordinate.  Empty means flat default clusters.
        tags: per system name, extra coordinates and template fields.
        quick: the field values ``--quick`` replaces.
    """

    models: Tuple[str, ...]
    systems: Tuple[SystemConfig, ...]
    layout: Tuple[Block, ...]
    bandwidths: Union[Tuple[float, ...], Mapping[str, Tuple[float, ...]]] = (40.0,)
    nodes: Tuple[int, ...] = ()
    clusters: Tuple[Tuple[Hashable, ClusterConfig], ...] = ()
    tags: Mapping[str, Mapping[str, str]] = field(default_factory=dict)
    quick: Mapping[str, Any] = field(default_factory=dict)

    def reduced(self, quick: bool) -> "Figure":
        """This figure on its ``--quick`` axes when ``quick``."""
        return replace(self, **self.quick) if quick else self

    def run(self, jobs: Optional[int] = None) -> Points:
        """Simulate every point in one flat sweep, merged by key."""
        tasks, places = [], {}
        for model_key in self.models:
            model = get_model_spec(model_key)
            bandwidths = (self.bandwidths[model_key]
                          if isinstance(self.bandwidths, Mapping)
                          else self.bandwidths)
            for system in self.systems:
                for bandwidth in map(float, bandwidths):
                    for topology, base in (self.clusters or (
                            (None, ClusterConfig(num_workers=1)),)):
                        for nodes in self.nodes or (base.num_workers,):
                            cluster = (base.with_workers(nodes)
                                       .with_bandwidth(bandwidth))
                            task, = curve_tasks(model, system, (nodes,),
                                                bandwidth_gbps=bandwidth,
                                                base_cluster=cluster)
                            key = Key(model.name, system.name, bandwidth,
                                      topology, nodes)
                            tasks.append(replace(task, key=key))
                            places[key] = (model, system, cluster, topology)
        points = Points()
        for key, result in run_points(tasks, jobs=jobs).items():
            model, system, cluster, topology = places[key]
            points[key] = Point(model, system, cluster, topology, result,
                                self.tags.get(system.name, {}))
        return points

    def report(self, quick: bool = False) -> str:
        """The figure's report section (on the ``--quick`` axes if asked)."""
        figure = self.reduced(quick)
        return render(figure.layout, figure.run())


# -- the renderer ------------------------------------------------------------------


class _Fields:
    """The template namespace of one point inside one block."""

    def __init__(self, point: Point, points: Points, block: Block):
        self.point, self.points, self.block = point, points, block

    def __getitem__(self, name: str) -> Any:
        if name == "registry":
            return ", ".join(sorted(registered_backends()))
        if name == "ratio":
            base = _baseline(self.point, self.points, self.block.baseline)
            metric = self.block.metric
            return getattr(self.point.result, metric) / getattr(base.result, metric)
        return self.point[name]


def _baseline(point: Point, points: Points, spec: Mapping[str, Any]) -> Point:
    wanted = {**point.coords, **spec}
    if "system" not in spec:
        del wanted["system"]
    matches = [other for other in points.values()
               if spec.items() <= other.coords.items()
               and all(wanted[name] == value
                       for name, value in other.coords.items()
                       if name in wanted)]
    if len(matches) != 1:
        raise KeyError(f"{len(matches)} baselines for {point.key} at {spec}")
    return matches[0]


def render(layout: Sequence[Block], points: Points) -> str:
    """The text of ``layout`` over ``points``."""
    return "\n".join(_lines(layout, points))


def _lines(layout: Sequence[Block], points: Points) -> Iterator[str]:
    for block in layout:
        if isinstance(block, Group):
            groups: Dict[str, Points] = {}
            for key, point in points.items():
                head = block.head.format_map(_Fields(point, points, block))
                groups.setdefault(head, Points())[key] = point
            for head, members in groups.items():
                yield head
                yield from _lines(block.body, members)
            continue
        selected = points.where(**block.at).values()
        if isinstance(block, Text):
            first = next(iter(selected))
            yield block.text.format_map(_Fields(first, points, block))
        elif isinstance(block, Series):
            pairs: Dict[str, List[str]] = {}
            for point in selected:
                fields = _Fields(point, points, block)
                try:
                    label = block.label.format_map(fields)
                except KeyError:
                    continue
                pairs.setdefault(label, []).append(
                    f"{block.x.format_map(fields)}={block.y.format_map(fields)}")
            for label, values in pairs.items():
                yield f"{label}: {' '.join(values)}"
        elif isinstance(block, Table):
            yield format_table(block.headers, [
                [cell.format_map(_Fields(point, points, block))
                 for cell in block.cells]
                for point in selected])
        else:
            ranked = [point for name in block.among for point in selected
                      if point.system.name == name]
            ranked.sort(key=lambda point: getattr(point.result, block.metric),
                        reverse=True)
            first, second = ranked[:2]
            yield block.text.format(
                first=first, second=second,
                ratio=(getattr(first.result, block.metric)
                       / getattr(second.result, block.metric)))
