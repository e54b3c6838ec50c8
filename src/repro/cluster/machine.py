"""Machines, GPUs and NICs.

Transfers are modelled at flow granularity: a flow occupies the sender's
uplink and the receiver's downlink for ``bytes / bandwidth`` (plus a fixed
latency).  Flows whose far end is spread uniformly across many nodes (the
fine-grained KV store scatter/gather) can be addressed to the *fabric*, a
pseudo-endpoint with unlimited bandwidth, so that only the local NIC is
occupied; the aggregate load those flows impose on the remote NICs is
modelled by the corresponding fabric-to-node flows issued on the remote side.

Each NIC direction is a capacity-1 FIFO channel.  Because such a channel
admits a *tail-clock* ("busy-until") model -- a new flow starts at
``max(now, tail)`` and advances the tail by its duration -- an uncontended
transfer is a single analytically-computed timeout instead of a
request/grant/release resource round-trip, and a broadcast serialises its
copies on the sender's uplink inside one record instead of one flow per
destination.  Completion times are identical to the historical
FIFO-server model (the ``Resource`` reference in ``tests/sim_reference.py``):
FIFO order is by acquisition call either way, and contended holds chain on
the previous holder's release event, which is processed exactly when the
channel frees.

With a non-flat rack topology (``ClusterConfig.racks > 1`` and
``oversubscription > 1``), every rack additionally owns a
:class:`RackSwitch` -- an aggregate uplink/downlink channel pair at
``node_bandwidth * rack_members / oversubscription``.  Cross-rack flows
hold their NICs as usual *and* serialise their bytes through the source
rack's uplink and the destination rack's downlink, so contention for the
scarce cross-rack bandwidth emerges exactly like NIC contention does.
Intra-rack flows never touch the rack channels, and a flat topology (the
default) skips this machinery entirely -- the event graph is byte-identical
to the pre-topology model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro import units
from repro.config import ClusterConfig
from repro.exceptions import SimulationError
from repro.sim import Environment, Event, TailChannel, Timeout
from repro.cluster.traffic import TrafficAccount

#: Node id used to address the switching fabric pseudo-endpoint.
FABRIC = -1


class GpuDevice:
    """A GPU modelled as a serial compute device with busy-time accounting.

    Kernel sequences are serialised FIFO on a busy-until clock (the
    simulator issues every node's compute from its one compute class, so
    the device is effectively uncontended and each sequence is one timeout).
    """

    def __init__(self, env: Environment, node_id: int, index: int,
                 effective_flops: float):
        self.env = env
        self.node_id = node_id
        self.index = index
        self.effective_flops = float(effective_flops)
        self.busy_seconds = 0.0
        self._free_at = 0.0

    def compute(self, seconds: float,
                alike: Sequence["GpuDevice"] = ()) -> Timeout:
        """Book a kernel sequence of the given duration (and charge it to
        the ``alike`` GPUs, which run it at the same instants); returns the
        timeout that fires when it finishes."""
        if seconds < 0:
            raise SimulationError(f"negative compute duration: {seconds}")
        now = self.env._now
        start = self._free_at
        if start < now:
            start = now
        finish = start + seconds
        self._free_at = finish
        done = self.env.timeout_at(finish)
        self.busy_seconds += seconds
        for gpu in alike:
            gpu.busy_seconds += seconds
        return done


class NetworkInterface:
    """A full-duplex NIC: independent FIFO uplink and downlink channels."""

    def __init__(self, env: Environment, node_id: int, bandwidth_bps: float,
                 latency_seconds: float = 0.0):
        if bandwidth_bps <= 0:
            raise SimulationError(f"NIC bandwidth must be positive, got {bandwidth_bps}")
        self.env = env
        self.node_id = node_id
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_seconds = float(latency_seconds)
        self.uplink = TailChannel(env, name=f"nic{node_id}.up")
        self.downlink = TailChannel(env, name=f"nic{node_id}.down")
        self.traffic = TrafficAccount(node_id)

    def wire_time(self, nbytes: float) -> float:
        """Serialisation delay of ``nbytes`` on this NIC."""
        return units.transfer_seconds(nbytes, self.bandwidth_bps)


class RackSwitch:
    """The aggregate uplink of one rack's top-of-rack switch.

    Both directions are capacity-1 FIFO :class:`TailChannel` links at the
    rack's bisection bandwidth (``member NIC rate * members /
    oversubscription``).  A cross-rack flow serialises ``nbytes /
    bandwidth`` through the source rack's :attr:`uplink` and the
    destination rack's :attr:`downlink` -- its *share* of the aggregate
    pipe -- so N concurrent cross-rack flows collectively occupy the
    channel for exactly the time the fluid model predicts, while intra-rack
    flows bypass it entirely.
    """

    def __init__(self, env: Environment, rack_id: int, bandwidth_bps: float):
        if bandwidth_bps <= 0:
            raise SimulationError(
                f"rack bisection bandwidth must be positive, got {bandwidth_bps}")
        self.env = env
        self.rack_id = rack_id
        self.bandwidth_bps = float(bandwidth_bps)
        self.uplink = TailChannel(env, name=f"rack{rack_id}.up")
        self.downlink = TailChannel(env, name=f"rack{rack_id}.down")
        self.traffic = TrafficAccount(rack_id)

    def wire_time(self, nbytes: float) -> float:
        """Serialisation delay of ``nbytes`` on the rack's bisection link."""
        return units.transfer_seconds(nbytes, self.bandwidth_bps)


class Machine:
    """A worker/server node: one NIC and one or more GPUs."""

    def __init__(self, env: Environment, node_id: int, config: ClusterConfig):
        self.env = env
        self.node_id = node_id
        self.nic = NetworkInterface(
            env, node_id, config.effective_bandwidth_bps, config.latency_seconds
        )
        self.gpus: List[GpuDevice] = [
            GpuDevice(env, node_id, index, config.gpu.effective_flops)
            for index in range(config.gpus_per_node)
        ]

    @property
    def gpu(self) -> GpuDevice:
        """The first (leader) GPU of the node."""
        return self.gpus[0]


#: Stages of a flow record: waiting for its grant, for the start of its
#: transmission, for a busy receiver's release, or for its own finish.
_GRANT, _START, _QUEUED, _DONE = range(4)


class _Flow(Event):
    """A flow in flight, and the event that completes it.

    A flow record is the waiter (``flow(ok, value)``) of the channel event
    it waits on; resumed, it takes its next stage (:meth:`_step`) until it
    must wait again.  When its last hold has finished it records its bytes
    and settles: its own waiter (the step record that booked it) continues
    inside that same dispatch, without a queue entry.
    """

    __slots__ = ("stage", "sent", "received", "nbytes", "tag")

    def __init__(self, env: Environment, sent: Optional[TrafficAccount],
                 received: Optional[TrafficAccount], nbytes: float, tag: str):
        # Inlined Event.__init__: one of these per flow.
        self.env = env
        self._waiter = None
        self._waiters = None
        self.value = None
        self.ok = None
        self.triggered = False
        self.processed = False
        self.stage = _GRANT
        self.sent = sent
        self.received = received
        self.nbytes = nbytes
        self.tag = tag

    def _step(self) -> None:
        raise NotImplementedError

    def __call__(self, ok, value) -> None:
        if self.stage != _DONE:
            self._step()
            return
        # Finished: TrafficAccount.record_sent / record_received, inline.
        tag, nbytes = self.tag, self.nbytes
        account = self.sent
        if account is not None:
            account.bytes_sent += nbytes
            by_tag = account.by_tag_sent
            by_tag[tag] = by_tag.get(tag, 0.0) + nbytes
        account = self.received
        if account is not None:
            account.bytes_received += nbytes
            by_tag = account.by_tag_received
            by_tag[tag] = by_tag.get(tag, 0.0) + nbytes
        self._settle()


#: Allocator of the two flow records :meth:`ClusterModel.transfer` fills in
#: itself (``_Flow.__init__``, inline: one per flow, the hottest
#: allocation of a DES run).
_new_flow = object.__new__


class _ChannelFlow(_Flow):
    """A fabric flow: one channel, booked at once or queued behind the
    channel's open hold, whose release entry is then its own wake-up."""

    __slots__ = ("channel", "duration", "mine")

    def _step(self) -> None:  # granted
        finish = self.env._now + self.duration
        self.channel.release(self.mine, finish)
        self.stage = _DONE
        self.mine.add_waiter(self)


class _PointFlow(_Flow):
    """A point-to-point flow: an open uplink hold waits for its grant, then
    books the receiver -- idle, busy (wait for the start of transmission)
    or queued behind an open hold (wait for its release).  Each stage is
    one :meth:`_step` of the protocol :meth:`ClusterModel.transfer`
    describes."""

    __slots__ = ("up", "down", "duration", "up_release", "down_release",
                 "finish")

    def _step(self) -> None:
        env = self.env
        up, down = self.up, self.down
        stage = self.stage
        if stage == _GRANT:
            # Phase 2: the downlink, requested at the uplink grant.  The
            # uplink is released (``succeed_at`` with a sequence tick) at
            # the moment the copy starts transmitting -- the moment the
            # resource-based model created the transmit timeout -- so
            # same-instant uplink releases across channels dispatch in the
            # seed's order.
            previous = down._release
            if previous is not None and not previous.triggered:
                self.down_release = down._release = Event(env)
                if self.up_release is None:
                    # The uplink hold stays open while we queue at the
                    # receiver.
                    self.up_release = up._release = Event(env)
                self.stage = _QUEUED
                previous.add_waiter(self)
                return
            now = env._now
            start = down.tail
            if start > now:
                # Receiver busy but resolved: take the FIFO spot now, hold
                # the uplink open, and release it once transmission starts.
                self.finish = finish = start + self.duration
                down.tail = finish
                if self.up_release is None:
                    self.up_release = up._release = Event(env)
                self.stage = _START
                env.timeout_at(start)._waiter = self
                return
            # Receiver idle: the whole hold is analytic from here.
            finish = now + self.duration
            down.tail = finish
            up.tail = finish
            self.stage = _DONE
            release = self.up_release
            if release is None:
                wake = env.timeout_at(finish)
                up._entry, up._entry_tail = wake, finish  # note_entry
                wake._waiter = self
                return
            wake = release
        elif stage == _START:  # transmission starts
            finish = self.finish
            wake = release = self.up_release
        else:  # _QUEUED: the receiver just freed up
            finish = env._now + self.duration
            wake = self.down_release
            down.release(wake, finish)
            release = self.up_release
        up.tail = finish
        release.succeed_at(finish)
        up.note_entry(release, finish)
        self.stage = _DONE
        wake.add_waiter(self)


class _HoldPath(_Flow):
    """A flow that holds a chain of channels FIFO (cross-rack, or a fabric
    flow through an oversubscribed rack); it finishes at the last release.

    ``plan`` is a sequence of ``(channel, hold_seconds)`` pairs.  The
    channels are acquired in order, with earlier channels staying held
    while the flow queues for later ones (head-of-line blocking, the same
    protocol point-to-point flows use at their two NICs).  Once the final
    channel is granted every hold starts, and each channel frees after its
    own ``hold_seconds`` -- a NIC holds for the flow's bottleneck
    serialisation time, a rack switch only for the flow's share of the
    aggregate pipe.  ``records`` are the ``(account, sent, nbytes)`` it
    books on completion.

    Deadlock safety: every caller must list channels in the global
    acquisition order ``NIC uplink < rack uplink < rack downlink < NIC
    downlink`` (the sender side climbs the tree, the receiver side
    descends it).  Hold-and-wait cycles are impossible as long as all
    holders respect that order.
    """

    __slots__ = ("plan", "records", "releases")

    def __init__(self, env, plan, records, tag):
        super().__init__(env, None, None, 0.0, tag)
        self.plan = plan
        self.records = records
        self.releases: List[Event] = []

    def _start(self) -> "_HoldPath":
        self._acquire()
        return self

    def _acquire(self) -> None:
        plan, releases = self.plan, self.releases
        while len(releases) < len(plan):
            release, grant = plan[len(releases)][0].request()
            releases.append(release)
            if grant is not None:
                grant.add_waiter(self)
                return
        env = self.env
        start = finish = env._now
        for (channel, hold_seconds), release in zip(plan, releases):
            channel_finish = start + hold_seconds
            channel.release(release, channel_finish)
            if channel_finish > finish:
                finish = channel_finish
        self.stage = _DONE
        env.timeout_at(finish)._waiter = self

    def __call__(self, ok, value) -> None:
        if self.stage != _DONE:
            self._acquire()
            return
        tag = self.tag
        for account, sent, nbytes in self.records:
            (account.record_sent if sent
             else account.record_received)(nbytes, tag)
        self._settle()


class _Broadcast(_Flow):
    """A broadcast batch: the sender's uplink held across its copies.

    The batch replicates the hop structure of the per-destination tasks it
    replaced, so same-instant interleaving with other flows is unchanged:
    a copy requested its receiver's downlink one queue hop after its
    uplink grant (the grant-event dispatch), and the first copy of an
    uncontended batch also consumed its task-bootstrap hop -- two
    zero-delay hops after an immediate grant, one after a waited one.  A
    copy is then one queue entry (two behind an open receiver hold) and the
    float operations that book it: its hold is ``bits / bandwidth +
    latency`` of the two NICs, as in :meth:`ClusterModel.transfer`.
    """

    __slots__ = ("cluster", "src", "src_nic", "destinations", "hold",
                 "proxy", "up_release", "hops", "copy", "down_release",
                 "copy_nic")

    def __init__(self, cluster, src, src_nic, destinations, nbytes, hold,
                 tag, proxy):
        super().__init__(cluster.env, src_nic.traffic, None, nbytes, tag)
        self.cluster = cluster
        self.src = src
        self.src_nic = src_nic
        self.destinations = destinations
        self.hold = hold
        self.proxy = proxy
        self.copy = 0

    def _start(self) -> "_Broadcast":
        release, grant = self.src_nic.uplink.request()
        self.up_release = release
        self.stage = _START
        self.hops = 1  # zero-delay hops still to take once this wait is over
        if grant is None:
            self.env.timeout(0.0)._waiter = self
        else:
            grant.add_waiter(self)
        return self

    def __call__(self, ok, value) -> None:
        stage = self.stage
        if stage == _START:  # granted, or one hop on
            if self.hops:
                self.hops -= 1
                self.env.timeout(0.0)._waiter = self
                return
        elif stage == _QUEUED:  # the receiver just freed up
            release = self.down_release
            self.copy_nic.downlink.release(release,
                                           self.env._now + self.hold)
            self.stage = _DONE
            release.add_waiter(self)
            return
        elif stage == _DONE:
            # TrafficAccount.record_sent / record_received, inline.
            tag, nbytes = self.tag, self.nbytes
            sent = self.sent
            sent.bytes_sent += nbytes
            by_tag = sent.by_tag_sent
            by_tag[tag] = by_tag.get(tag, 0.0) + nbytes
            received = self.copy_nic.traffic
            received.bytes_received += nbytes
            by_tag = received.by_tag_received
            by_tag[tag] = by_tag.get(tag, 0.0) + nbytes
            self.copy += 1
        else:  # a cross-rack copy recorded its own bytes
            self.copy += 1
        # The next copy, or the end of the batch.
        destinations = self.destinations
        if self.copy == len(destinations):
            self.src_nic.uplink.release(self.up_release)
            self._settle()
            return
        cluster, env = self.cluster, self.env
        dst = destinations[self.copy]
        src_nic = self.src_nic
        self.copy_nic = dst_nic = src_nic if self.proxy else cluster._nics[dst]
        if (cluster.topology_active
                and cluster._rack_by_node[self.src] != cluster._rack_by_node[dst]):
            # Cross-rack copy: serialise through both rack switches (while
            # this batch keeps holding the uplink).
            self.stage = _GRANT
            cluster._cross_rack_transfer(
                self.src, dst, src_nic, dst_nic, self.nbytes, self.tag,
                uplink_held=True)._start().add_waiter(self)
            return
        down = dst_nic.downlink
        previous = down._release
        if previous is None or previous.triggered:
            # TailChannel.book, inline: start at max(now, tail).
            start = down.tail
            now = env._now
            finish = (start if start > now else now) + self.hold
            down.tail = finish
            self.stage = _DONE
            env.timeout_at(finish)._waiter = self
        else:
            self.down_release = down._release = Event(env)
            self.stage = _QUEUED
            previous.add_waiter(self)


class _FabricFan:
    """The booking thunk of a fabric fan (:meth:`ClusterModel._fabric_fan`).

    Each node's NIC channel and, off a flat network, its rack switch's
    channel (which carries the cross-rack share of the bytes) is booked
    analytically when resolved, or chained behind its open hold; ``done``
    fires (``succeed_at``) at the latest finish once no hold is waiting.
    """

    __slots__ = ("cluster", "node_ids", "nbytes", "hold", "tag", "outbound",
                 "done", "pending", "latest")

    def __init__(self, cluster, node_ids, nbytes, hold, tag, outbound):
        self.cluster = cluster
        self.node_ids = node_ids
        self.nbytes = nbytes
        self.hold = hold
        self.tag = tag
        self.outbound = outbound
        self.done = Event(cluster.env)
        self.pending = 0  # holds still waiting for their channel
        self.latest = cluster.env._now

    def __call__(self) -> None:
        cluster, nbytes, outbound = self.cluster, self.nbytes, self.outbound
        for node in self.node_ids:
            nic = cluster._nic(node)
            self._book(nic.uplink if outbound else nic.downlink, self.hold,
                       nic.traffic, nbytes)
            cross_bytes = nbytes * cluster.fabric_cross_fraction(node)
            if cross_bytes > 0.0:
                switch = cluster.rack_switch(node)
                self._book(switch.uplink if outbound else switch.downlink,
                           switch.wire_time(cross_bytes), switch.traffic,
                           cross_bytes)
        if self.pending == 0:
            self.done.succeed_at(self.latest)

    def _book(self, channel: TailChannel, duration: float,
              traffic: TrafficAccount, nbytes: float) -> None:
        previous = channel._release
        if previous is None or previous.triggered:
            # TailChannel.book, inline: start at max(now, tail).
            start = channel.tail
            now = self.cluster.env._now
            finish = (start if start > now else now) + duration
            channel.tail = finish
            if finish > self.latest:
                self.latest = finish
        else:
            mine = channel._release = Event(channel.env)
            self.pending += 1

            def on_grant(ok, value) -> None:
                finish = channel.env._now + duration
                channel.release(mine, finish)
                if finish > self.latest:
                    self.latest = finish
                self.pending -= 1
                if self.pending == 0:
                    self.done.succeed_at(self.latest)

            previous.add_waiter(on_grant)
        (traffic.record_sent if self.outbound
         else traffic.record_received)(nbytes, self.tag)


class ClusterModel:
    """The simulated cluster: machines plus flow-level transfer primitives."""

    def __init__(self, env: Environment, config: ClusterConfig):
        self.env = env
        self.config = config
        num_nodes = config.num_nodes
        self.machines: Dict[int, Machine] = {
            node_id: Machine(env, node_id, config) for node_id in range(num_nodes)
        }
        #: Whether cross-rack flows contend on shared rack uplinks.  A flat
        #: topology (single rack or full bisection) takes the historical
        #: code paths untouched -- byte-identical event graphs.
        self.topology_active = not config.is_flat_topology
        #: Per-node NICs, and the one NIC rate and latency of the cluster.
        self._nics = [self.machines[node].nic for node in range(num_nodes)]
        self._bandwidth = float(config.effective_bandwidth_bps)
        self._latency = float(config.latency_seconds)
        #: One message's NIC hold by message size (:meth:`_hold`).
        self._holds: Dict[float, float] = {}
        self.rack_switches: List[RackSwitch] = []
        self._rack_by_node: List[int] = []
        self._cross_fraction_by_node: List[float] = []
        if self.topology_active:
            rack_size = config.nodes_per_rack
            for rack_id in range(0, (num_nodes + rack_size - 1) // rack_size):
                members = min(rack_size, num_nodes - rack_id * rack_size)
                self.rack_switches.append(RackSwitch(
                    env, rack_id, config.rack_bisection_bps(members)))
            # Per-node lookup tables: every flow reads its endpoints' racks
            # and fabric cross fraction, so the chained config properties
            # are resolved once here.
            for node_id in range(num_nodes):
                rack = node_id // rack_size
                members = min(rack_size, num_nodes - rack * rack_size)
                self._rack_by_node.append(rack)
                self._cross_fraction_by_node.append(
                    (num_nodes - members) / (num_nodes - 1)
                    if num_nodes > 1 else 0.0)

    # -- topology helpers --------------------------------------------------------
    def rack_switch(self, node_id: int) -> RackSwitch:
        """The :class:`RackSwitch` of a node's rack (topology must be active)."""
        if not self.topology_active:
            raise SimulationError(
                "rack switches only exist under a non-flat topology")
        return self.rack_switches[self._rack_by_node[node_id]]

    def fabric_cross_fraction(self, node_id: int) -> float:
        """Fraction of a node's fabric traffic that crosses its rack boundary.

        Fabric flows are spread uniformly over the *other* nodes (the
        fine-grained KV store's balanced shards), so the cross-rack share
        is the fraction of remote nodes living outside the node's rack.
        """
        if self.topology_active:
            return self._cross_fraction_by_node[node_id]
        return 0.0

    def machine(self, node_id: int) -> Machine:
        """Look up a machine by node id.

        Raises:
            SimulationError: if the node id is unknown (or is the fabric).
        """
        if node_id == FABRIC:
            raise SimulationError("the fabric pseudo-node has no machine")
        try:
            return self.machines[node_id]
        except KeyError as exc:
            raise SimulationError(f"unknown node id {node_id}") from exc

    # -- flows ---------------------------------------------------------------------
    # A flow is a booking: it claims its channels at call time and returns
    # the event that completes it (a flow record), or ``None`` when it
    # completed inline (a local copy, zero bytes).  Every queue entry the
    # flow needs is pushed at the point, and in the order, that a task
    # stepping through the same stages would push it.
    def _hold(self, nbytes: float) -> float:
        """One message's NIC hold, ``bits / bandwidth + latency``, computed
        once per size: every NIC of the cluster has the same rate."""
        hold = self._holds[nbytes] = (units.bytes_to_bits(nbytes)
                                      / self._bandwidth + self._latency)
        return hold

    def _nic(self, node: int) -> NetworkInterface:
        """A real node's NIC (:meth:`machine`'s errors for any other id)."""
        if 0 <= node < len(self._nics):
            return self._nics[node]
        return self.machine(node).nic

    def _cross_rack_transfer(self, src: int, dst: int,
                             src_nic: NetworkInterface,
                             dst_nic: NetworkInterface,
                             nbytes: float, tag: str,
                             uplink_held: bool = False,
                             repeat: int = 1) -> "_HoldPath":
        """A point-to-point flow whose endpoints sit in different racks.

        In addition to the two NICs, the flow serialises its bytes through
        the source rack's aggregate uplink and the destination rack's
        aggregate downlink, so concurrent cross-rack flows of one rack
        contend for the scarce bisection bandwidth while intra-rack flows
        do not.  With ``uplink_held`` the caller already owns the sender's
        NIC uplink (a broadcast batch holding it across copies) and the
        hold path starts at the rack switch.  ``repeat`` back-to-back
        messages are one hold of ``repeat`` times each channel's time.
        """
        src_switch = self.rack_switch(src)
        dst_switch = self.rack_switch(dst)
        bottleneck = min(src_nic.bandwidth_bps, dst_nic.bandwidth_bps,
                         src_switch.bandwidth_bps, dst_switch.bandwidth_bps)
        latency = max(src_nic.latency_seconds, dst_nic.latency_seconds)
        flow_seconds = repeat * (units.transfer_seconds(nbytes, bottleneck) + latency)
        plan = (
            (src_switch.uplink, repeat * src_switch.wire_time(nbytes)),
            (dst_switch.downlink, repeat * dst_switch.wire_time(nbytes)),
            (dst_nic.downlink, flow_seconds),
        )
        if not uplink_held:
            plan = ((src_nic.uplink, flow_seconds),) + plan
        total = repeat * nbytes
        return _HoldPath(self.env, plan, (
            (src_nic.traffic, True, total), (src_switch.traffic, True, total),
            (dst_switch.traffic, False, total), (dst_nic.traffic, False, total)),
            tag)

    def _rack_fabric_flow(self, node: int, nic: NetworkInterface,
                          outbound: bool, nbytes: float, cross_bytes: float,
                          tag: str) -> "_HoldPath":
        """A fabric flow of a node in an oversubscribed rack.

        The node's NIC carries the full payload; the rack switch carries
        only the cross-rack share (``cross_bytes``), since fabric traffic
        is spread uniformly and the intra-rack part never leaves the rack.
        The flow completes when both serialisations have finished.
        """
        switch = self.rack_switch(node)
        nic_seconds = nic.wire_time(nbytes) + nic.latency_seconds
        rack_seconds = switch.wire_time(cross_bytes)
        if outbound:  # climb the tree: NIC uplink before rack uplink
            plan = ((nic.uplink, nic_seconds), (switch.uplink, rack_seconds))
        else:  # descend it: rack downlink before NIC downlink
            plan = ((switch.downlink, rack_seconds), (nic.downlink, nic_seconds))
        return _HoldPath(self.env, plan, (
            (nic.traffic, outbound, nbytes),
            (switch.traffic, outbound, cross_bytes)), tag)

    def transfer(self, src: int, dst: int, nbytes: float, tag: str = "untagged",
                 repeat: int = 1) -> Optional[Event]:
        """Book ``nbytes`` from ``src`` to ``dst``, ``repeat`` times; returns
        the flow's completion event, or ``None`` when it completed inline.

        Either endpoint may be :data:`FABRIC`, in which case only the other
        endpoint's NIC is occupied.  A transfer between a node and itself is
        local and takes no network time (the colocated-PS-shard fast path).
        ``repeat`` messages between two nodes go back to back as one flow:
        every channel on the path holds ``repeat`` times its one-message
        time (latency included) and the accounts record ``repeat * nbytes``
        when the flow completes.

        The flow claims the sender's uplink at call time (FIFO) and the
        receiver's downlink at the moment the uplink is granted -- the same
        two-phase protocol the resource-based model used, with each phase
        collapsing to tail-clock arithmetic whenever its channel has no
        open hold.

        Under a non-flat topology, flows that cross a rack boundary (or
        touch the fabric from an oversubscribed rack) additionally
        serialise through the shared rack switch channels; intra-rack
        flows take the historical path untouched.
        """
        if not nbytes >= 0 or repeat < 1:
            raise SimulationError(f"negative size or repeat < 1: {nbytes} x {repeat}")
        if (src == FABRIC or dst == FABRIC) and (src == dst or repeat > 1):
            raise SimulationError("transfer needs one real endpoint, two to repeat")
        if src == dst or nbytes == 0:
            return None
        env = self.env
        hold = self._holds.get(nbytes)
        if hold is None:
            hold = self._hold(nbytes)

        if src == FABRIC or dst == FABRIC:
            outbound = dst == FABRIC
            node = src if outbound else dst
            nics = self._nics
            nic = nics[node] if 0 <= node < len(nics) else self.machine(node).nic
            if self.topology_active:
                cross_bytes = nbytes * self._cross_fraction_by_node[node]
                if cross_bytes > 0.0:
                    return self._rack_fabric_flow(
                        node, nic, outbound, nbytes, cross_bytes, tag)._start()
            # Fabric flow: a single channel, so the whole hold is one
            # analytic booking (or a chained wait behind an open hold).
            channel = nic.uplink if outbound else nic.downlink
            flow = _new_flow(_ChannelFlow)
            flow.env = env
            flow._waiter = flow._waiters = flow.value = flow.ok = None
            flow.triggered = flow.processed = False
            if outbound:
                flow.sent, flow.received = nic.traffic, None
            else:
                flow.sent, flow.received = None, nic.traffic
            flow.nbytes, flow.tag = nbytes, tag
            release = channel._release
            if release is None or release.triggered:
                # TailChannel.book and note_entry, inline.
                start = channel.tail
                now = env._now
                finish = (start if start > now else now) + hold
                channel.tail = finish
                wake = env.timeout_at(finish)
                channel._entry, channel._entry_tail = wake, finish
                wake._waiter = flow
                flow.stage = _DONE
            else:
                flow.stage = _GRANT
                flow.channel, flow.duration = channel, hold
                flow.mine = channel._release = Event(env)
                release.add_waiter(flow)  # granted when the holder frees up
            return flow

        nics = self._nics
        src_nic = nics[src] if 0 <= src < len(nics) else self.machine(src).nic
        dst_nic = nics[dst] if 0 <= dst < len(nics) else self.machine(dst).nic
        if (self.topology_active
                and self._rack_by_node[src] != self._rack_by_node[dst]):
            return self._cross_rack_transfer(
                src, dst, src_nic, dst_nic, nbytes, tag, repeat=repeat)._start()
        up = src_nic.uplink
        flow = _new_flow(_PointFlow)
        flow.env = env
        flow._waiter = flow._waiters = flow.value = flow.ok = None
        flow.triggered = flow.processed = False
        flow.stage = _GRANT
        flow.sent, flow.received = src_nic.traffic, dst_nic.traffic
        flow.nbytes, flow.tag = repeat * nbytes, tag
        flow.up, flow.down = up, dst_nic.downlink
        flow.duration = hold if repeat == 1 else repeat * hold
        # Phase 1: the uplink, claimed at call time.
        previous = up._release
        if previous is not None and not previous.triggered:
            flow.up_release = up._release = Event(env)
            previous.add_waiter(flow)
        elif up.tail > env._now:
            # Busy but resolved: keep the hold open and wake at the grant,
            # which is when the downlink gets requested.  Anchor the wake on
            # the holder's own finish entry when known, so same-instant
            # grants across channels dispatch in the holders' order (as
            # resource releases did).
            flow.up_release = up._release = Event(env)
            anchor = up.grant_anchor()
            if anchor is not None:
                anchor.add_waiter(flow)
            else:
                env.timeout_at(up.tail)._waiter = flow
        else:
            flow.up_release = None
            flow._step()
        return flow

    def broadcast(self, src: int, dst_ids: List[int], nbytes_each: float,
                  tag: str = "untagged", proxy: bool = False) -> Optional[Event]:
        """Book ``nbytes_each`` from ``src`` to every node in ``dst_ids``;
        returns the batch's completion event (``None``: nothing to send).

        The sender's uplink carries the copies back to back (FIFO) and is
        held across the whole batch by this one booking -- equivalent to
        the per-destination flows that used to queue all their uplink
        requests up front, but with one queue entry per copy instead of a
        task per destination.  Each copy still queues for its receiver's
        downlink while holding the uplink (head-of-line blocking, exactly
        as before).  Completes when the last copy has been delivered.

        The copies walk the receivers in node-id order starting after the
        sender, ``(src + 1 + k) mod N``: when every worker broadcasts at
        once, copy ``k`` of each sender lands on a different node, not all
        on node 0.  A hub that is its group's lowest id (a rack leader)
        keeps plain id order.  The sender's own id is skipped.

        With ``proxy``, every copy is booked on the sender's own downlink
        and account: a symmetric plan's representative
        (``IterationSimulator._lowered``) stands for every receiver, whose
        downlinks are in the same state as its own.

        Under a non-flat topology, copies addressed outside the sender's
        rack additionally serialise through the source rack's uplink and
        the destination rack's downlink while the batch holds the NIC.
        """
        if not nbytes_each >= 0:
            raise SimulationError(f"negative transfer size: {nbytes_each}")
        nodes = len(self.machines)
        destinations = sorted((dst for dst in dst_ids if dst != src),
                              key=lambda dst: (dst - src) % nodes)
        if not destinations or nbytes_each == 0:
            return None
        src_nic = self._nic(src)
        if not proxy:  # every receiver id validated before the batch starts
            for dst in destinations:
                self._nic(dst)
        hold = self._holds.get(nbytes_each)
        if hold is None:
            hold = self._hold(nbytes_each)
        return _Broadcast(self, src, src_nic, destinations, nbytes_each, hold,
                          tag, proxy)._start()

    def _fabric_fan(self, node_ids: List[int], nbytes_each: float, tag: str,
                    outbound: bool) -> Event:
        """Aggregate fabric flows at many nodes; event fires at the last finish.

        Each flow occupies exactly one channel (``node -> FABRIC`` the
        node's uplink, ``FABRIC -> node`` its downlink), so no flow ever
        holds one channel while waiting for another; its schedule is fully
        determined at booking.  One scheduled thunk (where the per-node
        transfer tasks' bootstraps sat, back to back) books each
        resolved channel analytically or chains a waiter behind its open
        hold (:class:`_FabricFan`).  One deferred event fires at the last
        finish.
        """
        env = self.env
        if not nbytes_each >= 0:
            raise SimulationError(f"negative transfer size: {nbytes_each}")
        if not node_ids or nbytes_each == 0:
            return Event(env).succeed()
        hold = self._holds.get(nbytes_each)
        if hold is None:
            hold = self._hold(nbytes_each)
        fan = _FabricFan(self, node_ids, nbytes_each, hold, tag, outbound)
        env.schedule_thunk(fan)
        return fan.done

    def fabric_gather(self, node_ids: List[int], nbytes_each: float,
                      tag: str = "untagged") -> Event:
        """Fabric-to-node flows into every node's downlink; fires at the last."""
        return self._fabric_fan(node_ids, nbytes_each, tag, outbound=False)

    def fabric_scatter(self, node_ids: List[int], nbytes_each: float,
                       tag: str = "untagged") -> Event:
        """Node-to-fabric flows out of every node's uplink; fires at the last."""
        return self._fabric_fan(node_ids, nbytes_each, tag, outbound=True)
