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
request/yield/release resource round-trip, and a broadcast serialises its
copies on the sender's uplink inside one process instead of spawning one
process per destination.  Completion times are identical to the historical
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

from typing import Dict, Generator, List, Optional, Sequence

from repro import units
from repro.config import ClusterConfig
from repro.exceptions import SimulationError
from repro.sim import Environment, Event, TailChannel
from repro.cluster.traffic import TrafficAccount

#: Node id used to address the switching fabric pseudo-endpoint.
FABRIC = -1


class GpuDevice:
    """A GPU modelled as a serial compute device with busy-time accounting.

    Kernel sequences are serialised FIFO on a busy-until clock (the
    simulator issues every node's compute from a single worker process, so
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
                alike: Sequence["GpuDevice"] = ()) -> Generator:
        """Process: run a kernel sequence of the given duration (and charge
        it to the ``alike`` GPUs, which run it at the same instants)."""
        if seconds < 0:
            raise SimulationError(f"negative compute duration: {seconds}")
        now = self.env._now
        start = self._free_at
        if start < now:
            start = now
        finish = start + seconds
        self._free_at = finish
        yield self.env.timeout_at(finish)
        self.busy_seconds += seconds
        for gpu in alike:
            gpu.busy_seconds += seconds


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
    def _hold_path(self, plan) -> Generator:
        """Process: hold a chain of channels FIFO; finish at the last release.

        ``plan`` is a sequence of ``(channel, hold_seconds)`` pairs.  The
        channels are acquired in order, with earlier channels staying held
        while the flow queues for later ones (head-of-line blocking, the
        same protocol point-to-point flows use at their two NICs).  Once
        the final channel is granted every hold starts, and each channel
        frees after its own ``hold_seconds`` -- a NIC holds for the flow's
        bottleneck serialisation time, a rack switch only for the flow's
        share of the aggregate pipe.

        Deadlock safety: every caller must list channels in the global
        acquisition order ``NIC uplink < rack uplink < rack downlink <
        NIC downlink`` (the sender side climbs the tree, the receiver side
        descends it).  Hold-and-wait cycles are impossible as long as all
        holders respect that order.
        """
        env = self.env
        releases = []
        for channel, _ in plan:
            release = yield from channel.request()
            releases.append(release)
        start = env._now
        finish = start
        for (channel, hold_seconds), release in zip(plan, releases):
            channel_finish = start + hold_seconds
            channel.release(release, channel_finish)
            if channel_finish > finish:
                finish = channel_finish
        yield env.timeout_at(finish)

    def _cross_rack_transfer(self, src: int, dst: int,
                             src_nic: NetworkInterface,
                             dst_nic: NetworkInterface,
                             nbytes: float, tag: str,
                             uplink_held: bool = False, repeat: int = 1) -> Generator:
        """Process: a point-to-point flow whose endpoints sit in different racks.

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
        yield from self._hold_path(plan)
        total = repeat * nbytes
        src_nic.traffic.record_sent(total, tag)
        src_switch.traffic.record_sent(total, tag)
        dst_switch.traffic.record_received(total, tag)
        dst_nic.traffic.record_received(total, tag)

    def _rack_fabric_flow(self, node: int, nic: NetworkInterface,
                          outbound: bool, nbytes: float, cross_bytes: float,
                          tag: str) -> Generator:
        """Process: a fabric flow of a node in an oversubscribed rack.

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
        yield from self._hold_path(plan)
        if outbound:
            nic.traffic.record_sent(nbytes, tag)
            switch.traffic.record_sent(cross_bytes, tag)
        else:
            nic.traffic.record_received(nbytes, tag)
            switch.traffic.record_received(cross_bytes, tag)

    def transfer(self, src: int, dst: int, nbytes: float, tag: str = "untagged",
                 repeat: int = 1) -> Generator:
        """Process: move ``nbytes`` from ``src`` to ``dst``, ``repeat`` times.

        Either endpoint may be :data:`FABRIC`, in which case only the other
        endpoint's NIC is occupied.  A transfer between a node and itself is
        local and takes no network time (the colocated-PS-shard fast path).
        ``repeat`` messages between two nodes go back to back as one flow:
        every channel on the path holds ``repeat`` times its one-message
        time (latency included) and the accounts record ``repeat * nbytes``.

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
        if FABRIC in (src, dst) and (src == dst or repeat > 1):
            raise SimulationError("transfer needs one real endpoint, two to repeat")
        if src == dst or nbytes == 0:
            return
        env = self.env
        bits = units.bytes_to_bits(nbytes)

        if src == FABRIC or dst == FABRIC:
            outbound = dst == FABRIC
            node = src if outbound else dst
            nic = self.machine(node).nic
            if self.topology_active:
                cross_bytes = nbytes * self._cross_fraction_by_node[node]
                if cross_bytes > 0.0:
                    yield from self._rack_fabric_flow(
                        node, nic, outbound, nbytes, cross_bytes, tag)
                    return
            # Fabric flow: a single channel, so the whole hold is one
            # analytic booking (or a chained wait behind an open hold).
            duration = bits / nic.bandwidth_bps + nic.latency_seconds
            channel = nic.uplink if outbound else nic.downlink
            release = channel._release
            if release is None or release.triggered:
                finish = channel.book(duration)
                wake = env.timeout_at(finish)
                channel.note_entry(wake, finish)
                yield wake
            else:
                mine = Event(env)
                channel._release = mine
                yield release  # granted exactly when the holder frees up
                finish = env._now + duration
                channel.release(mine, finish)
                yield mine  # the release entry doubles as our own wake-up
            if outbound:
                nic.traffic.record_sent(nbytes, tag)
            else:
                nic.traffic.record_received(nbytes, tag)
            return

        src_nic = self.machine(src).nic
        dst_nic = self.machine(dst).nic
        if (self.topology_active
                and self._rack_by_node[src] != self._rack_by_node[dst]):
            yield from self._cross_rack_transfer(
                src, dst, src_nic, dst_nic, nbytes, tag, repeat=repeat)
            return
        duration = repeat * (
            bits / min(src_nic.bandwidth_bps, dst_nic.bandwidth_bps)
            + max(src_nic.latency_seconds, dst_nic.latency_seconds))
        up = src_nic.uplink
        down = dst_nic.downlink
        # Phase 1: the uplink, claimed at call time.
        up_release: Optional[Event] = None
        previous = up._release
        if previous is not None and not previous.triggered:
            up_release = Event(env)
            up._release = up_release
            yield previous
        else:
            now = env._now
            if up.tail > now:
                # Busy but resolved: keep the hold open and wake at the
                # grant, which is when the downlink gets requested.  Anchor
                # the wake on the holder's own finish entry when known, so
                # same-instant grants across channels dispatch in the
                # holders' order (as resource releases did).
                up_release = Event(env)
                up._release = up_release
                anchor = up.grant_anchor()
                if anchor is not None:
                    yield anchor
                else:
                    yield env.timeout_at(up.tail)
        # Phase 2: the downlink, requested at the uplink grant.  The uplink
        # is released (succeed_at with a sequence tick) at the moment the
        # copy starts transmitting -- the moment the resource-based model
        # created the transmit timeout -- so same-instant uplink releases
        # across channels dispatch in the seed's order.
        previous = down._release
        if previous is None or previous.triggered:
            now = env._now
            start = down.tail
            if start <= now:
                # Receiver idle: the whole hold is analytic from here.
                finish = now + duration
                down.tail = finish
                up.tail = finish
                if up_release is not None:
                    up_release.succeed_at(finish)
                    up.note_entry(up_release, finish)
                    yield up_release
                else:
                    wake = env.timeout_at(finish)
                    up.note_entry(wake, finish)
                    yield wake
            else:
                # Receiver busy but resolved: take the FIFO spot now, hold
                # the uplink open, and release it once transmission starts.
                finish = start + duration
                down.tail = finish
                if up_release is None:
                    up_release = Event(env)
                    up._release = up_release
                yield env.timeout_at(start)
                up.tail = finish
                up_release.succeed_at(finish)
                up.note_entry(up_release, finish)
                yield up_release
        else:
            down_release = Event(env)
            down._release = down_release
            if up_release is None:
                # The uplink hold stays open while we queue at the receiver.
                up_release = Event(env)
                up._release = up_release
            yield previous
            finish = env._now + duration
            down.release(down_release, finish)
            up.tail = finish
            up_release.succeed_at(finish)
            up.note_entry(up_release, finish)
            yield down_release
        src_nic.traffic.record_sent(repeat * nbytes, tag)
        dst_nic.traffic.record_received(repeat * nbytes, tag)

    def broadcast(self, src: int, dst_ids: List[int], nbytes_each: float,
                  tag: str = "untagged", proxy: bool = False) -> Generator:
        """Process: send ``nbytes_each`` from ``src`` to every node in ``dst_ids``.

        The sender's uplink carries the copies back to back (FIFO) and is
        held across the whole batch by this single process -- equivalent to
        the per-destination processes that used to queue all their uplink
        requests up front, but with one queue entry per copy instead of a
        process per destination.  Each copy still queues for its receiver's
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
            return
        env = self.env
        src_nic = self.machine(src).nic
        up = src_nic.uplink
        # Every copy's receiver channel, account, hold and path, resolved
        # (each id validated) before the batch starts.  The hold is
        # bits / min(bandwidth) + max(latency) of the two NICs, as in
        # transfer(); a copy is then one queue entry and the float
        # operations that book it.
        bits = units.bytes_to_bits(nbytes_each)
        bandwidth, latency = src_nic.bandwidth_bps, src_nic.latency_seconds
        racks = self._rack_by_node if self.topology_active else None
        copies = []
        for dst in destinations:
            dst_nic = src_nic if proxy else self.machine(dst).nic
            bw = dst_nic.bandwidth_bps
            lat = dst_nic.latency_seconds
            copies.append((
                dst, dst_nic, dst_nic.downlink, dst_nic.traffic,
                bits / (bw if bw < bandwidth else bandwidth)
                + (lat if lat > latency else latency),
                racks is not None and racks[src] != racks[dst]))
        sent = src_nic.traffic
        sent_by_tag = sent.by_tag_sent
        timeout_at = env.timeout_at
        # Replicate the hop structure of the per-destination processes so
        # same-instant interleaving with other flows is unchanged: a copy
        # requested its receiver's downlink one queue hop after its uplink
        # grant (the grant-event dispatch), and the first copy of an
        # uncontended batch also consumed its process-bootstrap hop.
        acquired_synchronously = up.resolved and up.tail <= env._now
        up_release = yield from up.request()
        if acquired_synchronously:
            yield env.timeout(0.0)
        yield env.timeout(0.0)
        for dst, dst_nic, down, received, duration, cross_rack in copies:
            if cross_rack:
                # Cross-rack copy: serialise through both rack switches
                # (while this process keeps holding the batch uplink).
                yield from self._cross_rack_transfer(
                    src, dst, src_nic, dst_nic, nbytes_each, tag,
                    uplink_held=True)
                continue
            previous = down._release
            if previous is None or previous.triggered:
                # TailChannel.book, inline: start at max(now, tail).
                start = down.tail
                now = env._now
                finish = (start if start > now else now) + duration
                down.tail = finish
                yield timeout_at(finish)
            else:
                down_release = Event(env)
                down._release = down_release
                yield previous
                down.release(down_release, env._now + duration)
                yield down_release
            # TrafficAccount.record_sent / record_received, inline.
            sent.bytes_sent += nbytes_each
            sent_by_tag[tag] = sent_by_tag.get(tag, 0.0) + nbytes_each
            received.bytes_received += nbytes_each
            by_tag = received.by_tag_received
            by_tag[tag] = by_tag.get(tag, 0.0) + nbytes_each
        up.release(up_release)

    def _fabric_fan(self, node_ids: List[int], nbytes_each: float, tag: str,
                    outbound: bool) -> Event:
        """Aggregate fabric flows at many nodes; event fires at the last finish.

        Each flow occupies exactly one channel (``node -> FABRIC`` the
        node's uplink, ``FABRIC -> node`` its downlink), so no flow ever
        holds one channel while waiting for another; its schedule is fully
        determined at booking.  One scheduled thunk (where the per-node
        transfer processes' bootstraps sat, back to back) books each
        resolved channel analytically or chains a waiter behind its open
        hold.  One deferred event fires at the last finish.
        """
        env = self.env
        if not nbytes_each >= 0:
            raise SimulationError(f"negative transfer size: {nbytes_each}")
        if not node_ids or nbytes_each == 0:
            return Event(env).succeed()
        done = Event(env)
        #: [holds still waiting for their channel, latest finish so far]
        pending = [0, env._now]

        def note(finish: float) -> None:
            if finish > pending[1]:
                pending[1] = finish

        def book(channel: TailChannel, duration: float,
                 traffic: TrafficAccount, nbytes: float) -> None:
            previous = channel._release
            if previous is None or previous.triggered:
                note(channel.book(duration))
            else:
                mine = Event(env)
                channel._release = mine
                pending[0] += 1

                def on_grant(ok, value) -> None:
                    finish = env._now + duration
                    channel.release(mine, finish)
                    note(finish)
                    pending[0] -= 1
                    if pending[0] == 0:
                        done.succeed_at(pending[1])

                previous.add_waiter(on_grant)
            (traffic.record_sent if outbound
             else traffic.record_received)(nbytes, tag)

        def book_all() -> None:
            # Each node's NIC and, off a flat network, its rack switch's
            # channel, which carries the cross-rack share of the bytes.
            for node in node_ids:
                nic = self.machine(node).nic
                book(nic.uplink if outbound else nic.downlink,
                     units.transfer_seconds(nbytes_each, nic.bandwidth_bps)
                     + nic.latency_seconds, nic.traffic, nbytes_each)
                cross_bytes = nbytes_each * self.fabric_cross_fraction(node)
                if cross_bytes > 0.0:
                    switch = self.rack_switch(node)
                    book(switch.uplink if outbound else switch.downlink,
                         switch.wire_time(cross_bytes), switch.traffic,
                         cross_bytes)
            if pending[0] == 0:
                done.succeed_at(pending[1])

        env.schedule_thunk(book_all)
        return done

    def fabric_gather(self, node_ids: List[int], nbytes_each: float,
                      tag: str = "untagged") -> Event:
        """Fabric-to-node flows into every node's downlink; fires at the last."""
        return self._fabric_fan(node_ids, nbytes_each, tag, outbound=False)

    def fabric_scatter(self, node_ids: List[int], nbytes_each: float,
                       tag: str = "untagged") -> Event:
        """Node-to-fabric flows out of every node's uplink; fires at the last."""
        return self._fabric_fan(node_ids, nbytes_each, tag, outbound=True)
