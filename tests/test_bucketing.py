"""Tests for bucketed wire granularity (trainer and simulator sides).

Four layers of protection:

* the greedy partition rule (:func:`repro.comm.wire.bucket_partition`):
  order preservation, the flush-on-full invariant and the degenerate
  sizes, as a hypothesis property;
* the simulator-side transformation (:func:`bucket_workload`): byte
  totals are invariant, message (unit) counts follow the partition rule
  exactly, merged units carry per-member ``payload_parts`` so compressed
  wire accounting stays exact, non-bucketable schemes pass through
  unchanged, and both engines book identical traffic at every bucket
  size;
* the trainer-side :class:`GradientBucketer`: jobs run exactly once in
  submission order, message counts match ``bucket_partition``, and --
  the headline property -- final parameters are *bit-identical* for
  every bucket size under ``deterministic=True``;
* the memo-table audit: the plans a ``sweep_axis`` reads key on the
  compression axes, so no stale cross-config hit can occur (scheme
  decisions need no such key: they are made on the unbucketed workload
  and are compressor-invariant by design, re-checked here).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import wire
from repro.comm.bucketing import GradientBucketer, bucket_workload
from repro.comm.wire import CompressionConfig
from repro.config import (
    ClusterConfig,
    Partitioning,
    ScheduleMode,
    SystemConfig,
    TrainingConfig,
)
from repro.data import shard_dataset
from repro.exceptions import ConfigurationError
from repro.nn.model_zoo import build_mlp_network, get_model_spec
from repro.parallel import DistributedTrainer
from repro.simulation.fluid import FluidSimulator, sweep_axis
from repro.simulation.throughput import IterationSimulator, decide_schemes
from repro.simulation.workload import build_workload
from train_reference import make_linearly_separable

VGG = get_model_spec("vgg19")
NUM_WORKERS = 3


def coarse_system(comm: str, compressor: str = "none",
                  bucket_bytes=None) -> SystemConfig:
    return SystemConfig(
        name="probe", comm=comm,
        schedule=ScheduleMode.WFBP, partitioning=Partitioning.COARSE,
        overlap_pull=True, overlap_host_copy=True,
    ).with_compression(compressor, bucket_bytes)


# -- the greedy partition rule -------------------------------------------------
class TestBucketPartition:
    def test_flushes_on_full(self):
        assert wire.bucket_partition([4, 4, 4], 8) == [[0, 1], [2]]

    def test_oversized_item_gets_own_bucket(self):
        assert wire.bucket_partition([100, 1, 1], 8) == [[0], [1, 2]]

    def test_rejects_bad_bucket(self):
        with pytest.raises(ConfigurationError):
            wire.bucket_partition([1], 0)

    @settings(max_examples=50, deadline=None)
    @given(sizes=st.lists(st.integers(1, 1000), min_size=1, max_size=30),
           bucket=st.integers(1, 2000))
    def test_partition_properties(self, sizes, bucket):
        partition = wire.bucket_partition(sizes, bucket)
        # Every index appears exactly once, in order.
        flat = [i for group in partition for i in group]
        assert flat == list(range(len(sizes)))
        # Every bucket except possibly the last reached the threshold.
        for group in partition[:-1]:
            assert sum(sizes[i] for i in group) >= bucket
        # Removing any group's last item would leave it under-full.
        for group in partition[:-1]:
            assert sum(sizes[i] for i in group[:-1]) < bucket


# -- simulator-side transformation ---------------------------------------------
class TestBucketWorkload:
    def bucketed(self, comm="ps", bucket=4 * 1024 * 1024):
        cluster = ClusterConfig(num_workers=4, bandwidth_gbps=10.0)
        workload = build_workload(VGG, gpu=cluster.gpu)
        schemes = decide_schemes(workload, comm, cluster)
        return (workload, schemes,
                *bucket_workload(workload, schemes, bucket))

    def test_none_is_identity(self):
        workload, schemes, *_ = self.bucketed()
        same_workload, same_schemes = bucket_workload(workload, schemes, None)
        assert same_workload is workload and same_schemes is schemes

    def test_bytes_invariant_and_messages_follow_partition(self):
        workload, schemes, bucketed, _ = self.bucketed()
        assert (sum(u.param_bytes for u in bucketed.units)
                == sum(u.param_bytes for u in workload.units))
        sizes = [u.param_bytes for u in reversed(workload.units)]
        partition = wire.bucket_partition(sizes, 4 * 1024 * 1024)
        assert len(bucketed.units) == len(partition)

    def test_backward_seconds_sum_per_bucket(self):
        workload, _, bucketed, _ = self.bucketed()
        assert (pytest.approx(sum(u.backward_seconds for u in bucketed.units))
                == sum(u.backward_seconds for u in workload.units))

    def test_merged_units_carry_payload_parts(self):
        workload, _, bucketed, _ = self.bucketed()
        config = CompressionConfig.parse("topk(0.01)")
        merged = [u for u in bucketed.units if len(u.layer_names) > 1
                  and u.payload_parts is not None]
        assert merged  # vgg19 has small adjacent conv units that fuse
        for unit in merged:
            assert sum(part for part, _ in unit.payload_parts) \
                == unit.param_bytes
            # Compressed accounting = the sum over members, not a dense
            # blob priced off the merged param_bytes.
            expected = sum(
                wire.unit_wire_bytes(config, part, dims)
                for part, dims in unit.payload_parts)
            assert wire.unit_wire_bytes(config, unit.param_bytes, None,
                                        unit.payload_parts) == expected

    def test_non_bucketable_schemes_pass_through(self):
        workload, schemes, bucketed, new_schemes = self.bucketed(
            comm="onebit")
        # The onebit backend is not compressible, so nothing fuses.
        assert [u.name for u in bucketed.units] \
            == [u.name for u in workload.units]
        assert new_schemes == schemes

    @pytest.mark.parametrize("comm", ["ps", "ring"])
    @pytest.mark.parametrize("bucket", [None, 1, 512 * 1024, 16 * 1024 * 1024])
    def test_traffic_invariant_under_bucketing(self, comm, bucket):
        cluster = ClusterConfig(num_workers=8, bandwidth_gbps=10.0)
        workload = build_workload(VGG, gpu=cluster.gpu)
        base = IterationSimulator(workload, cluster,
                                  coarse_system(comm)).run()
        bucketed = IterationSimulator(
            workload, cluster, coarse_system(comm, bucket_bytes=bucket)).run()
        assert bucketed.mean_traffic_gbits == pytest.approx(
            base.mean_traffic_gbits, rel=1e-12)

    def test_des_and_fluid_agree_when_bucketed(self):
        cluster = ClusterConfig(num_workers=8, bandwidth_gbps=10.0)
        workload = build_workload(VGG, gpu=cluster.gpu)
        system = coarse_system("ring", "topk(0.01)", 4 * 1024 * 1024)
        des = IterationSimulator(workload, cluster, system).run()
        fluid = FluidSimulator(workload, cluster, system).run()
        assert des.mean_traffic_gbits == pytest.approx(
            fluid.mean_traffic_gbits, rel=1e-12)


# -- trainer-side bucketer -----------------------------------------------------
class FakeScheduler:
    def __init__(self):
        self.jobs = []

    def schedule(self, job):
        self.jobs.append(job)


class TestGradientBucketer:
    def test_jobs_run_once_in_submission_order(self):
        scheduler = FakeScheduler()
        bucketer = GradientBucketer(10, scheduler)
        ran = []
        for i in range(5):
            bucketer.add(4, lambda i=i: ran.append(i))
        bucketer.finish()
        for job in scheduler.jobs:
            job()
        assert ran == [0, 1, 2, 3, 4]
        assert bucketer.jobs_added == 5

    def test_message_count_matches_partition(self):
        sizes = [3, 9, 2, 2, 2, 8, 1]
        scheduler = FakeScheduler()
        bucketer = GradientBucketer(8, scheduler)
        for size in sizes:
            bucketer.add(size, lambda: None)
        bucketer.finish()
        assert bucketer.messages_flushed \
            == len(wire.bucket_partition(sizes, 8))
        assert len(scheduler.jobs) == bucketer.messages_flushed

    def test_non_bucketable_flushes_and_passes_through(self):
        scheduler = FakeScheduler()
        bucketer = GradientBucketer(100, scheduler)
        ran = []
        bucketer.add(4, lambda: ran.append("a"))
        bucketer.add(4, lambda: ran.append("sfb"), bucketable=False)
        bucketer.add(4, lambda: ran.append("b"))
        bucketer.finish()
        # Three messages: the flushed partial bucket, the pass-through,
        # and the final bucket -- in that order.
        assert len(scheduler.jobs) == 3
        for job in scheduler.jobs:
            job()
        assert ran == ["a", "sfb", "b"]

    def test_rejects_bad_bucket(self):
        with pytest.raises(ConfigurationError):
            GradientBucketer(0, FakeScheduler())


class TestTrainerBucketInvariance:
    @staticmethod
    def final_state(bucket_bytes, compressor="none", iterations=5):
        train_x, train_y, _, _ = make_linearly_separable(
            num_train=120, num_test=30, input_dim=16, num_classes=4, seed=1)
        shards = shard_dataset(train_x, train_y, NUM_WORKERS, seed=2)
        config = TrainingConfig(batch_size=8, learning_rate=0.05,
                                iterations=iterations, seed=5)
        trainer = DistributedTrainer(
            network_factory=lambda: build_mlp_network(
                input_dim=16, hidden_dims=(32, 16), num_classes=4, seed=21),
            num_workers=NUM_WORKERS,
            train_shards=shards,
            training=config,
            mode="hybrid",
            schedule=ScheduleMode.WFBP,
            deterministic=True,
            compressor=compressor,
            bucket_bytes=bucket_bytes,
        )
        trainer.train(iterations)
        return trainer.replica(0).get_state()

    @settings(max_examples=4, deadline=None)
    @given(bucket=st.sampled_from([1, 777, 16 * 1024, 10 ** 9]))
    def test_params_bit_identical_for_every_bucket_size(self, bucket):
        """The headline granularity property: bucketing moves no bits."""
        if not hasattr(self, "_reference"):
            type(self)._reference = self.final_state(None)
        bucketed = self.final_state(bucket)
        for layer, params in self._reference.items():
            for name, value in params.items():
                np.testing.assert_array_equal(
                    bucketed[layer][name], value,
                    err_msg=f"{layer}/{name} moved under bucket={bucket}")

    def test_bucketing_composes_with_compression(self):
        reference = self.final_state(None, compressor="topk(0.1)")
        bucketed = self.final_state(2048, compressor="topk(0.1)")
        for layer, params in reference.items():
            for name, value in params.items():
                np.testing.assert_array_equal(bucketed[layer][name], value)


# -- memo-table audit ----------------------------------------------------------
class TestSweepCacheAudit:
    def test_axis_cache_keys_on_compression_axes(self):
        """Same (model, cluster, bandwidths), different wire config -->
        different results; a stale cross-config hit would make them equal."""
        cluster = ClusterConfig(num_workers=8, bandwidth_gbps=10.0)
        bandwidths = [1.0, 10.0]
        base = coarse_system("ring")
        variants = {
            "dense": base,
            "sparse": base.with_compression("topk(0.01)"),
            "bucketed": base.with_compression("none", 4 * 1024 * 1024),
        }
        axes = {}
        for name, system in variants.items():
            for _ in range(2):  # the warm repeat must be unchanged
                axes.setdefault(name, []).append(
                    sweep_axis(VGG, system, cluster, bandwidths))
        for name, (first, second) in axes.items():
            np.testing.assert_array_equal(first, second)
        assert not np.array_equal(axes["dense"][0], axes["sparse"][0])
        assert not np.array_equal(axes["dense"][0], axes["bucketed"][0])

    def test_scheme_decisions_are_compressor_invariant(self):
        """Why scheme decisions need no compression key:
        ``decide_schemes`` is called on the unbucketed workload and its
        signature never sees the compressor (Algorithm 1 is
        compression-blind by design); the simulators' resolved per-unit
        schemes therefore match for every wire config."""
        cluster = ClusterConfig(num_workers=8, bandwidth_gbps=10.0)
        workload = build_workload(VGG, gpu=cluster.gpu)
        plain = IterationSimulator(workload, cluster,
                                   coarse_system("hybrid")).schemes
        compressed = IterationSimulator(
            workload, cluster,
            coarse_system("hybrid", "topk(0.01)")).schemes
        assert plain == compressed
