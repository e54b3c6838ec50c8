"""The DES points ``tools/equiv.py`` digests: a covering walk of the axes.

Each point is ``(key, make)``; ``make()`` returns ``(model_spec, system,
cluster)`` and may itself raise (a refused axis value is a point too).  The
walk is deterministic and imports only public entry points that older trees
have as well, so the same enumeration runs against a reference checkout.

Axes: model (three CNNs, one transformer) x backend system (the seven
compared schemes and the paper's baselines: sequential, coarse, no
overlapped pull or host copy) x nodes <= 16 x flat / racked (2r 4:1,
3r 2:1, 4r 4:1) x colocated / dedicated shards, every one of them under
BSP with and without stragglers; policies (``ssp(1)``, ``local_sgd(2)``,
``async``), compressors / buckets, ``overlap_pull`` / ``overlap_host_copy``
off and ``gpus_per_node=2`` on a smaller product beside it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator, Tuple

MODELS = ("alexnet", "googlenet", "vgg19", "nanogpt-12l")

#: (label, ClusterConfig keyword arguments)
CLUSTERS = (
    ("1n", dict(num_workers=1)),
    ("2n", dict(num_workers=2)),
    ("5n", dict(num_workers=5)),
    ("8n", dict(num_workers=8)),
    ("16n", dict(num_workers=16)),
    ("8n-2r4", dict(num_workers=8, racks=2, oversubscription=4.0)),
    ("9n-3r2", dict(num_workers=9, racks=3, oversubscription=2.0)),
    ("16n-4r4", dict(num_workers=16, racks=4, oversubscription=4.0)),
    ("6w3s", dict(num_workers=6, num_servers=3, colocate_servers=False)),
    ("8w8s-4r4", dict(num_workers=8, num_servers=8, colocate_servers=False,
                      racks=4, oversubscription=4.0)),
)

#: The smaller cluster set the side axes walk.
SIDE_CLUSTERS = ("5n", "8n", "9n-3r2", "6w3s")

POLICIES = ("ssp(1)", "local_sgd(2)", "async")

#: (label, compressor, bucket_bytes)
WIRES = (("topk", "topk(0.01)", None), ("bucket", "none", 4 << 20),
         ("topk+bucket", "topk(0.01)", 4 << 20))

STRAGGLERS = (("", {}), ("+slow",
                         dict(straggler_fraction=0.25, straggler_factor=2.0)))


def systems():
    """``(label, system)`` of every compared backend on the Poseidon client
    library, plus the paper's baseline systems."""
    from repro import config
    from repro.experiments.fig_backends import backend_systems

    for system in backend_systems():
        yield system.name, system
    for name in ("CAFFE_PS", "TF", "ADAM_TF", "CNTK_1BIT", "POSEIDON_TF"):
        yield name, getattr(config, name)


Point = Tuple[str, Callable[[], tuple]]


def points() -> Iterator[Point]:
    """``(key, make)`` of every point, in a fixed order."""
    from repro.config import ClusterConfig
    from repro.core.policy import SyncPolicy
    from repro.nn.model_zoo import get_model_spec

    clusters = dict(CLUSTERS)

    def point(model, system, cluster, bandwidth=10.0, **changes):
        def make():
            spec = get_model_spec(model)
            built = replace(system, **changes) if changes else system
            return spec, built, ClusterConfig(bandwidth_gbps=bandwidth,
                                              **clusters[cluster])
        return make

    everything = list(systems())
    for model in MODELS:
        for label, system in everything:
            for cluster, _ in CLUSTERS:
                for slow, changes in STRAGGLERS:
                    yield (f"{model}|{label}|{cluster}|bsp{slow}",
                           point(model, system, cluster, **changes))
    for model in MODELS[:3]:
        for label, system in everything:
            for cluster in SIDE_CLUSTERS:
                for policy in POLICIES:
                    for slow, changes in STRAGGLERS:
                        yield (f"{model}|{label}|{cluster}|{policy}{slow}",
                               point(model, system, cluster,
                                     policy=SyncPolicy.parse(policy),
                                     **changes))
                for wire, compressor, bucket in WIRES:
                    yield (f"{model}|{label}|{cluster}|{wire}",
                           point(model, system, cluster,
                                 compressor=compressor, bucket_bytes=bucket))
                for flag in ("overlap_pull", "overlap_host_copy"):
                    value = not getattr(system, flag)
                    yield (f"{model}|{label}|{cluster}|{flag}={value}",
                           point(model, system, cluster, **{flag: value}))
    for model in MODELS:
        for label, system in everything:
            for cluster in SIDE_CLUSTERS:
                key = f"{model}|{label}|{cluster}|2gpu"
                make = point(model, system, cluster)

                def two_gpus(make=make):
                    spec, system_, cluster_ = make()
                    return spec, system_, replace(cluster_, gpus_per_node=2)

                yield key, two_gpus
