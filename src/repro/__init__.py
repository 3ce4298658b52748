"""repro — reproduction of "k/2-hop: Fast Mining of Convoy Patterns With
Effective Pruning" (Orakzai, Calders, Pedersen; PVLDB 12(9), 2019).

Quickstart::

    from repro import ConvoySession
    from repro.data import plant_convoys

    workload = plant_convoys(n_convoys=3, seed=1)
    result = (
        ConvoySession.from_dataset(workload.dataset)
        .algorithm("k2hop")
        .params(m=3, k=10, eps=workload.eps)
        .mine()
    )
    for convoy in result:
        print(convoy)

The same session drives streaming (``.feed()``) and serving
(``.serve()``, ``ConvoySession.open``); ``repro.api.list_miners()``
enumerates every registered algorithm.
"""

from .api import (
    ConvoyService,
    ConvoySession,
    MinerInfo,
    SessionResult,
    get_miner,
    list_miners,
    miner_names,
    register_miner,
)
from .core import (
    Convoy,
    ConvoyQuery,
    K2Hop,
    MiningResult,
    MiningStats,
    TimeInterval,
)
from .data import (
    Dataset,
    generate_brinkhoff,
    generate_tdrive,
    generate_trucks,
    plant_convoys,
    random_walk_dataset,
)

__version__ = "1.1.0"

__all__ = [
    "Convoy",
    "ConvoyQuery",
    "ConvoyService",
    "ConvoySession",
    "Dataset",
    "K2Hop",
    "MinerInfo",
    "MiningResult",
    "MiningStats",
    "SessionResult",
    "TimeInterval",
    "__version__",
    "generate_brinkhoff",
    "generate_tdrive",
    "generate_trucks",
    "get_miner",
    "list_miners",
    "miner_names",
    "plant_convoys",
    "random_walk_dataset",
    "register_miner",
]
