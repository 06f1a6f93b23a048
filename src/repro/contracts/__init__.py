"""Contract library: the paper's running example plus DeFi-shaped contracts.

Each module exposes ``SOURCE`` (minisol text) and a cached
``compiled()`` accessor; the aggregator, which no workload deploys,
exposes its source only.  The contracts reproduce the workload shapes
the paper's evaluation runs against: oracle price feeds (the paper's
§4.2 example, inter-dependent via shared rounds), ERC20 transfers
(sparse inter-dependence via shared accounts), constant-product AMM
swaps (dense inter-dependence via shared reserves), auctions, and a
registry with cross-contract calls.
"""

from repro.contracts.pricefeed import PRICEFEED_SOURCE, pricefeed
from repro.contracts.erc20 import ERC20_SOURCE, erc20
from repro.contracts.amm import AMM_SOURCE, amm
from repro.contracts.auction import AUCTION_SOURCE, auction
from repro.contracts.registry import REGISTRY_SOURCE, registry
from repro.contracts.lending import LENDING_SOURCE, lending
from repro.contracts.aggregator import AGGREGATOR_SOURCE

__all__ = [
    "PRICEFEED_SOURCE", "pricefeed",
    "ERC20_SOURCE", "erc20",
    "AMM_SOURCE", "amm",
    "AUCTION_SOURCE", "auction",
    "REGISTRY_SOURCE", "registry",
    "LENDING_SOURCE", "lending",
    "AGGREGATOR_SOURCE",
]
