"""Oracle aggregator: median of three PriceFeed sources.

STATICCALLs three independent feeds and stores the median — chained
read-only cross-contract context plus the branchy comparison logic of
a 3-way median (multiple AP paths per calling pattern).
"""

from __future__ import annotations

from repro.minisol.abi import selector

#: Selector of PriceFeed.prices(uint256).
PRICES_SELECTOR = selector("prices(uint256)")

AGGREGATOR_SOURCE = f"""
contract Aggregator {{
    uint256 public feedA;
    uint256 public feedB;
    uint256 public feedC;
    uint256 public lastMedian;
    uint256 public lastRound;

    event MedianUpdated(uint256 round, uint256 median);

    function update(uint256 round) public {{
        uint256 a = staticread(feedA, {PRICES_SELECTOR}, round);
        uint256 b = staticread(feedB, {PRICES_SELECTOR}, round);
        uint256 c = staticread(feedC, {PRICES_SELECTOR}, round);
        uint256 median = 0;
        if (a <= b && b <= c) {{ median = b; }}
        else if (c <= b && b <= a) {{ median = b; }}
        else if (b <= a && a <= c) {{ median = a; }}
        else if (c <= a && a <= b) {{ median = a; }}
        else {{ median = c; }}
        require(median > 0);
        lastMedian = median;
        lastRound = round;
        emit MedianUpdated(round, median);
    }}
}}
"""

