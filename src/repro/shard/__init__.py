"""``repro.shard`` — run a scenario as a fleet of independent NICs.

:mod:`repro.shard.partition` splits a spec into partitions (a pure
function of ``ShardSpec.partitions``, never of the worker count);
:mod:`repro.shard.engine` runs each partition as an ordinary monolithic
scenario on a fork-context process pool and merges the results in
partition-index order, so reports are byte-identical for any
``--shards N``.
"""

from repro.shard.engine import (ShardError, run_benchmarks_sharded, run_cell_sharded,
                                run_scorecard_sharded, run_sharded_partitions)
from repro.shard.partition import effective_partitions, partition_specs

__all__ = ["ShardError", "effective_partitions", "partition_specs",
           "run_benchmarks_sharded", "run_cell_sharded",
           "run_scorecard_sharded", "run_sharded_partitions"]
