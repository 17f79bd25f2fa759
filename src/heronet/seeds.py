"""Named rng stream tags.

Every stochastic site derives its generator as
np.random.default_rng([seed, STREAM, extra...]) with a stream tag from
this table, so no two sites ever share a stream and runs stay
reproducible regardless of call order.  A tag keeps its number once
given, so retiring one (5) leaves a gap rather than moving any stream.
"""

CORPUS = 1
INIT = 2
ABLATION_INIT = 3
SQD_MINE = 4
EPOCH = 6
ROLLOUT = 7
EVAL = 8
RERANK = 9
ADV = 10
CHAT = 11
WARMUP = 12
