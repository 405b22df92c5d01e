"""Annealing a network onto target statistics.

Build a 100-node network with exactly 30 edges where same-sex ties and
concurrent (degree >= 2) vertices are forbidden outright by minus-
infinity offsets.  The energy counts only the non-offset statistics;
the offsets bias every proposal that would raise a forbidden count to
certain rejection.
"""

import math

from ergmkit import Network, SanConfig, VertexAttributes, bind, san_run

n = 100
attrs = VertexAttributes(n)
attrs.add("sex", ["M", "F"] * (n // 2))

net = Network(n)
model = bind('edges + offset(nodematch("sex")) + offset(concurrent)', net,
             attrs)
config = SanConfig(targets=[30.0], offset_coefs=(-math.inf, -math.inf),
                   seed=0)
final, trace = san_run(net, model, config, attrs=attrs)

check = bind('edges + nodematch("sex") + concurrent', final, attrs)
print("summary after annealing:", check.summary(final))
print("proposals used:", trace.proposals)
print("energy hit zero:", trace.exited_early)

# annealing also drives real-valued targets close when exact hits are
# impossible; here the weight matrix adapts from proposal differences
net2 = Network(40)
model2 = bind("edges + concurrent", net2)
config2 = SanConfig(targets=[35.0, 12.0], runs=4, steps_per_run=30_000, seed=1)
final2, trace2 = san_run(net2, model2, config2)
print("\ntwo simultaneous targets:", bind("edges + concurrent", final2).summary(final2),
      "(wanted [35, 12])")
