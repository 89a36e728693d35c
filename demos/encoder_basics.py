"""Walk through the convolutional encoder on a tiny hand-made input.

The encoder slides `m` filters of width `w` over a d-by-L instance matrix,
applies ReLU, and keeps the maximum activation of each filter. Inputs
narrower than the filter window are zero-padded on the right.
"""

import numpy as np

from convtransfer.convnet import ConvBlock, conv_backward, conv_forward

rng = np.random.default_rng(0)

d, w, m = 3, 2, 2
block = ConvBlock(filters=rng.normal(size=(m, d, w)), bias=np.zeros(m))

x = np.array([[1.0, -2.0, 0.5, 3.0],
              [0.0, 1.0, 1.0, -1.0],
              [2.0, 0.0, -0.5, 1.0]])

out, trace = conv_forward(block, x)
print("input (d x L):")
print(x)
print(f"\npre-activations ({m} filters x {x.shape[1] - w + 1} positions):")
print(trace.pre[..., 0])
print("\nmax position per filter:", trace.argmax[..., 0])
print("pooled output:", out)

# Narrow inputs are padded with zero columns so every instance embeds.
narrow = np.array([[1.0], [2.0], [3.0]])
out2, t2 = conv_forward(block, narrow)
print("\nsingle-column input is padded to the filter width:")
print("padded matrix:\n", t2.x_padded[..., 0])
print("output:", out2)

# The backward pass routes gradient only through each filter's argmax
# position, and only where the ReLU was active.
upstream = np.ones(m)
dfilters, dbias = conv_backward(block, trace, upstream)
print("\ngradient w.r.t. bias (zero where the winning unit was inactive):")
print(dbias)
print("gradient w.r.t. the filters:")
print(dfilters)
