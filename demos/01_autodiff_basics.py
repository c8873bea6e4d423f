"""Tour of the reverse-mode engine: build a graph, backprop, cross-check.

Every trainable array in this package is a float64 Tensor. Operations
record pull-back closures on a module-level tape; backward() walks the
tape once and then clears it. The demo differentiates a tiny two-layer
network by hand-rolled central differences and compares.
"""
import numpy as np

from contrastner import autodiff as ad


def network_loss(w1, b1, w2, x):
    h = ad.relu(ad.add(ad.matmul(w1, x), b1))
    out = ad.matmul(w2, h)
    return ad.dot(out, out)


def main():
    rng = np.random.default_rng(7)
    w1 = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b1 = ad.Tensor(np.zeros(4), requires_grad=True)
    w2 = ad.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    x = ad.constant(rng.normal(size=3))

    loss = network_loss(w1, b1, w2, x)
    print(f"loss = {loss.item():.6f}")
    ad.backward(loss)

    # central differences on a few coordinates of w1
    eps = 1e-6
    print("coordinate  analytic      numeric")
    for i, j in [(0, 0), (1, 2), (3, 1)]:
        orig = w1.values[i, j]
        with ad.no_grad():
            w1.values[i, j] = orig + eps
            hi = network_loss(w1, b1, w2, x).item()
            w1.values[i, j] = orig - eps
            lo = network_loss(w1, b1, w2, x).item()
        w1.values[i, j] = orig
        fd = (hi - lo) / (2 * eps)
        print(f"w1[{i},{j}]     {w1.grad[i, j]:+.8f}  {fd:+.8f}")

    # unreachable tensors keep grad=None rather than a zero array
    orphan = ad.Tensor(np.ones(2), requires_grad=True)
    print("orphan grad is None:", orphan.grad is None)


if __name__ == "__main__":
    main()
