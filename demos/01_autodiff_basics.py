"""Tour of the tensor engine: build a small computation, record it on a
tape, differentiate it, and cross-check against finite differences."""

import numpy as np

from trisal import tensor as T
from trisal.tensor import Tape, Tensor

rng = np.random.default_rng(0)

# A two-layer perceptron on a 4-sample batch, written with raw ops.
x = Tensor(rng.normal(size=(4, 3)))
w1 = Tensor(rng.normal(size=(3, 5)) * 0.5, requires_grad=True)
w2 = Tensor(rng.normal(size=(5, 1)) * 0.5, requires_grad=True)

with Tape() as tape:
    hidden = T.relu(T.matmul(x, w1))
    score = T.sigmoid(T.matmul(hidden, w2))
    loss = T.sum_all(T.mul(score, score))
    T.backward(loss)

print("loss:", float(loss.data))
print("tape ops:", dict(tape.op_counts()))
print("dL/dw2 column:", np.round(w2.grad.ravel(), 4))

# grad_check compares the recorded gradient with central differences.
err = T.grad_check(lambda t: T.sum_all(T.mul(T.sigmoid(T.matmul(T.relu(T.matmul(x, t)), w2)), Tensor(2.0))), w1)
print("finite-difference rel err on w1:", f"{err:.2e}")

# Gradients accumulate across backward passes until cleared.
w2.grad = None
for _ in range(2):
    with Tape():
        T.backward(T.sum_all(T.matmul(Tensor(np.ones((1, 5))), w2)))
print("accumulated grad (two passes):", w2.grad.ravel())
