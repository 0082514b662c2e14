"""AdamW with decoupled weight decay, per-parameter state and freezing.

``AdamW.state`` maps each parameter name to its :class:`AdamWState`
record; checkpoints store these records as they are.  Frozen parameters
(``trainable=False``) are skipped entirely: no data change, no moment update,
no step-count advance, so a freeze leaves both the weights and the optimizer
state bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = ["AdamWState", "AdamW"]


@dataclass
class AdamWState:
    """Learning rate, applied steps and moments of one parameter."""

    lr: float
    step_count: int
    m: np.ndarray
    v: np.ndarray


class AdamW:
    """Decoupled-weight-decay Adam over named parameters.

    Parameters are duck-typed: anything with ``name``, ``tensor`` (holding
    ``data``), ``component`` and ``trainable`` works.  ``lr_for``
    lets the caller resolve a per-parameter learning rate (e.g. a smaller one
    for a shared backbone); it is sampled once, when the parameter's state is
    first created.  ``step`` updates the moments of ``state`` in place; a
    resume assigns ``state`` from a loaded checkpoint's optimizer.
    """

    def __init__(
        self,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        lr_for: Callable[[object], float] | None = None,
    ):
        if not (0.0 < betas[0] < 1.0 and 0.0 < betas[1] < 1.0):
            raise ValueError(f"betas must lie in (0, 1), got {betas}")
        if not (np.isfinite(lr) and lr >= 0.0):
            raise ValueError(f"lr must be finite and non-negative, got {lr}")
        if not (np.isfinite(eps) and eps > 0.0):
            raise ValueError(f"eps must be finite and positive, got {eps}")
        if not (np.isfinite(weight_decay) and weight_decay >= 0.0):
            raise ValueError(f"weight_decay must be finite and non-negative, got {weight_decay}")
        self.lr = float(lr)
        self.betas = (float(betas[0]), float(betas[1]))
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.lr_for = lr_for
        self.state: dict[str, AdamWState] = {}

    def step(
        self,
        params: Iterable,
        grads: Mapping[str, np.ndarray],
        lr_scale: float = 1.0,
    ) -> None:
        """Apply one update to every trainable parameter.

        ``grads`` holds one gradient per trainable parameter, as
        ``ModelGraph.backward`` returns them.  Missing and non-finite
        gradients are rejected by parameter name.
        """
        b1, b2 = self.betas
        for p in params:
            if not p.trainable:
                continue
            if p.name not in grads:
                raise ValueError(f"no gradient for trainable parameter '{p.name}'")
            g = grads[p.name]
            if not np.all(np.isfinite(g)):
                raise ValueError(f"non-finite gradient for parameter '{p.name}'")
            st = self.state.get(p.name)
            if st is None:
                lr = self.lr_for(p) if self.lr_for is not None else self.lr
                if not (np.isfinite(lr) and lr >= 0.0):
                    raise ValueError(f"learning rate {lr} for '{p.name}' is not finite and >= 0")
                st = AdamWState(lr, 0, np.zeros_like(p.tensor.data), np.zeros_like(p.tensor.data))
                self.state[p.name] = st
            st.step_count += 1
            # in place, through two scratch arrays, each element takes the
            # operations of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g) and
            # p -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * p), in that order.
            tmp = np.multiply(g, 1.0 - b1)
            st.m *= b1
            st.m += tmp
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - b2
            st.v *= b2
            st.v += tmp
            update = st.m / (1.0 - b1 ** st.step_count)
            np.divide(st.v, 1.0 - b2 ** st.step_count, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            update /= tmp
            np.multiply(p.tensor.data, self.weight_decay, out=tmp)
            update += tmp
            update *= st.lr * lr_scale
            p.tensor.data -= update
