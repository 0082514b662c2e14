"""AdamW with decoupled weight decay, stepped once per component.

A component's parameters share one flat buffer of their graph, and
``ModelGraph.backward`` returns one flat gradient per trainable component,
laid out like that buffer.  ``AdamW.step`` updates each component in those
gradients as one array; its :class:`AdamWState` holds one learning rate,
one step count and one flat ``m`` and ``v``, laid out like the buffer too,
which is how a checkpoint stores it.  ``AdamW.state`` maps each stepped
component to its state.  A frozen component gets no gradient and is not
touched: no data change, no moment update, no step-count advance, so a
freeze leaves both the weights and the optimizer state bit-identical.

``BETAS`` and ``EPS`` are the constants of Kingma & Ba 2015
(arXiv:1412.6980); the decoupled decay is Loshchilov & Hutter 2019
(arXiv:1711.05101).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = ["BETAS", "EPS", "AdamWState", "AdamW"]

BETAS = (0.9, 0.999)
EPS = 1e-8


@dataclass
class AdamWState:
    """Learning rate, applied steps and flat moments of one component."""

    lr: float
    step_count: int
    m: np.ndarray
    v: np.ndarray

    def check_size(self, component: str, size: int) -> None:
        """A ``ValueError`` unless ``m`` and ``v`` are flat, of ``size`` elements each."""
        if self.m.shape != (size,) or self.v.shape != (size,):
            raise ValueError(f"moments of component '{component}' are not of its size {size}")


class AdamW:
    """Decoupled-weight-decay Adam over a graph's components.

    ``lr_for`` gives a component's learning rate (e.g. a smaller one for a
    shared backbone) from its name; it is sampled once, when the
    component's state is first created.  Without it (a loaded checkpoint's
    optimizer) only components that already hold a state can be stepped.
    ``step`` updates the moments in place; a resume assigns ``state`` from
    a loaded checkpoint's optimizer.
    """

    def __init__(self, weight_decay: float = 0.0,
                 lr_for: Callable[[str], float] | None = None):
        if not (np.isfinite(weight_decay) and weight_decay >= 0.0):
            raise ValueError(f"weight_decay must be finite and non-negative, got {weight_decay}")
        self.weight_decay = float(weight_decay)
        self.lr_for = lr_for
        self.state: dict[str, AdamWState] = {}

    def step(self, params: Iterable, grads: Mapping[str, np.ndarray]) -> None:
        """Apply one update to every component in ``grads``.

        ``params`` are the graph's :class:`~cyclictrain.model.Parameter`
        records and ``grads`` holds one flat float64 gradient per trainable
        component, as ``ModelGraph.backward`` returns them; neither is
        written.  Everything is checked before any parameter or moment
        changes: exactly the trainable components have a gradient (one
        with a frozen parameter is frozen), each gradient has its
        component's buffer shape and is finite (a failure names the
        parameter), and a component's state is of its size.
        """
        params = list(params)
        buffers: dict[str, np.ndarray] = {}  # component -> its flat buffer
        frozen = set()  # components with a frozen parameter
        for p in params:
            buffers[p.component] = p.component_data
            if not p.trainable:
                frozen.add(p.component)
        trainable = [c for c in buffers if c not in frozen]
        if set(grads) != set(trainable):
            raise ValueError(f"gradients for components {sorted(grads)}, but the trainable "
                             f"ones are {sorted(trainable)}")
        plan = []
        for c in trainable:
            data, g = buffers[c], grads[c]
            if g.shape != data.shape or g.dtype != np.float64:
                raise ValueError(f"gradient for component '{c}' is {g.dtype} of shape "
                                 f"{g.shape}, its buffer float64 of shape {data.shape}")
            if not np.isfinite(g).all():
                bad = next(p.name for p in params
                           if p.component == c and not np.isfinite(p.within(g)).all())
                raise ValueError(f"non-finite gradient for parameter '{bad}'")
            plan.append((c, data, g, self._state_for(c, data.size)))
        b1, b2 = BETAS
        for component, data, g, st in plan:
            self.state[component] = st
            st.step_count += 1
            t = st.step_count
            m, v = st.m, st.v
            # in place, through two scratch arrays, each element takes the
            # operations of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g)
            # and p -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * p), in that order.
            tmp = np.multiply(g, 1.0 - b1)
            m *= b1
            m += tmp
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - b2
            v *= b2
            v += tmp
            update = np.divide(m, 1.0 - b1 ** t)
            np.divide(v, 1.0 - b2 ** t, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += EPS
            update /= tmp
            np.multiply(data, self.weight_decay, out=tmp)
            update += tmp
            update *= st.lr
            data -= update

    def _state_for(self, component: str, size: int) -> AdamWState:
        """The component's state, or a zero one; nothing is stored here."""
        st = self.state.get(component)
        if st is None:
            if self.lr_for is None:
                raise ValueError(f"component '{component}' has no optimizer state and there "
                                 "is no lr_for to start one")
            lr = self.lr_for(component)
            if not (np.isfinite(lr) and lr >= 0.0):
                raise ValueError(f"learning rate {lr} for component '{component}' is not "
                                 "finite and >= 0")
            return AdamWState(lr, 0, np.zeros(size), np.zeros(size))
        st.check_size(component, size)
        return st
