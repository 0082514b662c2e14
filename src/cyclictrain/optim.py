"""AdamW with decoupled weight decay, stepped once per component.

A component's parameters share one flat buffer of their graph, so
``AdamW.step`` updates each trainable component as one array: its gradients
are concatenated, and its :class:`AdamWState` holds one learning rate, one
step count and one flat ``m`` and ``v``, laid out like that buffer, which is
how a checkpoint stores it.  ``AdamW.state`` maps each stepped component to
its state.  Frozen parameters (``trainable=False``) are skipped entirely: no
data change, no moment update, no step-count advance, so a freeze leaves
both the weights and the optimizer state bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = ["AdamWState", "AdamW"]


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
    """Decoupled-weight-decay Adam over a graph's named parameters.

    Parameters are :class:`~cyclictrain.model.Parameter` records of one
    ``ModelGraph``, in registry order.  ``lr_for`` lets the caller resolve a
    per-component learning rate (e.g. a smaller one for a shared backbone)
    from the component's name; it is sampled once, when the component's
    state is first created.  ``step`` updates the moments in place; a resume
    assigns ``state`` from a loaded checkpoint's optimizer.
    """

    def __init__(
        self,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        lr_for: Callable[[str], float] | None = None,
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
        """Apply one update to every trainable component.

        ``grads`` holds one gradient per trainable parameter, as
        ``ModelGraph.backward`` returns them.  Everything is checked before
        any parameter or moment changes: a trainable component must be
        listed whole, each gradient must be present, of its parameter's
        shape and finite (a failure is a ``ValueError`` naming the
        parameter), and a component's state must be of its size.
        """
        groups: dict[str, list] = {}
        for p in params:
            if p.trainable:
                groups.setdefault(p.component, []).append(p)
        plan = [(c, ps[0].component_data, self._gradient(ps, grads), self._state_for(ps[0]))
                for c, ps in groups.items()]
        b1, b2 = self.betas
        for component, data, g, st in plan:
            self.state[component] = st
            st.step_count += 1
            t = st.step_count
            m, v = st.m, st.v
            # in place, through two scratch arrays (g is one), each element
            # takes the operations of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g)
            # and p -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * p), in that order.
            tmp = np.multiply(g, 1.0 - b1)
            m *= b1
            m += tmp
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - b2
            v *= b2
            v += tmp
            update = np.divide(m, 1.0 - b1 ** t, out=g)
            np.divide(v, 1.0 - b2 ** t, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            update /= tmp
            np.multiply(data, self.weight_decay, out=tmp)
            update += tmp
            update *= st.lr * lr_scale
            data -= update

    def _gradient(self, ps: list, grads: Mapping[str, np.ndarray]) -> np.ndarray:
        """One component's gradients, checked and concatenated in its layout."""
        size = 0
        for p in ps:
            if p.offset != size:
                break
            if p.name not in grads:
                raise ValueError(f"no gradient for trainable parameter '{p.name}'")
            if grads[p.name].shape != p.tensor.shape:
                raise ValueError(f"gradient for parameter '{p.name}' has shape "
                                 f"{grads[p.name].shape}, the parameter {p.tensor.shape}")
            size += p.tensor.size
        if size != ps[0].component_data.size:
            raise ValueError(f"component '{ps[0].component}' is not trainable and listed whole")
        g = np.concatenate([grads[p.name] for p in ps], axis=None, dtype=np.float64)
        if not np.isfinite(g).all():
            bad = next(p.name for p in ps if not np.isfinite(grads[p.name]).all())
            raise ValueError(f"non-finite gradient for parameter '{bad}'")
        return g

    def _state_for(self, p) -> AdamWState:
        """The state of ``p``'s component, or a zero one; nothing is stored here."""
        component, size = p.component, p.component_data.size
        st = self.state.get(component)
        if st is None:
            lr = self.lr_for(component) if self.lr_for is not None else self.lr
            if not (np.isfinite(lr) and lr >= 0.0):
                raise ValueError(f"learning rate {lr} for component '{component}' is not "
                                 "finite and >= 0")
            return AdamWState(lr, 0, np.zeros(size), np.zeros(size))
        st.check_size(component, size)
        return st
