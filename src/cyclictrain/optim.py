"""AdamW with decoupled weight decay, stepped once per component.

A component is one contiguous slice of its graph's parameter buffer, so
``AdamW.step`` updates each trainable one as a flat array: its gradients are
concatenated, and it has one ``m`` and one ``v`` buffer, one learning rate
and one step count.  ``AdamW.state`` maps each parameter name to its
:class:`AdamWState` record, whose ``m`` and ``v`` view those buffers;
checkpoints store these records as they are.  Frozen parameters
(``trainable=False``) are skipped entirely: no data change, no moment
update, no step-count advance, so a freeze leaves both the weights and the
optimizer state bit-identical.
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
    """Decoupled-weight-decay Adam over a graph's named parameters.

    Parameters are :class:`~cyclictrain.model.Parameter` records of one
    ``ModelGraph``, in registry order.  ``lr_for`` lets the caller resolve a
    per-component learning rate (e.g. a smaller one for a shared backbone);
    it is sampled once, from a component's first parameter, when the
    component's state is first created.  ``step`` updates the moments in
    place; a resume assigns ``state`` from a loaded checkpoint's optimizer,
    and the records are adopted at the next step.  Replace ``state`` by
    assignment, not entry by entry.
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
        self.state = {}

    @property
    def state(self) -> dict[str, AdamWState]:
        return self._state

    @state.setter
    def state(self, records: Mapping[str, AdamWState]) -> None:
        self._state = dict(records)
        self._moments: dict[str, tuple] = {}  # component -> (its records, m, v), once stepped

    def __setstate__(self, state: dict) -> None:
        # a copied or unpickled optimizer's records no longer view its moment
        # buffers, so the next step adopts them again
        self.__dict__.update(state)
        self._moments = {}

    def component_records(self, component: str, names: list[str]) -> list[AdamWState] | None:
        """The records of one component's parameters ``names``; None if it has none.

        Either every parameter of a component has a record, all with one
        ``lr`` and one ``step_count``, or none does; anything else is a
        ``ValueError`` naming the entry.
        """
        records = [self._state.get(name) for name in names]
        held = [(name, st) for name, st in zip(names, records) if st is not None]
        if not held:
            return None
        ref_name, ref = held[0]
        for name, st in zip(names, records):
            if st is None:
                raise ValueError(f"'{name}' has no entry, but '{ref_name}' of the same "
                                 f"component '{component}' has one")
            if (st.lr, st.step_count) != (ref.lr, ref.step_count):
                raise ValueError(f"'{name}' has lr {st.lr} and step_count {st.step_count}, but "
                                 f"'{ref_name}' of the same component '{component}' has lr "
                                 f"{ref.lr} and step_count {ref.step_count}")
        return records

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
        listed whole, and each gradient must be present, of its parameter's
        shape and finite; a failure is a ``ValueError`` naming the parameter.
        """
        groups: dict[str, list] = {}
        for p in params:
            if p.trainable:
                groups.setdefault(p.component, []).append(p)
        plan = [(ps, self._gradient(ps, grads), self._moments.get(ps[0].component)
                 or self._adopt(ps)) for ps in groups.values()]
        b1, b2 = self.betas
        for ps, g, moments in plan:
            if ps[0].component not in self._moments:
                self._moments[ps[0].component] = moments
                self._state.update(zip((p.name for p in ps), moments[0]))
            records, m, v = moments
            t = records[0].step_count + 1
            for st in records:
                st.step_count = t
            data = ps[0].component_data
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
            update *= records[0].lr * lr_scale
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

    def _adopt(self, ps: list) -> tuple[list[AdamWState], np.ndarray, np.ndarray]:
        """Records and moment buffers of a component's first step: from its
        records in ``state``, or new.  Nothing is stored here."""
        first = ps[0]
        old = self.component_records(first.component, [p.name for p in ps])
        if old is None:
            lr = self.lr_for(first) if self.lr_for is not None else self.lr
            if not (np.isfinite(lr) and lr >= 0.0):
                raise ValueError(f"learning rate {lr} for '{first.name}' is not finite and >= 0")
            old = [AdamWState(lr, 0, np.zeros(p.tensor.shape), np.zeros(p.tensor.shape))
                   for p in ps]
        for p, st in zip(ps, old):
            if st.m.shape != p.tensor.shape or st.v.shape != p.tensor.shape:
                raise ValueError(f"moments of '{p.name}' are not of its shape {p.tensor.shape}")
        m = np.concatenate([st.m for st in old], axis=None, dtype=np.float64)
        v = np.concatenate([st.v for st in old], axis=None, dtype=np.float64)
        records = [AdamWState(st.lr, st.step_count, p.within(m), p.within(v))
                   for p, st in zip(ps, old)]
        return records, m, v
