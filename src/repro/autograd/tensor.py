"""Reverse-mode automatic differentiation on top of numpy.

This module is the substrate that replaces PyTorch for the whole
reproduction.  It provides a :class:`Tensor` wrapping an
``numpy.ndarray`` together with a dynamically built computation graph.
Calling :meth:`Tensor.backward` walks the graph in reverse topological
order and accumulates gradients into every tensor created with
``requires_grad=True``.

Design notes
------------
* Gradients are plain ``numpy.ndarray`` objects (not tensors); no
  higher-order differentiation is supported, which keeps the engine
  small and is all the paper's training loop needs.
* Broadcasting follows numpy semantics.  Every op funnels its upstream
  gradient through :func:`unbroadcast` so that gradient shapes always
  match parameter shapes.
* A module-level switch (:func:`no_grad`) disables graph construction
  during evaluation, mirroring ``torch.no_grad``.
* Every op also carries a *replay kernel* — the same numpy expression
  as the eager forward, packaged as ``kernel(out, *arrays)`` — so that
  :mod:`repro.autograd.trace` can capture one eager run into a
  graph-free :class:`~repro.autograd.plan.Plan`.  Kernels mirror the
  eager computation exactly; a float64 plan replay is bit-identical to
  the eager pass by construction.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dtype import get_default_dtype

Number = Union[int, float]
ArrayLike = Union[Number, Sequence, np.ndarray, "Tensor"]


class _GradMode(threading.local):
    """Per-thread grad-mode flag.

    Grad mode must be thread-local: a ``Predictor`` may be called from
    many threads, each running ``no_grad`` inference, and a process-wide
    flag would let one thread's ``no_grad`` exit re-enable (or keep
    disabled) graph construction underneath another thread mid-forward.
    Each thread starts with gradients enabled, like torch.
    """

    enabled = True


_grad_mode = _GradMode()


class _TraceState(threading.local):
    """Per-thread active trace recorder (``None`` outside ``trace()``).

    Lives here rather than in ``trace.py`` so that :meth:`Tensor._make`
    — the single funnel every op passes through — can consult it
    without a circular import.  Thread-local for the same reason grad
    mode is: one serving thread tracing a plan must not capture ops
    from its neighbours.
    """

    tracer = None


_trace_state = _TraceState()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Used by evaluation loops so that forward passes do not retain
    references to intermediate arrays.  The switch is per-thread.
    """
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether new ops will be recorded on the autograd graph
    (in the calling thread)."""
    return _grad_mode.enabled


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that its shape matches ``shape``.

    numpy broadcasting may have expanded an operand along new leading
    axes or along size-1 axes; the adjoint of broadcasting is summation
    over exactly those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype if dtype is not None else get_default_dtype())


def _ufunc_kernel(fn) -> Callable:
    """Replay kernel for a numpy ufunc-style call.

    Writes into the step's reused buffer when numpy accepts it (same
    shape/dtype after the first run); falls back to a fresh allocation
    otherwise.  Results are identical either way — ``out=`` only
    changes where the bytes land.
    """

    def kernel(out, *args):
        if out is not None:
            try:
                return fn(*args, out=out)
            except (TypeError, ValueError):
                pass
        return fn(*args)

    return kernel


_K_ADD = _ufunc_kernel(np.add)
_K_SUB = _ufunc_kernel(np.subtract)
_K_MUL = _ufunc_kernel(np.multiply)
_K_DIV = _ufunc_kernel(np.true_divide)
_K_NEG = _ufunc_kernel(np.negative)
_K_MATMUL = _ufunc_kernel(np.matmul)
_K_EXP = _ufunc_kernel(np.exp)
_K_LOG = _ufunc_kernel(np.log)
_K_SQRT = _ufunc_kernel(np.sqrt)
_K_TANH = _ufunc_kernel(np.tanh)
_K_ABS = _ufunc_kernel(np.abs)
_K_SIN = _ufunc_kernel(np.sin)
_K_COS = _ufunc_kernel(np.cos)


def _k_sigmoid(out, a):
    return 1.0 / (1.0 + np.exp(-a))


def _k_relu(out, a):
    return a * (a > 0)


class Tensor:
    """A numpy array with reverse-mode gradient tracking.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts.  Floating point data keeps
        its dtype; everything else is converted to the engine default
        (:func:`repro.autograd.get_default_dtype`, ``float64`` unless
        reconfigured).
    requires_grad:
        Whether gradients should be accumulated into this tensor.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fns", "_op")
    __array_priority__ = 100  # make numpy defer to our reflected operators

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data)
        if array.dtype.kind != "f":
            array = array.astype(get_default_dtype())
        self.data: np.ndarray = array
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: Tuple[Tensor, ...] = ()
        self._grad_fns: Tuple[Optional[Callable[[np.ndarray], np.ndarray]], ...] = ()
        self._op = ""

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{flag})"

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a view of this tensor cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        grad_fns: Sequence[Optional[Callable[[np.ndarray], np.ndarray]]],
        op: str,
        kernel: Optional[Callable] = None,
        extra: Sequence = (),
    ) -> "Tensor":
        """Build an op-result tensor (and record it when tracing).

        ``kernel`` is the op's replay kernel (``kernel(out, *arrays)``,
        mirroring the eager forward exactly); ``extra`` lists
        array-valued non-differentiable arguments (masks, index arrays)
        the kernel needs beyond the parents' data.  Both are ignored in
        eager mode; a ``None`` kernel makes the op untraceable.
        """
        requires = _grad_mode.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._grad_fns = tuple(grad_fns)
            out._op = op
        tracer = _trace_state.tracer
        if tracer is not None:
            tracer.record(out, parents, op, kernel, extra)
        return out

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Accumulate gradients of ``self`` w.r.t. every graph leaf.

        ``grad`` defaults to ones (appropriate for scalar losses).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor without requires_grad")
        if grad is None:
            seed = np.ones_like(self.data)
        else:
            seed = _as_array(grad).astype(self.data.dtype, copy=False)
            if seed.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {seed.shape} does not match tensor shape {self.data.shape}"
                )

        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        grads = {id(self): seed}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if not node._parents:
                node.grad = node_grad if node.grad is None else node.grad + node_grad
                continue
            # Interior node: route gradient to parents, and also keep it
            # if the user asked for it explicitly (retain semantics for
            # leaves only would lose information in diagnostics).
            for parent, fn in zip(node._parents, node._grad_fns):
                if fn is None or not parent.requires_grad:
                    continue
                contribution = fn(node_grad)
                if contribution is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contribution
                else:
                    grads[key] = contribution

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data + other.data
        return Tensor._make(
            data,
            (self, other),
            (
                lambda g: unbroadcast(g, self.shape),
                lambda g: unbroadcast(g, other.shape),
            ),
            "add",
            kernel=_K_ADD,
        )

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data - other.data
        return Tensor._make(
            data,
            (self, other),
            (
                lambda g: unbroadcast(g, self.shape),
                lambda g: unbroadcast(-g, other.shape),
            ),
            "sub",
            kernel=_K_SUB,
        )

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data * other.data
        return Tensor._make(
            data,
            (self, other),
            (
                lambda g: unbroadcast(g * other.data, self.shape),
                lambda g: unbroadcast(g * self.data, other.shape),
            ),
            "mul",
            kernel=_K_MUL,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data / other.data
        return Tensor._make(
            data,
            (self, other),
            (
                lambda g: unbroadcast(g / other.data, self.shape),
                lambda g: unbroadcast(-g * self.data / (other.data ** 2), other.shape),
            ),
            "div",
            kernel=_K_DIV,
        )

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, (self,), (lambda g: -g,), "neg", kernel=_K_NEG)

    def __pow__(self, exponent: Number) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent
        base = self.data

        def grad_fn(g: np.ndarray) -> np.ndarray:
            return g * exponent * base ** (exponent - 1)

        return Tensor._make(
            data, (self,), (grad_fn,), "pow", kernel=lambda out, a: a ** exponent
        )

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data @ other.data
        a, b = self.data, other.data

        def grad_a(g: np.ndarray) -> np.ndarray:
            if b.ndim == 1:
                ga = np.outer(g, b) if g.ndim == 1 else np.expand_dims(g, -1) * b
            elif g.ndim == 1:  # a was 1-D: g (m,) @ b^T
                ga = g @ np.swapaxes(b, -1, -2)
            else:
                ga = g @ np.swapaxes(b, -1, -2)
            return unbroadcast(ga, a.shape)

        def grad_b(g: np.ndarray) -> np.ndarray:
            if a.ndim == 1:
                gb = np.outer(a, g) if g.ndim == 1 else np.expand_dims(a, -1) * g
            elif g.ndim == 1:  # b was 1-D
                gb = np.swapaxes(a, -1, -2) @ g
            else:
                gb = np.swapaxes(a, -1, -2) @ g
            return unbroadcast(gb, b.shape)

        return Tensor._make(
            data, (self, other), (grad_a, grad_b), "matmul", kernel=_K_MATMUL
        )

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__matmul__(self)

    # comparisons yield plain numpy bool arrays (no gradient flows).
    def __gt__(self, other: ArrayLike):
        return self.data > _as_array(other)

    def __ge__(self, other: ArrayLike):
        return self.data >= _as_array(other)

    def __lt__(self, other: ArrayLike):
        return self.data < _as_array(other)

    def __le__(self, other: ArrayLike):
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------
    # elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        return Tensor._make(data, (self,), (lambda g: g * data,), "exp", kernel=_K_EXP)

    def log(self) -> "Tensor":
        return Tensor._make(
            np.log(self.data), (self,), (lambda g: g / self.data,), "log", kernel=_K_LOG
        )

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)
        return Tensor._make(
            data, (self,), (lambda g: g / (2.0 * data),), "sqrt", kernel=_K_SQRT
        )

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        return Tensor._make(
            data, (self,), (lambda g: g * (1.0 - data ** 2),), "tanh", kernel=_K_TANH
        )

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor._make(
            data, (self,), (lambda g: g * data * (1.0 - data),), "sigmoid",
            kernel=_k_sigmoid,
        )

    def relu(self) -> "Tensor":
        mask = self.data > 0
        return Tensor._make(
            self.data * mask, (self,), (lambda g: g * mask,), "relu", kernel=_k_relu
        )

    def leaky_relu(self, slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        factor = np.where(mask, 1.0, slope)
        return Tensor._make(
            self.data * factor, (self,), (lambda g: g * factor,), "leaky_relu",
            kernel=lambda out, a: a * np.where(a > 0, 1.0, slope),
        )

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        return Tensor._make(
            np.abs(self.data), (self,), (lambda g: g * sign,), "abs", kernel=_K_ABS
        )

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        return Tensor._make(
            np.clip(self.data, low, high), (self,), (lambda g: g * mask,), "clip",
            kernel=lambda out, a: np.clip(a, low, high),
        )

    def sin(self) -> "Tensor":
        return Tensor._make(
            np.sin(self.data), (self,), (lambda g: g * np.cos(self.data),), "sin",
            kernel=_K_SIN,
        )

    def cos(self) -> "Tensor":
        return Tensor._make(
            np.cos(self.data), (self,), (lambda g: -g * np.sin(self.data),), "cos",
            kernel=_K_COS,
        )

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def grad_fn(g: np.ndarray) -> np.ndarray:
            if axis is None:
                return np.broadcast_to(g, shape).copy() if np.ndim(g) == 0 else np.full(shape, g)
            g_exp = g
            if not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % len(shape) for a in axes):
                    g_exp = np.expand_dims(g_exp, ax)
            return np.broadcast_to(g_exp, shape).copy()

        def kernel(out, a):
            if a.dtype == np.float32 and axis in (-1, a.ndim - 1):
                # float32 plans are tolerance-verified, not bit-exact:
                # a matmul row-sum sidesteps numpy's per-row reduce
                # overhead on short last axes
                s = a @ np.ones(a.shape[-1], dtype=a.dtype)
                return s[..., None] if keepdims else s
            return a.sum(axis=axis, keepdims=keepdims)

        return Tensor._make(data, (self,), (grad_fn,), "sum", kernel=kernel)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        shape = self.shape

        def grad_fn(g: np.ndarray) -> np.ndarray:
            if axis is None:
                mask = (self.data == data).astype(self.data.dtype)
                mask /= mask.sum()
                return mask * g
            g_exp, d_exp = g, data
            if not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % len(shape) for a in axes):
                    g_exp = np.expand_dims(g_exp, ax)
                    d_exp = np.expand_dims(d_exp, ax)
            mask = (self.data == d_exp).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            return mask * g_exp

        return Tensor._make(
            data, (self,), (grad_fn,), "max",
            kernel=lambda out, a: a.max(axis=axis, keepdims=keepdims),
        )

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        return Tensor._make(
            self.data.reshape(shape),
            (self,),
            (lambda g: g.reshape(original),),
            "reshape",
            kernel=lambda out, a: a.reshape(shape),
        )

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = tuple(np.argsort(axes))
        return Tensor._make(
            self.data.transpose(axes),
            (self,),
            (lambda g: g.transpose(inverse),),
            "transpose",
            kernel=lambda out, a: a.transpose(axes),
        )

    def swapaxes(self, a: int, b: int) -> "Tensor":
        return Tensor._make(
            np.swapaxes(self.data, a, b),
            (self,),
            (lambda g: np.swapaxes(g, a, b),),
            "swapaxes",
            kernel=lambda out, arr: np.swapaxes(arr, a, b),
        )

    def expand_dims(self, axis: int) -> "Tensor":
        return Tensor._make(
            np.expand_dims(self.data, axis),
            (self,),
            (lambda g: np.squeeze(g, axis=axis),),
            "expand_dims",
            kernel=lambda out, a: np.expand_dims(a, axis),
        )

    def squeeze(self, axis: int) -> "Tensor":
        return Tensor._make(
            np.squeeze(self.data, axis=axis),
            (self,),
            (lambda g: np.expand_dims(g, axis),),
            "squeeze",
            kernel=lambda out, a: np.squeeze(a, axis=axis),
        )

    def __getitem__(self, index) -> "Tensor":
        if isinstance(index, Tensor):
            index = index.data.astype(np.int64)
        data = self.data[index]
        shape = self.shape

        def grad_fn(g: np.ndarray) -> np.ndarray:
            out = np.zeros(shape, dtype=g.dtype)
            np.add.at(out, index, g)
            return out

        if isinstance(index, np.ndarray) and index.dtype != np.bool_:
            # Integer-array gathers take the index as a traced extra so
            # a replayed plan re-gathers with each batch's indices.
            return Tensor._make(
                data, (self,), (grad_fn,), "getitem",
                kernel=lambda out, a, idx: a[idx], extra=(index,),
            )
        return Tensor._make(
            data, (self,), (grad_fn,), "getitem",
            kernel=lambda out, a: a[index],
        )


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (adjoint: split)."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def make_grad_fn(start: int, stop: int):
        def grad_fn(g: np.ndarray) -> np.ndarray:
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(start, stop)
            return g[tuple(slicer)]

        return grad_fn

    grad_fns = [make_grad_fn(offsets[i], offsets[i + 1]) for i in range(len(tensors))]
    return Tensor._make(
        data, tensors, grad_fns, "concat",
        kernel=lambda out, *arrs: np.concatenate(arrs, axis=axis),
    )


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def make_grad_fn(i: int):
        def grad_fn(g: np.ndarray) -> np.ndarray:
            return np.take(g, i, axis=axis)

        return grad_fn

    grad_fns = [make_grad_fn(i) for i in range(len(tensors))]
    return Tensor._make(
        data, tensors, grad_fns, "stack",
        kernel=lambda out, *arrs: np.stack(arrs, axis=axis),
    )


def where(condition: ArrayLike, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise select; gradients flow to both branches through masks."""
    if isinstance(condition, Tensor):
        condition = condition.data
    # asarray (not astype) keeps an already-bool array's identity so a
    # traced plan can link it back to its feed.
    cond = np.asarray(condition, dtype=bool)
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    data = np.where(cond, a.data, b.data)
    return Tensor._make(
        data,
        (a, b),
        (
            lambda g: unbroadcast(g * cond, a.shape),
            lambda g: unbroadcast(g * (~cond), b.shape),
        ),
        "where",
        kernel=lambda out, x, y, c: np.where(c, x, y),
        extra=(cond,),
    )


def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise maximum with subgradient split on ties."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    take_a = a.data >= b.data
    # the eager value and the replay kernel are the same ufunc, so the
    # two paths agree bit-for-bit even on NaN inputs (np.maximum
    # propagates NaN; a hand-rolled ``where(x >= y, x, y)`` would not)
    data = np.maximum(a.data, b.data)
    return Tensor._make(
        data,
        (a, b),
        (
            lambda g: unbroadcast(g * take_a, a.shape),
            lambda g: unbroadcast(g * (~take_a), b.shape),
        ),
        "maximum",
        kernel=_ufunc_kernel(np.maximum),
    )


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=get_default_dtype()), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=get_default_dtype()), requires_grad=requires_grad)


def arange(*args, requires_grad: bool = False) -> Tensor:
    return Tensor(np.arange(*args, dtype=get_default_dtype()), requires_grad=requires_grad)
