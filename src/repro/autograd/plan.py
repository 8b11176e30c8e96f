"""Graph-free replay plans: the executable half of compiled inference.

A :class:`Plan` is a straight-line numpy program captured by
:mod:`repro.autograd.trace`: an ordered list of kernel calls over a
small dense value table, plus baked constants for everything that does
not depend on a feed (parameter matrices, folded subexpressions such as
``W.T``, causal masks for the traced bucket shape).  Replaying a plan
builds no :class:`~repro.autograd.Tensor` objects and no graph nodes —
each step is one kernel call writing into a preallocated, reused
buffer.

Execution contract
------------------
* ``plan.run(feeds)`` maps feed name -> ndarray and returns the output
  arrays.  Feeds must match the traced shapes exactly (callers bucket
  and pad); floating feeds are cast to the plan dtype when they differ
  (cast-free when the caller already prepared them in plan dtype).
* Buffers are reused across runs, per thread: each thread lazily gets
  its own buffer context, so a plan shared by threads calling one
  ``Predictor`` is safe to run concurrently with zero locking on the
  hot path.  The returned
  arrays belong to the calling thread's buffers and are valid until
  that same thread runs the plan again — consume (slice/argsort/copy)
  before the next call.
* Kernels have signature ``kernel(out, *args) -> ndarray`` where
  ``out`` is the buffer this step produced on the previous run (or
  ``None`` on the first).  Elementwise kernels write into ``out`` when
  numpy allows it; view kernels (reshape/transpose) ignore it and
  return a fresh view.  Either way the *returned* array is the step's
  value.

Float32 plans
-------------
Tracing always executes in the engine's eager dtype; ``finalize`` then
casts every floating constant to the plan dtype, and feeds are cast on
the way in, so a ``float32`` plan runs float32 end-to-end without the
model itself ever leaving float64.  Float64 plans replay the exact
eager kernel expressions over the exact eager arrays and are therefore
bit-identical to the uncompiled path.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

Kernel = Callable[..., np.ndarray]
# A step argument is either an int (index into the run-time value
# table) or a baked constant ndarray.
StepArg = Union[int, np.ndarray]


class PlanError(RuntimeError):
    """A plan was fed arrays incompatible with its traced shapes."""


class _PlanContext:
    """Per-thread buffer set: the value table plus per-step out buffers.

    Run and buffer-byte counters live here too, so the hot path mutates
    only thread-private state — ``Plan.run`` never takes the plan lock.
    """

    __slots__ = ("values", "outs", "runs", "buffer_bytes")

    def __init__(self, num_values: int, num_steps: int):
        self.values: List = [None] * num_values
        self.outs: List = [None] * num_steps
        self.runs = 0
        self.buffer_bytes = 0


class Plan:
    """An executable straight-line numpy program (see module docstring)."""

    def __init__(
        self,
        *,
        dtype: np.dtype,
        inputs: Dict[str, Tuple[int, np.dtype, Tuple[int, ...]]],
        steps: Sequence[Tuple[Kernel, Tuple[StepArg, ...], int, str]],
        outputs: Sequence[StepArg],
        num_values: int,
        folded_steps: int,
        constant_bytes: int,
    ):
        self.dtype = np.dtype(dtype)
        self.inputs = dict(inputs)
        self.steps = list(steps)
        self.outputs = list(outputs)
        self.num_values = num_values
        self.folded_steps = folded_steps
        self.constant_bytes = constant_bytes
        self._local = threading.local()
        self._lock = threading.Lock()
        # every thread's context, appended under the lock on first use;
        # stats properties aggregate across it without touching run()
        self._all_contexts: List[_PlanContext] = []

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def contexts(self) -> int:
        return len(self._all_contexts)

    @property
    def runs(self) -> int:
        """Total run() invocations, summed over all thread contexts.

        Each context's counter is bumped lock-free by its owning thread;
        the sum is a consistent-enough snapshot for stats.
        """
        return sum(ctx.runs for ctx in tuple(self._all_contexts))

    @property
    def buffer_bytes(self) -> int:
        """Approximate live buffer bytes across all thread contexts.

        Views over other buffers are counted at full size, so this is an
        upper bound; it exists for the ``/stats`` plans section, not for
        accounting.
        """
        return sum(ctx.buffer_bytes for ctx in tuple(self._all_contexts))

    def describe(self) -> Dict:
        """Summary dict used by ``/stats`` and the example tour."""
        return {
            "dtype": str(self.dtype),
            "steps": self.num_steps,
            "folded_steps": self.folded_steps,
            "inputs": sorted(self.inputs),
            "constant_bytes": self.constant_bytes,
            "buffer_bytes": self.buffer_bytes,
            "contexts": self.contexts,
            "runs": self.runs,
        }

    def ops(self) -> List[str]:
        """The op names of the live (unfolded) steps, in execution order."""
        return [op for _, _, _, op in self.steps]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _context(self) -> _PlanContext:
        ctx = getattr(self._local, "ctx", None)
        if ctx is None:
            ctx = _PlanContext(self.num_values, len(self.steps))
            self._local.ctx = ctx
            with self._lock:
                self._all_contexts.append(ctx)
        return ctx

    def run(self, feeds: Dict[str, np.ndarray]) -> List[np.ndarray]:
        """Execute the plan; see the module docstring for the contract."""
        ctx = self._context()
        values = ctx.values
        dtype = self.dtype
        for name, (index, feed_dtype, feed_shape) in self.inputs.items():
            try:
                array = feeds[name]
            except KeyError:
                raise PlanError(f"missing feed {name!r}") from None
            array = np.asarray(array)
            if array.dtype != feed_dtype:
                if np.issubdtype(array.dtype, np.floating) and np.issubdtype(
                    feed_dtype, np.floating
                ):
                    array = array.astype(dtype, copy=False)
                else:
                    raise PlanError(
                        f"feed {name!r} has dtype {array.dtype}, traced {feed_dtype}"
                    )
            if array.shape != feed_shape:
                raise PlanError(
                    f"feed {name!r} has shape {array.shape}, traced {feed_shape}"
                )
            values[index] = array
        outs = ctx.outs
        for i, (kernel, args, out_index, _op) in enumerate(self.steps):
            resolved = [values[a] if type(a) is int else a for a in args]
            result = kernel(outs[i], *resolved)
            outs[i] = result
            values[out_index] = result
        ctx.runs += 1
        if ctx.buffer_bytes == 0 and outs:
            ctx.buffer_bytes = sum(
                o.nbytes for o in outs if isinstance(o, np.ndarray)
            )
        return [values[o] if type(o) is int else o for o in self.outputs]
