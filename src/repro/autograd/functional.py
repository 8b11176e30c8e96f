"""Fused differentiable functions built on :class:`~repro.autograd.Tensor`.

These are the numerically careful versions of operations that would be
unstable or slow if composed from primitive ops (softmax family, and the
segment softmax/sum pair that graph attention runs over edge lists), plus a
handful of conveniences (masked attention scores, L2 normalisation,
cosine similarity) used throughout the TSPN-RA model and baselines.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import ArrayLike, Tensor, unbroadcast


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax with a fused backward pass."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=axis, keepdims=True)

    def grad_fn(g: np.ndarray) -> np.ndarray:
        dot = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - dot)

    def kernel(buf, a):
        if buf is None or buf.shape != a.shape or buf.dtype != a.dtype:
            buf = np.empty_like(a)
        if a.dtype == np.float32 and axis in (-1, a.ndim - 1):
            # float32 plans are tolerance-verified, not bit-exact, so the
            # replay replaces the row-max shift (numpy's per-row reduce
            # dominates the whole step on short last axes) with a clip
            # to ±80: exp stays inside float32's normal range — no
            # overflow, no subnormals — and softmax is shift-invariant,
            # so results differ only at the 1e-7 level.  Fully-masked
            # rows (-1e9 everywhere) clip to a constant row and come
            # out uniform, exactly like the reference max-shift.
            # The row sum is a matmul for the same reduce-overhead
            # reason.
            np.clip(a, -80.0, 80.0, out=buf)
            np.exp(buf, out=buf)
            np.divide(
                buf, (buf @ np.ones(a.shape[-1], dtype=a.dtype))[..., None], out=buf
            )
            return buf
        # same max/sub/exp/div sequence as eager, but staged through the
        # plan's reused buffer: in-place placement changes where bytes
        # land, never their values, so float64 replay stays bit-identical
        np.subtract(a, a.max(axis=axis, keepdims=True), out=buf)
        np.exp(buf, out=buf)
        buf /= buf.sum(axis=axis, keepdims=True)
        return buf

    return Tensor._make(out, (x,), (grad_fn,), "softmax", kernel=kernel)


def _segment_runs(segments: np.ndarray) -> tuple:
    """``(starts, counts)`` of the runs of equal values in sorted ``segments``."""
    step = segments[1:] - segments[:-1]
    if (step < 0).any():
        raise ValueError("segment ids must be sorted")
    starts = np.concatenate(([0], np.flatnonzero(step) + 1))
    return starts, np.concatenate((starts[1:], [len(segments)])) - starts


def segment_softmax(x: Tensor, segments: ArrayLike) -> Tensor:
    """Softmax along axis 0 within each run of equal ``segments`` ids.

    ``segments`` is a sorted integer array with one id per row of ``x``
    (graph attention passes each edge's destination node): rows sharing
    an id are normalised together, so every destination's in-edges sum
    to one, without materialising a dense masked score matrix.  The
    fused backward is ``out * (g - segsum(g * out))``.
    """
    segments = np.asarray(segments, dtype=np.int64)
    if len(segments) != x.shape[0]:
        raise ValueError(f"{len(segments)} segment ids for {x.shape[0]} rows")
    if not len(segments):
        return Tensor._make(x.data.copy(), (x,), (np.zeros_like,), "segment_softmax")
    starts, counts = _segment_runs(segments)
    peak = np.repeat(np.maximum.reduceat(x.data, starts, axis=0), counts, axis=0)
    exp = np.exp(x.data - peak)
    out = exp / np.repeat(np.add.reduceat(exp, starts, axis=0), counts, axis=0)

    def grad_fn(g: np.ndarray) -> np.ndarray:
        dot = np.add.reduceat(g * out, starts, axis=0)
        return out * (g - np.repeat(dot, counts, axis=0))

    return Tensor._make(out, (x,), (grad_fn,), "segment_softmax")


def segment_sum(x: Tensor, segments: ArrayLike, num_segments: int) -> Tensor:
    """Sum the rows of ``x`` into ``num_segments`` rows by sorted ``segments``.

    Row ``i`` of the result adds up the rows of ``x`` whose segment id
    is ``i``; ids no row carries give zero rows.  This scatters graph
    attention's weighted messages onto their destination nodes.  The
    adjoint is the gather ``g[segments]``.
    """
    segments = np.asarray(segments, dtype=np.int64)
    if len(segments) != x.shape[0]:
        raise ValueError(f"{len(segments)} segment ids for {x.shape[0]} rows")
    out = np.zeros((num_segments,) + x.shape[1:], dtype=x.dtype)
    if len(segments):
        starts, _ = _segment_runs(segments)
        out[segments[starts]] = np.add.reduceat(x.data, starts, axis=0)

    def grad_fn(g: np.ndarray) -> np.ndarray:
        return g[segments]

    return Tensor._make(out, (x,), (grad_fn,), "segment_sum")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_sum
    soft = np.exp(out)

    def grad_fn(g: np.ndarray) -> np.ndarray:
        return g - soft * g.sum(axis=axis, keepdims=True)

    def kernel(buf, a):
        shifted = a - a.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        return shifted - log_sum

    return Tensor._make(out, (x,), (grad_fn,), "log_softmax", kernel=kernel)


def cross_entropy(
    logits: Tensor, targets: np.ndarray, reduction: str = "mean"
) -> Tensor:
    """Negative log-likelihood for integer class targets.

    ``logits`` has shape ``(batch, classes)``; ``targets`` is an integer
    array of shape ``(batch,)``.  ``reduction`` is ``"mean"`` (the
    historic default), ``"sum"`` (what a batched training loss needs so
    it matches the summed per-sample losses), or ``"none"`` (the
    per-sample ``(batch,)`` loss vector).
    """
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = log_softmax(logits, axis=-1)
    batch = logits.shape[0]
    picked = log_probs[np.arange(batch), targets]
    if reduction == "mean":
        return -(picked.mean())
    if reduction == "sum":
        return -(picked.sum())
    if reduction == "none":
        return -picked
    raise ValueError(f"unknown reduction {reduction!r}")


def dropout(
    x: Tensor,
    rate: float,
    rng: np.random.Generator,
    training: bool = True,
    rows: Optional[Tuple[Tuple[int, ...], Tuple]] = None,
) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0.

    ``rows=(shape, index)`` says that ``x`` holds some rows of a larger
    ``shape`` activation: the mask is drawn at ``shape`` and
    ``mask[index]`` (which must have ``x``'s shape) is applied, so the
    generator advances, and those rows are masked, exactly as for the
    whole activation.
    """
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    shape, index = rows if rows is not None else (x.shape, ...)
    mask = (rng.random(shape) < keep)[index].astype(x.dtype) / keep
    return x * Tensor(mask)


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Normalise vectors along ``axis`` to unit L2 norm."""
    norm = ((x * x).sum(axis=axis, keepdims=True) + eps).sqrt()
    return x / norm


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Cosine similarity along ``axis`` with broadcasting support."""
    return (l2_normalize(a, axis=axis, eps=eps) * l2_normalize(b, axis=axis, eps=eps)).sum(axis=axis)


def masked_fill(x: Tensor, mask: ArrayLike, value: float) -> Tensor:
    """Set entries of ``x`` where ``mask`` is true to ``value``.

    Gradients are blocked on the filled positions, which is exactly the
    behaviour required for additive attention masks.
    """
    mask = np.asarray(mask, dtype=bool)
    data = np.where(mask, value, x.data)

    def grad_fn(g: np.ndarray) -> np.ndarray:
        return unbroadcast(g * (~mask), x.shape)

    # Single-slot (source mask snapshot, its contiguous full-shape
    # broadcast) pair — the mask is a dynamic feed, so the broadcast can
    # only be reused when the incoming mask still *equals* the snapshot
    # (cheap: masks are small before broadcasting), never on shape
    # alone.  The pair lives in one slot so concurrent replay threads
    # read/write it atomically: a torn (snapshot from batch A, broadcast
    # from batch B) pairing can never be observed.
    mask_cache: list = [None]

    def kernel(out, a, m):
        # same selection as eager's np.where, staged through the reused
        # buffer when the mask broadcasts against a full-shaped input —
        # identical bytes, no per-step allocation.  copyto with a
        # contiguous full-shape mask beats np.where's fresh allocation
        # and strided broadcast walk.
        if m.shape != a.shape and np.broadcast_shapes(a.shape, m.shape) != a.shape:
            return np.where(m, value, a)
        if out is None or out.shape != a.shape or out.dtype != a.dtype:
            out = np.empty_like(a)
        if m.shape == a.shape:
            full = m
        else:
            cached = mask_cache[0]
            if (
                cached is not None
                and cached[1].shape == a.shape
                and cached[0].shape == m.shape
                and np.array_equal(cached[0], m)
            ):
                full = cached[1]
            else:
                full = np.ascontiguousarray(np.broadcast_to(m, a.shape))
                mask_cache[0] = (m.copy(), full)
        np.copyto(out, a)
        np.copyto(out, a.dtype.type(value), where=full)
        return out

    return Tensor._make(
        data, (x,), (grad_fn,), "masked_fill", kernel=kernel, extra=(mask,)
    )


def _conv_out(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> tuple:
    """Unfold a batch-innermost ``(C, H, W, N)`` stack into convolution columns.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(C*kernel*kernel, out_h*out_w*N)``: rows in the ``(c, ki, kj)``
    order of a flattened ``(O, C, K, K)`` weight, columns in
    ``(oh, ow, n)`` order.  With the batch innermost, each of the
    ``kernel*kernel`` taps is one strided copy whose contiguous runs
    are whole batches, and the convolution is one gemm for the batch.
    """
    c, h, w, n = x.shape
    out_h = _conv_out(h, kernel, stride, padding)
    out_w = _conv_out(w, kernel, stride, padding)
    if padding:
        padded = np.zeros((c, h + 2 * padding, w + 2 * padding, n), dtype=x.dtype)
        padded[:, padding:padding + h, padding:padding + w, :] = x
        x = padded
    cols = np.empty((c, kernel, kernel, out_h, out_w, n), dtype=x.dtype)
    for ki in range(kernel):
        i_max = ki + stride * out_h
        for kj in range(kernel):
            cols[:, ki, kj] = x[:, ki:i_max:stride, kj:kj + stride * out_w:stride, :]
    return cols.reshape(c * kernel * kernel, out_h * out_w * n), out_h, out_w


def col2im(
    cols: np.ndarray,
    x_shape: tuple,
    kernel: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: add columns back onto a ``(C, H, W, N)`` stack.

    Each tap is one strided add whose contiguous runs are whole batches.
    """
    c, h, w, n = x_shape
    padded = np.zeros((c, h + 2 * padding, w + 2 * padding, n), dtype=cols.dtype)
    cols = cols.reshape(c, kernel, kernel, out_h, out_w, n)
    for ki in range(kernel):
        i_max = ki + stride * out_h
        for kj in range(kernel):
            j_max = kj + stride * out_w
            padded[:, ki:i_max:stride, kj:j_max:stride, :] += cols[:, ki, kj]
    if padding:
        return padded[:, padding:-padding, padding:-padding, :]
    return padded


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    cols: Optional[np.ndarray] = None,
) -> Tensor:
    """2-D convolution of a batch-innermost stack via im2col.

    ``x``: ``(C, H, W, N)``; ``weight``: ``(O, C, K, K)``;
    ``bias``: ``(O,)`` or ``None``; the output is ``(O, out_h, out_w, N)``.
    The batch is the innermost axis so that the whole batch is one
    ``(O, C*K*K) @ (C*K*K, out_h*out_w*N)`` gemm (and each gradient one
    more), where an ``(N, C, H, W)`` layout needs a gemm per image and
    unfolds in runs of a few elements.  ``cols`` may carry a precomputed
    ``im2col(x.data, ...)`` result: the unfolding depends only on the
    input, so callers convolving a *static* input every step (the tile
    imagery encoder re-embeds the same tile set each training batch)
    can cache it and skip the unfold.
    """
    c, h, w, n = x.shape
    o, c_w, kh, kw = weight.shape
    if c != c_w or kh != kw:
        raise ValueError("weight shape incompatible with input")
    kernel = kh
    if cols is None:
        cols, out_h, out_w = im2col(x.data, kernel, stride, padding)
    else:
        out_h = _conv_out(h, kernel, stride, padding)
        out_w = _conv_out(w, kernel, stride, padding)
    w_mat = weight.data.reshape(o, -1)
    out = w_mat @ cols
    if bias is not None:
        out += bias.data[:, None]
    out = out.reshape(o, out_h, out_w, n)

    x_shape = x.shape

    def grad_x(g: np.ndarray) -> np.ndarray:
        dcols = w_mat.T @ g.reshape(o, -1)
        return col2im(dcols, x_shape, kernel, stride, padding, out_h, out_w)

    def grad_w(g: np.ndarray) -> np.ndarray:
        # (O, P*N) @ (P*N, C*K*K) on the transposed view of the saved
        # columns: BLAS reads the swapped strides natively, no copy
        return (g.reshape(o, -1) @ cols.T).reshape(weight.shape)

    parents = [x, weight]
    grad_fns = [grad_x, grad_w]
    if bias is not None:
        parents.append(bias)
        grad_fns.append(lambda g: g.sum(axis=(1, 2, 3)))
    return Tensor._make(out, parents, grad_fns, "conv2d")
