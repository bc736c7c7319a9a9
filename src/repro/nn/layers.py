"""Model components with slice-wise forward/backward execution.

Each component supports the exact execution protocol a slice-level
pipeline needs (Section 4.1):

* ``forward(mb, sl, x)`` — run one slice, caching what the backward
  needs; attention appends this slice's keys/values to a per-microbatch
  KV cache so later slices can attend to them (Figure 3).
* ``backward(mb, sl, dy)`` — activation gradients only.  Attention
  returns dK/dV blocks for *earlier* slices into pending buffers, and
  consumes the pending contributions that *later* slices (whose
  backward necessarily ran first) left for this slice.
* ``pop_wgrad_tasks(mb, sl)`` — the weight-gradient GEMMs produced by
  that backward, as independently executable closures (Section 5's
  fine-grained decomposition).

Calling the weight-gradient tasks immediately after ``backward``
reproduces a classic fused backward; deferring them reproduces
zero-bubble / MEPipe behaviour.  Gradients are identical either way.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn import functional as F

Array = np.ndarray
WgradTask = Callable[[], None]


def _ctx_nbytes(ctx: dict) -> int:
    """Bytes of the arrays one saved forward context holds."""
    return sum(v.nbytes for v in ctx.values() if isinstance(v, np.ndarray))


class Component:
    """Base class: parameters, gradients, and wgrad-task bookkeeping."""

    def __init__(self) -> None:
        self.params: dict[str, Array] = {}
        self.grads: dict[str, Array] = {}
        self._wgrad_tasks: dict[tuple[int, int], list[WgradTask]] = {}
        self.live_contexts = 0
        #: Running total of :meth:`live_bytes`, maintained where forward
        #: state is stored and released so a runtime can read it per op
        #: without walking every live context.
        self.live_nbytes = 0

    def live_bytes(self) -> int:
        """Bytes of stored forward state (activations, caches), re-summed
        from the state itself — the oracle ``live_nbytes`` is held to."""
        return 0

    def init_grads(self) -> None:
        """(Re)allocate zero gradients matching the parameters."""
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def _queue(self, mb: int, sl: int, task: WgradTask) -> None:
        self._wgrad_tasks.setdefault((mb, sl), []).append(task)

    def pop_wgrad_tasks(self, mb: int, sl: int) -> list[WgradTask]:
        """Take ownership of the pending weight-gradient GEMMs."""
        return self._wgrad_tasks.pop((mb, sl), [])

    def forward(self, mb: int, sl: int, x: Array) -> Array | float:
        raise NotImplementedError

    def backward(self, mb: int, sl: int, dy: Array | None) -> Array | None:
        """Activation gradients of one slice.

        The contract is uniform across components: ``dy`` is the
        upstream gradient (``None`` only for the pipeline's last
        component, whose forward produced the loss), and the return
        value is the input gradient (``None`` only for the pipeline's
        first component, whose input has no gradient).
        """
        raise NotImplementedError

    def add_grad(self, key: str, value: Array) -> None:
        self.grads[key] += value


class Embedding(Component):
    """Token embedding; the pipeline's first component.

    ``forward`` receives integer token ids ``(B, t)``; ``backward``
    scatter-adds into the table gradient and returns None (tokens have
    no gradient).
    """

    def __init__(self, vocab_size: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.params = {"table": rng.normal(0, 0.02, size=(vocab_size, hidden))}
        self._ctx: dict[tuple[int, int], Array] = {}

    def live_bytes(self) -> int:
        return sum(t.nbytes for t in self._ctx.values())

    def forward(self, mb: int, sl: int, x: Array) -> Array:
        tokens = np.asarray(x)
        self._ctx[(mb, sl)] = tokens
        self.live_contexts += 1
        self.live_nbytes += tokens.nbytes
        return self.params["table"][tokens]

    def backward(self, mb: int, sl: int, dy: Array | None) -> Array | None:
        tokens = self._ctx.pop((mb, sl))
        self.live_contexts -= 1
        self.live_nbytes -= tokens.nbytes
        assert dy is not None
        dy_arr = dy

        def wgrad() -> None:
            np.add.at(self.grads["table"], tokens.reshape(-1),
                      dy_arr.reshape(-1, dy_arr.shape[-1]))

        self._queue(mb, sl, wgrad)
        return None


class DecoderLayer(Component):
    """Pre-norm transformer decoder layer (RMSNorm, RoPE attention,
    SwiGLU), with optional grouped-query attention and full activation
    recomputation.

    With ``recompute=True`` only the layer *input* is kept after the
    forward pass (the ~90% activation cut of Section 7.3) and the
    forward math is replayed at backward time; this mode supports whole
    micro-batches only (``num_slices == 1``), matching the paper's
    constraint that recomputation and slice scheduling don't combine.
    """

    def __init__(
        self,
        hidden: int,
        num_heads: int,
        ffn_hidden: int,
        rng: np.random.Generator,
        num_kv_heads: int | None = None,
        recompute: bool = False,
    ):
        super().__init__()
        if hidden % num_heads != 0:
            raise ValueError("hidden must be divisible by num_heads")
        self.hidden = hidden
        self.num_heads = num_heads
        self.num_kv_heads = num_kv_heads or num_heads
        if num_heads % self.num_kv_heads != 0:
            raise ValueError("num_heads must be a multiple of num_kv_heads")
        self.head_dim = hidden // num_heads
        self.recompute = recompute
        kv_width = self.num_kv_heads * self.head_dim
        std = 0.02
        self.params = {
            "wq": rng.normal(0, std, size=(hidden, hidden)),
            "wk": rng.normal(0, std, size=(hidden, kv_width)),
            "wv": rng.normal(0, std, size=(hidden, kv_width)),
            "wo": rng.normal(0, std, size=(hidden, hidden)),
            "wg": rng.normal(0, std, size=(hidden, ffn_hidden)),
            "wu": rng.normal(0, std, size=(hidden, ffn_hidden)),
            "wd": rng.normal(0, std, size=(ffn_hidden, hidden)),
            "g1": np.ones(hidden),
            "g2": np.ones(hidden),
        }
        # Per-microbatch KV cache: rotated keys / values per slice
        # (kv-head layout).
        self._kv: dict[int, list[tuple[Array, Array]]] = {}
        # Pending dK (rotated) / dV contributions from later slices.
        self._pending: dict[tuple[int, int], tuple[Array, Array]] = {}
        self._ctx: dict[tuple[int, int], dict] = {}

    @property
    def _group(self) -> int:
        """Query heads per key/value head."""
        return self.num_heads // self.num_kv_heads

    def _heads(self, x: Array, heads: int) -> Array:
        b, t, _w = x.shape
        return x.reshape(b, t, heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge(self, x: Array) -> Array:
        b, h, t, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * d)

    def _expand_kv(self, x: Array) -> Array:
        """Repeat kv heads across their query group (GQA)."""
        if self._group == 1:
            return x
        return np.repeat(x, self._group, axis=1)

    def _collapse_kv(self, x: Array) -> Array:
        """Sum query-group gradients back onto the kv heads."""
        if self._group == 1:
            return x
        b, h, t, d = x.shape
        return x.reshape(b, self.num_kv_heads, self._group, t, d).sum(axis=2)

    def live_bytes(self) -> int:
        total = sum(_ctx_nbytes(ctx) for ctx in self._ctx.values())
        for entries in self._kv.values():
            total += sum(k.nbytes + v.nbytes for k, v in entries)
        for k, v in self._pending.values():
            total += k.nbytes + v.nbytes
        return total

    def _drop_kv(self, mb: int) -> None:
        """Release one micro-batch's KV cache entries."""
        for k, v in self._kv.pop(mb, ()):
            self.live_nbytes -= k.nbytes + v.nbytes

    def forward(self, mb: int, sl: int, x: Array) -> Array:
        if self.recompute and sl != 0:
            raise ValueError("recomputation supports whole micro-batches only")
        out, ctx = self._compute(mb, sl, x)
        if self.recompute:
            # Keep only the layer input; everything else is replayed.
            ctx = {"x": x}
            self._drop_kv(mb)
        self._ctx[(mb, sl)] = ctx
        self.live_contexts += 1
        self.live_nbytes += _ctx_nbytes(ctx)
        return out

    def _compute(self, mb: int, sl: int, x: Array) -> tuple[Array, dict]:
        """The forward math; appends this slice's KV to the cache."""
        p = self.params
        offset = sum(k.shape[2] for k, _v in self._kv.get(mb, []))
        t = x.shape[1]
        y1, inv1 = F.rmsnorm(x, p["g1"])
        q = self._heads(F.linear(y1, p["wq"]), self.num_heads)
        k = self._heads(F.linear(y1, p["wk"]), self.num_kv_heads)
        v = self._heads(F.linear(y1, p["wv"]), self.num_kv_heads)
        cos, sin = F.rope_angles(self.head_dim, np.arange(offset, offset + t))
        q_rot = F.rope_apply(q, cos, sin)
        k_rot = F.rope_apply(k, cos, sin)
        self._kv.setdefault(mb, []).append((k_rot, v))
        self.live_nbytes += k_rot.nbytes + v.nbytes
        k_full = np.concatenate([kk for kk, _vv in self._kv[mb]], axis=2)
        v_full = np.concatenate([vv for _kk, vv in self._kv[mb]], axis=2)
        attn, probs = F.attention_slice(
            q_rot, self._expand_kv(k_full), self._expand_kv(v_full), offset)
        merged = self._merge(attn)
        proj = F.linear(merged, p["wo"])
        mid = x + proj
        y2, inv2 = F.rmsnorm(mid, p["g2"])
        gate = F.linear(y2, p["wg"])
        up = F.linear(y2, p["wu"])
        act = F.silu(gate) * up
        out = mid + F.linear(act, p["wd"])
        ctx = {
            "x": x, "y1": y1, "inv1": inv1, "q_rot": q_rot, "probs": probs,
            "merged": merged, "mid": mid, "y2": y2, "inv2": inv2,
            "gate": gate, "up": up, "act": act, "cos": cos, "sin": sin,
            "offset": offset, "t": t,
        }
        return out, ctx

    def backward(self, mb: int, sl: int, dy: Array | None) -> Array:
        assert dy is not None
        ctx = self._ctx.pop((mb, sl))
        self.live_contexts -= 1
        self.live_nbytes -= _ctx_nbytes(ctx)
        if self.recompute:
            _out, ctx = self._compute(mb, sl, ctx["x"])
        p = self.params

        # --- MLP branch ---
        dact = F.linear_dgrad(dy, p["wd"])
        dgate = F.silu_dgrad(dact * ctx["up"], ctx["gate"])
        dup = dact * F.silu(ctx["gate"])
        dy2 = F.linear_dgrad(dgate, p["wg"]) + F.linear_dgrad(dup, p["wu"])
        dmid = dy + F.rmsnorm_dgrad(dy2, ctx["mid"], p["g2"], ctx["inv2"])

        # --- Attention branch ---
        dmerged = F.linear_dgrad(dmid, p["wo"])
        b, t = dmerged.shape[0], ctx["t"]
        dattn = dmerged.reshape(b, t, self.num_heads, self.head_dim)
        dattn = dattn.transpose(0, 2, 1, 3)
        k_full = np.concatenate([kk for kk, _vv in self._kv[mb]][: sl + 1], axis=2)
        v_full = np.concatenate([vv for _kk, vv in self._kv[mb]][: sl + 1], axis=2)
        dq_rot, dk_exp, dv_exp = F.attention_slice_dgrad(
            dattn, ctx["q_rot"], self._expand_kv(k_full),
            self._expand_kv(v_full), ctx["probs"])
        dk_full = self._collapse_kv(dk_exp)
        dv_full = self._collapse_kv(dv_exp)

        # Split prefix gradients: earlier slices' blocks go to pending
        # buffers; this slice's block combines with what later slices
        # already contributed.
        start = ctx["offset"]
        dk_own = dk_full[:, :, start : start + t]
        dv_own = dv_full[:, :, start : start + t]
        pend = self._pending.pop((mb, sl), None)
        if pend is not None:
            self.live_nbytes -= pend[0].nbytes + pend[1].nbytes
            dk_own = dk_own + pend[0]
            dv_own = dv_own + pend[1]
        pos = 0
        for j in range(sl):
            tj = self._kv[mb][j][0].shape[2]
            blk_k = dk_full[:, :, pos : pos + tj]
            blk_v = dv_full[:, :, pos : pos + tj]
            prev = self._pending.get((mb, j))
            if prev is None:
                # A later slice's block joins one of the same shape, so
                # only the first contribution changes the byte count.
                self._pending[(mb, j)] = (blk_k.copy(), blk_v.copy())
                self.live_nbytes += blk_k.nbytes + blk_v.nbytes
            else:
                self._pending[(mb, j)] = (prev[0] + blk_k, prev[1] + blk_v)
            pos += tj

        dq = F.rope_unapply(dq_rot, ctx["cos"], ctx["sin"])
        dk = F.rope_unapply(dk_own, ctx["cos"], ctx["sin"])
        dq_m, dk_m, dv_m = self._merge(dq), self._merge(dk), self._merge(dv_own)
        dy1 = (
            F.linear_dgrad(dq_m, p["wq"])
            + F.linear_dgrad(dk_m, p["wk"])
            + F.linear_dgrad(dv_m, p["wv"])
        )
        dx = dmid + F.rmsnorm_dgrad(dy1, ctx["x"], p["g1"], ctx["inv1"])

        # --- Weight-gradient GEMMs, one task per parameter ---
        y1, y2, merged, act = ctx["y1"], ctx["y2"], ctx["merged"], ctx["act"]
        x_in, mid, inv1, inv2 = ctx["x"], ctx["mid"], ctx["inv1"], ctx["inv2"]
        tasks: list[tuple[str, WgradTask]] = [
            ("wq", lambda: self.add_grad("wq", F.linear_wgrad(y1, dq_m))),
            ("wk", lambda: self.add_grad("wk", F.linear_wgrad(y1, dk_m))),
            ("wv", lambda: self.add_grad("wv", F.linear_wgrad(y1, dv_m))),
            ("wo", lambda: self.add_grad("wo", F.linear_wgrad(merged, dmid))),
            ("wg", lambda: self.add_grad("wg", F.linear_wgrad(y2, dgate))),
            ("wu", lambda: self.add_grad("wu", F.linear_wgrad(y2, dup))),
            ("wd", lambda: self.add_grad("wd", F.linear_wgrad(act, dy))),
            ("g1", lambda: self.add_grad("g1", F.rmsnorm_wgrad(dy1, x_in, inv1))),
            ("g2", lambda: self.add_grad("g2", F.rmsnorm_wgrad(dy2, mid, inv2))),
        ]
        for _name, task in tasks:
            self._queue(mb, sl, task)

        # The KV cache entries for this micro-batch can be dropped once
        # slice 0's backward has consumed them.
        if sl == 0:
            self._drop_kv(mb)
        return dx


class LossHead(Component):
    """Final RMSNorm + LM head + token-mean cross entropy.

    ``forward`` returns this slice's loss contribution as a float;
    ``backward`` takes ``dy=None`` and starts the gradient chain.
    """

    def __init__(self, hidden: int, vocab_size: int, rng: np.random.Generator):
        super().__init__()
        self.params = {
            "gf": np.ones(hidden),
            "wh": rng.normal(0, 0.02, size=(hidden, vocab_size)),
        }
        self._ctx: dict[tuple[int, int], dict] = {}
        self._targets: dict[tuple[int, int], Array] = {}
        self.loss_scale = 1.0

    def live_bytes(self) -> int:
        return sum(_ctx_nbytes(ctx) for ctx in self._ctx.values())

    def set_targets(self, mb: int, sl: int, targets: Array) -> None:
        """Provide the labels for one slice before its forward runs."""
        self._targets[(mb, sl)] = targets

    def forward(self, mb: int, sl: int, x: Array) -> float:
        targets = self._targets.pop((mb, sl))
        y, inv = F.rmsnorm(x, self.params["gf"])
        logits = F.linear(y, self.params["wh"])
        loss, dlogits = F.cross_entropy(logits, targets, self.loss_scale)
        ctx = {"x": x, "y": y, "inv": inv, "dlogits": dlogits}
        self._ctx[(mb, sl)] = ctx
        self.live_contexts += 1
        self.live_nbytes += _ctx_nbytes(ctx)
        return loss

    def backward(self, mb: int, sl: int, dy: Array | None = None) -> Array:
        ctx = self._ctx.pop((mb, sl))
        self.live_contexts -= 1
        self.live_nbytes -= _ctx_nbytes(ctx)
        dlogits = ctx["dlogits"]
        dy_norm = F.linear_dgrad(dlogits, self.params["wh"])
        dx = F.rmsnorm_dgrad(dy_norm, ctx["x"], self.params["gf"], ctx["inv"])
        y, x_in, inv = ctx["y"], ctx["x"], ctx["inv"]
        self._queue(mb, sl,
                    lambda: self.add_grad("wh", F.linear_wgrad(y, dlogits)))
        self._queue(mb, sl,
                    lambda: self.add_grad("gf", F.rmsnorm_wgrad(dy_norm, x_in, inv)))
        return dx
