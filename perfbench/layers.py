"""Per-layer metrics derived from one traced pass.

A pass has three phases: "setup" (key text to a ready state), "gate" (the
fixed round trip every run checks) and "block" (one repetition of the
workload).  Each metric is taken from the block when the block calls the
layer, otherwise from the gate, otherwise from setup, so that a layer the
workload bypasses is still measured instead of reading as an empty zero.
Self times cover the whole pass: their sum plus the uncovered remainder is
the traced wall time.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

PHASES = ("block", "gate", "setup")
MODULES = (
    "cli", "cipher", "nlf", "gf2poly", "bitmat", "keystream",
    "lattice", "rdfcode", "decoder", "channel", "formats",
)
NLF_CACHE_ENTRIES = 64  # NlfContext's default LRU size

# (metric, span, scale, unit, calls metric): mean duration per call.
PER_CALL = (
    ("cipher.load_key_ms", "cipher.load_key", 1e3, "ms", "cipher.load_key.calls"),
    ("cipher.session_ms", "cipher.CipherSession.__init__", 1e3, "ms", "cipher.session.calls"),
    ("cipher.advance_to_ms", "cipher.CipherSession.advance_to", 1e3, "ms",
     "cipher.advance_to.calls"),
    ("cipher.unpack_bits_us", "cipher.unpack_bits", 1e6, "us", "cipher.unpack_bits.calls"),
    ("nlf.context_ms", "nlf.NlfContext.__init__", 1e3, "ms", "nlf.context.calls"),
    ("nlf.apply_f_ms", "nlf.NlfContext.apply_f", 1e3, "ms", "nlf.apply_f.calls"),
    ("nlf.invert_f_ms", "nlf.NlfContext.invert_f", 1e3, "ms", "nlf.invert_f.calls"),
    ("gf2poly.mulmod_us", "gf2poly.mulmod", 1e6, "us", "gf2poly.mulmod.calls"),
    ("bitmat.power_poly_matrix_us", "bitmat.power_poly_matrix", 1e6, "us",
     "bitmat.power_poly_matrix.calls"),
    ("lattice.ctx_ms", "lattice.LatticeCtx.from_code", 1e3, "ms", "lattice.ctx.calls"),
    ("rdfcode.systematic_generator_ms", "rdfcode.systematic_generator", 1e3, "ms",
     "rdfcode.systematic_generator.calls"),
    ("lattice.shape_us", "lattice.LatticeCtx.shape", 1e6, "us", "lattice.shape.calls"),
    ("lattice.mod_recover_us", "lattice.LatticeCtx.mod_recover", 1e6, "us",
     "lattice.mod_recover.calls"),
    ("lattice.syndrome_ok_us", "lattice.LatticeCtx.syndrome_ok", 1e6, "us",
     "lattice.syndrome_ok.calls"),
    ("lattice.encode_us", "lattice.LatticeCtx.encode", 1e6, "us", "lattice.encode.calls"),
    ("decoder.channel_llr_us", "decoder.channel_llr", 1e6, "us", "decoder.channel_llr.calls"),
    ("decoder.spa_ms", "decoder.spa_core", 1e3, "ms", "decoder.spa.calls"),
    ("channel.add_awgn_us", "channel.add_awgn", 1e6, "us", "channel.add_awgn.calls"),
    ("formats.write_frame_us", "formats.FrameWriter.write_frame", 1e6, "us",
     "formats.write_frame.calls"),
    ("formats.read_frame_us", "formats.FrameReader.__next__", 1e6, "us",
     "formats.read_frame.calls"),
)

# (metric, span, calls metric): mean self time per call in microseconds.
SELF_PER_CALL = (
    ("cipher.encrypt_joint_self_us", "cipher.CipherSession.encrypt_joint",
     "cipher.encrypt_joint.calls"),
    ("cipher.decrypt_joint_self_us", "cipher.CipherSession.decrypt_joint",
     "cipher.decrypt_joint.calls"),
)

# keystream time per frame of material: (metric, spans).
PER_MATERIAL_FRAME = (
    ("keystream.next_bits_us", ("keystream.ReseedingLfsr.next_bits",)),
    ("keystream.next_perm_us", ("keystream.PermutationStream.next_perm",)),
    ("keystream.block_perm_us", (
        "keystream.BlockPermutation.__init__",
        "keystream.BlockPermutation.apply",
        "keystream.BlockPermutation.apply_inverse",
    )),
)

CLI_SPANS = ("cli.encrypt", "cli.decrypt")
JOINT_SPANS = ("cipher.CipherSession.encrypt_joint", "cipher.CipherSession.decrypt_joint")


class SpanView:
    def __init__(self, tracer):
        self.names, self.phases, self.parents, self.dur, self.self_t = tracer.arrays()
        self.infos = tracer.infos

    def mask(self, names, phase=None):
        m = np.isin(self.names, list(names))
        if phase is not None:
            m &= self.phases == phase
        return m

    def phase_of(self, names, extra=None):
        """First phase in PHASES holding a span of these names."""
        for phase in PHASES:
            m = self.mask(names, phase)
            if extra is not None:
                m &= extra
            if m.any():
                return phase
        raise LookupError(f"no span named {names} in any phase")

    def idx(self, names, phase, extra=None):
        m = self.mask(names, phase)
        if extra is not None:
            m &= extra
        return np.nonzero(m)[0]

    def count(self, names, phase):
        return int(self.mask(names, phase).sum())


def _lru_repeat_ratio(keys):
    """Hit share of an LRU of NLF_CACHE_ENTRIES per context over (ctx, h) keys."""
    caches = {}
    hits = 0
    for ctx, h in keys:
        cache = caches.setdefault(ctx, OrderedDict())
        if h in cache:
            hits += 1
            cache.move_to_end(h)
        else:
            cache[h] = None
            if len(cache) > NLF_CACHE_ENTRIES:
                cache.popitem(last=False)
    return hits / len(keys)


def _decoder_metrics(put, s, spa_mask, llr_mask, suffix=""):
    ph = s.phase_of(["decoder.spa_core"], spa_mask)
    spa = s.idx(["decoder.spa_core"], ph, spa_mask)
    llr = s.idx(["decoder.channel_llr"], ph, llr_mask)
    iters = np.array([s.infos[i][0] for i in spa], dtype=np.int64)
    conv = np.array([s.infos[i][1] for i in spa], dtype=bool)
    put("decoder.spa_ms" + suffix, s.dur[spa].mean() * 1e3, "ms")
    put("decoder.spa.calls" + suffix, len(spa), "count")
    put("decoder.channel_llr_us" + suffix, s.dur[llr].mean() * 1e6, "us")
    # one pass per flooding iteration plus the final syndrome check
    put("decoder.us_per_pass" + suffix, s.dur[spa].sum() / (iters + 1).sum() * 1e6, "us")
    put("decoder.iterations_mean" + suffix, iters.mean(), "count")
    put("decoder.iterations_p99" + suffix,
        np.percentile(iters, 99, method="higher"), "count")
    put("decoder.converged_ratio" + suffix, conv.mean(), "ratio")


def layer_metrics(tracer, v, point_sigmas, wall_s, untraced_wall_s):
    """Per-layer metrics of a traced pass, and whether self times add up.

    v: permutation blocks drawn per frame of material.
    point_sigmas: {label: sigma} for the per-point decoder metrics.
    """
    s = SpanView(tracer)
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    for metric, span, scale, unit, calls in PER_CALL:
        i = s.idx([span], s.phase_of([span]))
        put(metric, s.dur[i].mean() * scale, unit)
        put(calls, len(i), "count")
    for metric, span, calls in SELF_PER_CALL:
        i = s.idx([span], s.phase_of([span]))
        put(metric, s.self_t[i].mean() * 1e6, "us")
        put(calls, len(i), "count")

    ph = s.phase_of(CLI_SPANS)
    cli = s.idx(CLI_SPANS, ph)
    reads = [i for i in s.idx(["formats.FrameReader.__next__"], ph) if s.infos[i]]
    cli_frames = s.count(["formats.FrameWriter.write_frame"], ph) + len(reads)
    put("cli.self_ms_per_frame", s.self_t[cli].sum() / cli_frames * 1e3, "ms")

    ph = s.phase_of(["cipher.pack_bits"])
    pack = s.idx(["cipher.pack_bits"], ph)
    yielded = sum(1 for i in pack if s.infos[i])
    put("cipher.pack_bits_us", s.dur[pack].sum() / yielded * 1e6, "us")
    put("cipher.pack_bits.calls", yielded, "count")

    ph = s.phase_of(["cipher.CipherSession._frame_material"])
    material = s.count(["cipher.CipherSession._frame_material"], ph)
    for metric, spans in PER_MATERIAL_FRAME:
        put(metric, s.dur[s.idx(spans, ph)].sum() / material * 1e6, "us")
    put("keystream.material_frames", material, "count")
    perms = s.count(["keystream.PermutationStream.next_perm"], ph)
    put("keystream.useful_ratio", s.count(JOINT_SPANS, ph) / (perms / v), "ratio")

    ph = s.phase_of(["gf2poly.mulmod"])
    put("gf2poly.mulmod_calls_per_frame",
        s.count(["gf2poly.mulmod"], ph) / s.count(JOINT_SPANS, ph), "count")

    ph = s.phase_of(["nlf.NlfContext._entry"])
    keys = [s.infos[i] for i in s.idx(["nlf.NlfContext._entry"], ph)]
    put("nlf.control_repeat_ratio", _lru_repeat_ratio(keys), "ratio")

    cold = np.array([info is True for info in s.infos], dtype=bool)
    tanner = s.idx(["decoder.tanner_arrays"], s.phase_of(["decoder.tanner_arrays"], cold), cold)
    put("decoder.tanner_ms", s.dur[tanner].mean() * 1e3, "ms")

    # decoder spans are children of a decode span whose info is its sigma
    parent_sigma = np.full(len(s.names), np.nan)
    has_parent = s.parents >= 0
    decode_parent = np.zeros(len(s.names), dtype=bool)
    decode_parent[has_parent] = s.names[s.parents[has_parent]] == "decoder.decode"
    for i in np.nonzero(decode_parent)[0]:
        parent_sigma[i] = s.infos[s.parents[i]]
    spa_mask = s.mask(["decoder.spa_core"])
    llr_mask = s.mask(["decoder.channel_llr"])
    _decoder_metrics(put, s, spa_mask, llr_mask)
    for label, sigma in point_sigmas.items():
        at = np.isclose(parent_sigma, sigma, rtol=1e-9, atol=0.0)
        _decoder_metrics(put, s, spa_mask & at, llr_mask & at, f".{label}")

    module = np.array([n.split(".", 1)[0] for n in s.names], dtype=object)
    self_total = 0.0
    for mod in MODULES:
        t = s.self_t[module == mod].sum()
        self_total += t
        put(f"{mod}.self_s", t, "s")
    top = s.dur[s.parents < 0].sum()
    remainder = wall_s - top
    put("trace.remainder_s", remainder, "s")
    put("trace.wall_s", wall_s, "s")
    put("trace.untraced_wall_s", untraced_wall_s, "s")
    put("trace.overhead_s", wall_s - untraced_wall_s, "s")
    put("trace.spans", len(s.names), "count")
    unknown = set(module) - set(MODULES)
    adds_up = not unknown and abs(self_total + remainder - wall_s) <= 1e-6 * wall_s
    return out, adds_up
