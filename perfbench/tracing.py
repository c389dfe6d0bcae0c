"""In-memory span tracer installed from outside the program.

`Tracer.install` replaces each traced qclattice name where it is looked up
(module globals and class attributes) with a wrapper that records a span:
name, start, end, parent span, frame id, the phase the benchmark was in,
and optional data taken from the call's arguments or return value.
`Tracer.uninstall` puts every original object back.  Spans stay in memory
until `write` saves them at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
from time import perf_counter

import numpy as np

# Per-bit and per-step helpers (ReseedingLfsr.next_bit, Lfsr.step) are left
# untraced: a span costs about as much as the work they do, so their time
# stays in the self time of the caller.
CLASS_METHODS = {
    ("keystream", "ReseedingLfsr"): ("__init__", "next_bits"),
    ("keystream", "PermutationStream"): ("__init__", "next_perm"),
    ("keystream", "BlockPermutation"): ("__init__", "apply", "apply_inverse"),
    ("nlf", "NlfContext"): ("__init__", "_entry", "apply_f", "invert_f"),
    ("lattice", "LatticeCtx"): (
        "from_code", "__init__", "shape", "mod_recover", "syndrome_ok", "encode",
    ),
    ("cipher", "CipherSession"): (
        "__init__", "encrypt_joint", "decrypt_joint", "advance_to",
        "_frame_material", "check_constellation",
    ),
    ("formats", "FrameReader"): ("__init__", "__next__"),
    ("formats", "FrameWriter"): ("__init__", "write_frame"),
}

# (module looked up in, attribute, span name): the span name carries the
# layer that implements the function, not the module that imports it.
FUNCTIONS = (
    ("cli", "load_key", "cipher.load_key"),
    ("cipher", "load_key", "cipher.load_key"),
    ("cli", "unpack_bits", "cipher.unpack_bits"),
    ("cipher", "decode", "decoder.decode"),
    ("channel", "decode", "decoder.decode"),
    ("channel", "add_awgn", "channel.add_awgn"),
    ("decoder", "spa_core", "decoder.spa_core"),
    ("decoder", "channel_llr", "decoder.channel_llr"),
    ("nlf", "power_poly_matrix", "bitmat.power_poly_matrix"),
    ("gf2poly", "mulmod", "gf2poly.mulmod"),
    ("lattice", "systematic_generator", "rdfcode.systematic_generator"),
)


def _sigma_info(args, kwargs):
    return float(args[3] if len(args) > 3 else kwargs["sigma"])


def _spa_info(args, kwargs, result):
    _, ok, iters = result
    return int(iters), bool(ok)


def _entry_info(args, kwargs, result):
    ctx, h = args[0], args[1]
    return id(ctx), np.asarray(h, dtype=np.uint8).tobytes()


def _returned(args, kwargs, result):
    return True


# span data taken from the arguments, before the call (it may raise)
ARG_INFO = {"decoder.decode": _sigma_info}

# span data taken from the return value
INFO = {
    "decoder.spa_core": _spa_info,
    "nlf.NlfContext._entry": _entry_info,
    "formats.FrameReader.__next__": _returned,
}


def _counter_frame(args, kwargs):
    return int(args[0].counter)


def _target_frame(args, kwargs):
    return int(args[1] if len(args) > 1 else kwargs["frame"])


FRAME_OF = {
    "cipher.CipherSession.encrypt_joint": _counter_frame,
    "cipher.CipherSession.decrypt_joint": _counter_frame,
    "cipher.CipherSession._frame_material": _counter_frame,
    "cipher.CipherSession.advance_to": _target_frame,
}


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self, modules):
        self.modules = modules  # short module name -> module object
        self.names = []
        self.phases = []
        self.parents = []
        self.frames = []
        self.starts = []
        self.ends = []
        self.infos = []
        self.phase = "setup"
        self._stack = []
        self._frame = [-1]
        self._sweep_frames = 0
        self._patches = []

    # --- recording -----------------------------------------------------------

    def call(self, name, fn, args=(), kwargs=None, info_of=None, frame_of=None,
             arg_info=None):
        """Run fn(*args, **kwargs) inside a span and return its result."""
        kwargs = kwargs or {}
        i = len(self.names)
        self.names.append(name)
        self.phases.append(self.phase)
        self.parents.append(self._stack[-1] if self._stack else -1)
        frame = frame_of(args, kwargs) if frame_of else self._frame[-1]
        self.frames.append(frame)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.infos.append(arg_info(args, kwargs) if arg_info else None)
        self._stack.append(i)
        self._frame.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self._frame.pop()
            self.starts[i] = start
            self.ends[i] = end
        if info_of is not None:
            self.infos[i] = info_of(args, kwargs, result)
        return result

    def _next_sweep_frame(self, args, kwargs):
        self._sweep_frames += 1
        return self._sweep_frames - 1

    def wrap(self, name, fn):
        info_of = INFO.get(name)
        arg_info = ARG_INFO.get(name)
        frame_of = FRAME_OF.get(name)
        if name == "lattice.LatticeCtx.encode":
            frame_of = self._next_sweep_frame

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info_of, frame_of, arg_info)

        return traced

    def wrap_generator(self, name, fn):
        """Each next() of the generator is one span; a yield marks info=True."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, next, (it,), info_of=_returned)
                except StopIteration:
                    return
                yield item

        return traced

    def wrap_cached(self, name, fn):
        """Span around an lru_cache function; info says whether it missed."""

        def probe(*args):
            before = fn.cache_info().misses
            out = fn(*args)
            return out, fn.cache_info().misses > before

        @functools.wraps(fn)
        def traced(*args):
            out, _ = self.call(name, probe, args, info_of=lambda a, k, r: r[1])
            return out

        traced.cache_clear = fn.cache_clear
        traced.cache_info = fn.cache_info
        return traced

    # --- installation --------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        m = self.modules
        for (mod, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(m[mod], cls_name)
            for meth in methods:
                name = f"{mod}.{cls_name}.{meth}"
                raw = vars(cls)[meth]
                if isinstance(raw, classmethod):
                    self._patch(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                else:
                    self._patch(cls, meth, self.wrap(name, raw))
        for mod, attr, name in FUNCTIONS:
            self._patch(m[mod], attr, self.wrap(name, vars(m[mod])[attr]))
        self._patch(m["cli"], "pack_bits",
                    self.wrap_generator("cipher.pack_bits", vars(m["cli"])["pack_bits"]))
        self._patch(m["decoder"], "tanner_arrays",
                    self.wrap_cached("decoder.tanner_arrays",
                                     vars(m["decoder"])["tanner_arrays"]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- analysis ------------------------------------------------------------

    def arrays(self):
        """Span table as arrays: name, phase, parent, duration, self time."""
        names = np.array(self.names, dtype=object)
        phases = np.array(self.phases, dtype=object)
        parents = np.array(self.parents, dtype=np.int64)
        dur = np.array(self.ends) - np.array(self.starts)
        covered = np.zeros(len(dur))
        child = parents >= 0
        np.add.at(covered, parents[child], dur[child])
        return names, phases, parents, dur, dur - covered

    def write(self, path):
        """Save every span as gzip-compressed tab-separated text."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tname\tphase\tparent\tframe\tstart_s\tend_s\tinfo\n")
            for i, name in enumerate(self.names):
                info = self.infos[i]
                if isinstance(info, tuple) and len(info) == 2 and isinstance(info[1], bytes):
                    info = info[1].hex()
                fh.write(
                    f"{i}\t{name}\t{self.phases[i]}\t{self.parents[i]}\t{self.frames[i]}\t"
                    f"{self.starts[i]!r}\t{self.ends[i]!r}\t{info}\n"
                )
