"""Command-line surface: keygen, encrypt, decrypt, simulate, analyze.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  encrypt and
decrypt stream blocks of up to BLOCK_FRAMES frames in bounded memory: each
block is packed or unpacked at once and runs through the cipher as (B, n)
arrays, decrypt splitting it into runs of consecutive counters; a frame
that decrypts off the constellation fails there (NotInLattice), so the
unpack cannot.  Output, messages and exit codes are those of one frame at
a time: a frame that fails costs only itself under --on-fail skip, and the
frames before a failure or a truncated frame are written.  simulate writes
CSV and reports progress on standard error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from contextlib import nullcontext

import numpy as np

from . import analysis, channel
from .cipher import (
    CipherParams,
    CipherSession,
    frame_capacity_bytes,
    keygen,
    load_key,
    pack_bits,
    save_key,
    unpack_bits,
)
from .errors import FormatError, InvalidParams, QclatticeError
from .formats import FrameReader, FrameWriter
from .lattice import noise_sigma


# Frames per cipher call.  The per-frame cost hardly falls past 32 (n = 258,
# 2-vCPU VM: encrypt 66 -> 62 us and noiseless decrypt 211 -> 202 us from 32
# to 64), and a (64, 1496) int64 array is 0.77 MB.
BLOCK_FRAMES = 64


class UsageError(Exception):
    """Usage error signalled from command bodies; maps to exit code 2."""


def _params_from_args(args) -> CipherParams:
    if args.b is None or args.n0 is None or args.dv is None or args.L is None:
        raise UsageError("--b, --n0, --dv and --L are required")
    d = args.d if args.d is not None else analysis.default_l2(args.b * args.n0)
    return CipherParams(b=args.b, n0=args.n0, dv=args.dv, q=args.b, L=args.L, d=d)


def cmd_keygen(args) -> int:
    params = _params_from_args(args)
    if not 0 <= args.seed < 1 << 64:
        raise UsageError(f"--seed {args.seed}: must be between 0 and 2^64 - 1")
    key = keygen(params, args.seed)
    text = save_key(key)
    with open(args.output, "w") as fh:
        fh.write(text)
    print(f"key size: {analysis.key_size_bits(params)} bits")
    return 0


def _load_key_file(path):
    with open(path) as fh:
        return load_key(fh.read())


def cmd_encrypt(args) -> int:
    key = _load_key_file(args.key)
    p = key.params
    cap = frame_capacity_bytes(p.n, p.L)
    first = args.first_counter
    frames = -(-os.path.getsize(args.input) // cap)
    if not 0 <= first < 1 << 64 or first + frames > 1 << 64:
        raise UsageError(f"--first-counter {first}: the {frames} frames need counters "
                         "in [0, 2^64)")
    session = CipherSession(key)
    session.advance_to(first)
    with open(args.input, "rb") as fin, open(args.output, "wb") as fout:
        writer = FrameWriter(fout, p.n, key.digest(), observations=False)
        while True:
            chunk = fin.read(cap * BLOCK_FRAMES)
            if not chunk:
                break
            frames = list(pack_bits(chunk, p.n, p.L))
            ct, errors = session.encrypt_joint(np.stack([m for m, _ in frames]))
            for i, ((_, payload), y, error) in enumerate(zip(frames, ct.y, errors)):
                if error is not None:
                    raise error
                writer.write_frame(ct.counter + i, payload, y)
    return 0


def _read_block(reader):
    """Up to BLOCK_FRAMES frames, and the error that ended the file early, or None."""
    frames = []
    try:
        for frame in itertools.islice(reader, BLOCK_FRAMES):
            frames.append(frame)
    except (QclatticeError, OSError) as e:  # raised once the frames before it are written
        return frames, e
    return frames, None


def _decrypt_block(session, frames, sigma: float, cap: int) -> list:
    """Each frame's plaintext, or the QclatticeError it fails with when decrypted alone."""
    p = session.params
    out = [FormatError(f"payload {payload} exceeds frame capacity {cap}") if payload > cap
           else None for _, payload, _ in frames]
    live = [i for i, o in enumerate(out) if o is None]
    # counter minus position is constant along a run of consecutive counters
    for _, run in itertools.groupby(enumerate(live), lambda t: frames[t[1]][0] - t[0]):
        run = [i for _, i in run]
        session.advance_to(frames[run[0]][0])
        m, errors = session.decrypt_joint(np.stack([frames[i][2] for i in run]), sigma)
        for i, row, error in zip(run, m, errors):
            out[i] = row if error is None else error
    done = [i for i in live if isinstance(out[i], np.ndarray)]  # each a constellation message
    plain, at = unpack_bits([(out[i], frames[i][1]) for i in done], p.n, p.L), 0
    for i in done:
        out[i], at = plain[at : at + frames[i][1]], at + frames[i][1]
    return out


def cmd_decrypt(args) -> int:
    try:
        sigma = noise_sigma(args.sigma or 0.0)
    except InvalidParams as e:
        raise UsageError(f"--sigma {args.sigma}: {e}")
    key = _load_key_file(args.key)
    session = CipherSession(key)
    p = key.params
    with open(args.input, "rb") as fin, open(args.output, "wb") as fout:
        reader = FrameReader(fin)
        if reader.digest != key.digest():
            print("warning: ciphertext digest does not match key params",
                  file=sys.stderr)
        if reader.n != p.n:
            print(f"error: frame length {reader.n} != n {p.n}", file=sys.stderr)
            return 1
        if reader.observations and sigma <= 0:
            print("error: observation file needs --sigma > 0", file=sys.stderr)
            return 1
        cap = frame_capacity_bytes(p.n, p.L)
        while True:
            frames, stop = _read_block(reader)
            for (counter, payload, _), plain in zip(frames, _decrypt_block(session, frames,
                                                                            sigma, cap)):
                if isinstance(plain, QclatticeError):
                    if args.on_fail == "abort":
                        print(f"error: frame {counter}: {plain}", file=sys.stderr)
                        return 1
                    print(f"warning: frame {counter}: {plain}; emitting zeros",
                          file=sys.stderr)
                    plain = b"\x00" * min(payload, cap)
                fout.write(plain)
            if stop is not None:
                raise stop
            if len(frames) < BLOCK_FRAMES:
                return 0


def cmd_simulate(args) -> int:
    key = _load_key_file(args.key)
    try:
        start, step, stop = (float(x) for x in args.vnr_db.split(":"))
    except ValueError:
        raise UsageError("--vnr-db must be start:step:stop")
    if not 1 <= args.trials <= channel.MAX_TRIALS:
        raise UsageError(f"--trials {args.trials}: must be between 1 and {channel.MAX_TRIALS}")
    try:
        spec = channel.SweepSpec(
            vnr_db_start=start, vnr_db_stop=stop, vnr_db_step=step,
            trials_per_point=args.trials, rng_seed=args.seed,
        )
        channel.point_sigmas(key, spec)
    except InvalidParams as e:
        raise UsageError(f"--vnr-db {args.vnr_db}: {e}")
    # a bad worker count fails before the output opens, and a bad path before the sweep runs
    workers = channel.sweep_workers(args.workers)
    with open(args.output, "w", newline="") if args.output else nullcontext(sys.stdout) as fh:
        rows = channel.run_sweep(
            key, spec, workers=workers,
            progress=lambda msg: print(msg, file=sys.stderr),
        )
        fh.write(channel.rows_to_csv(rows))
    return 0


def cmd_analyze(args) -> int:
    if args.key:
        params = _load_key_file(args.key).params
    else:
        params = _params_from_args(args)
    items, text = analysis.build_report(params)
    if args.json:
        print(json.dumps({k: f"{v}" for k, v in items}))
    else:
        print(*text, "", *(f"{k}={v}" for k, v in items), sep="\n")
    return 0


def _add_param_flags(sp):
    sp.add_argument("--b", type=int, help="circulant block size")
    sp.add_argument("--n0", type=int, help="number of circulant blocks")
    sp.add_argument("--dv", type=int, help="circulant column weight (odd)")
    sp.add_argument("--L", type=int, help="constellation limit, power of two")
    sp.add_argument("--d", type=int,
                    help="control-line width (default 7*ceil(log2 n))")


# built once per process: parse_args leaves the parser unchanged, and building
# it costs far more than parsing
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qclattice",
        description="QC-LDPC-lattice joint encryption, coding and modulation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a key file")
    _add_param_flags(kg)
    kg.add_argument("--seed", type=int, required=True, help="64-bit master seed")
    kg.add_argument("-o", "--output", required=True, help="key file path")
    kg.set_defaults(func=cmd_keygen)

    enc = sub.add_parser(
        "encrypt", help="encrypt a file (joint mode)",
        description="Encrypt a file (joint mode). Frame j of the output uses the "
                    "keystream material of counter first-counter + j. Use one counter "
                    "range per key, never reused: two files encrypted under one key "
                    "from the same counter share that material frame by frame. For a "
                    "regular input file, encrypt exits 2 before writing if the frames "
                    "would need a counter past 2^64; a pipe is stopped there with exit 1 "
                    "and a partial output.",
    )
    enc.add_argument("--key", required=True)
    enc.add_argument("-i", "--input", required=True)
    enc.add_argument("-o", "--output", required=True)
    enc.add_argument("--first-counter", type=int, default=0, metavar="J",
                     help="counter of the first frame (default 0); give each file "
                          "under one key a counter range no other file uses")
    enc.set_defaults(func=cmd_encrypt)

    dec = sub.add_parser("decrypt", help="decrypt a ciphertext or observation file")
    dec.add_argument("--key", required=True)
    dec.add_argument("-i", "--input", required=True)
    dec.add_argument("-o", "--output", required=True)
    dec.add_argument("--sigma", type=float, default=None,
                     help="noise std for observation files")
    dec.add_argument("--on-fail", choices=("abort", "skip"), default="abort")
    dec.set_defaults(func=cmd_decrypt)

    sim = sub.add_parser("simulate", help="Monte-Carlo SER/FER sweep to CSV")
    sim.add_argument("--key", required=True)
    sim.add_argument("--vnr-db", required=True, help="start:step:stop in dB")
    sim.add_argument("--trials", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--workers", type=int, default=None,
                     help=f"parallel workers (default ${channel.WORKERS_ENV} or 1)")
    sim.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")
    sim.set_defaults(func=cmd_simulate)

    an = sub.add_parser("analyze", help="closed-form scheme report")
    an.add_argument("--key", default=None, help="read params from a key file")
    _add_param_flags(an)
    an.add_argument("--json", action="store_true", help="machine-readable JSON")
    an.set_defaults(func=cmd_analyze)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (QclatticeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
