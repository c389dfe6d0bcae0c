"""Command-line surface: keygen, encrypt, decrypt, simulate, analyze.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  Frame processing
streams with bounded memory; simulate writes CSV and reports progress on
standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import nullcontext

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
            chunk = fin.read(cap)
            if not chunk:
                break
            for m, payload in pack_bits(chunk, p.n, p.L):
                ct = session.encrypt_joint(m)
                writer.write_frame(ct.counter, payload, ct.y)
    return 0


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
        for counter, payload, coords in reader:
            try:
                if payload > cap:
                    raise FormatError(f"payload {payload} exceeds frame capacity {cap}")
                session.advance_to(counter)
                m = session.decrypt_joint(coords, sigma)
                plain = unpack_bits([(m, payload)], p.n, p.L)
            except QclatticeError as e:
                if args.on_fail == "abort":
                    print(f"error: frame {counter}: {e}", file=sys.stderr)
                    return 1
                print(f"warning: frame {counter}: {e}; emitting zeros",
                      file=sys.stderr)
                plain = b"\x00" * min(payload, cap)
            fout.write(plain)
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
    # opened before the first trial, so a bad path fails before the sweep runs
    with open(args.output, "w", newline="") if args.output else nullcontext(sys.stdout) as fh:
        rows = channel.run_sweep(
            key, spec, workers=args.workers,
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
