"""Seeded sampling of the matrix ensembles and spectral-edge statistics.

Every replicate draws from its own counter-based Philox stream keyed by
(seed, replicate index), so results are bit-reproducible no matter how
replicates are scheduled. Entries are drawn in a fixed order (upper triangle
row-major, then the dilution mask), which makes a dilute run at c = n
reproduce the corresponding Wigner run entry for entry.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .laws import GoeLaw
from .moments import MomentSpec


def fingerprint(payload: dict) -> str:
    """First 16 hex digits of the sha256 of the sorted-key JSON of payload."""
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class EnsembleConfig(MomentSpec):
    """An ensemble's `MomentSpec` fields plus the seed of its sampling streams."""

    seed: int = 20240229

    def __post_init__(self):
        super().__post_init__()  # checks n, the dilution and the truncation law
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2^64)")

    def descriptor(self) -> dict:
        """The exact-moment descriptor without its derived kind and cutoff, plus the seed."""
        out = super().descriptor()
        del out["kind"]
        if self.truncation is not None:
            del out["truncation"]["cutoff"]
        out["seed"] = self.seed
        return out

    def fingerprint(self) -> str:
        return fingerprint(self.descriptor())

    def moment_spec(self) -> MomentSpec:
        """The exact-moment counterpart of this sampling configuration."""
        return MomentSpec(self.n, self.law, self.truncation, self.dilution_c)


def _rng(
    config: EnsembleConfig, replicate: int, rng: np.random.Generator | None = None
) -> np.random.Generator:
    """The replicate's Philox stream, keyed by (seed, replicate).

    Without `rng` this is a new generator. With one, that generator is
    re-keyed in place to counter 0 with an empty buffer, which draws what a
    new generator would, bit for bit, at a fraction of its set-up cost.
    """
    if rng is None:
        key = np.array([config.seed, replicate], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))
    # the setter reads the words one at a time, from plain ints faster than from arrays
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (config.seed, replicate)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def sample_entries(
    config: EnsembleConfig, replicate: int, rng: np.random.Generator | None = None
) -> tuple[np.random.Generator, np.ndarray]:
    """The replicate's generator and its raw upper-triangle entries.

    Entries are row-major with the diagonal included, untruncated. The
    generator is returned so that a caller can keep drawing from the same
    stream, as `sample_matrix` does for the dilution mask. It is a new one
    unless `rng` is given: replicate loops pass one generator, which is
    re-keyed to each replicate's stream in turn.
    """
    n = config.n
    rng = _rng(config, replicate, rng)
    return rng, config.law.sample(rng, n * (n + 1) // 2)


@lru_cache(maxsize=None)
def _symmetric_gather(n: int) -> np.ndarray:
    """For each cell (i, j), the position of (min(i, j), max(i, j)) in the
    row-major upper triangle: read-only, built once per n.

    `vals[_symmetric_gather(n)]` assembles the symmetric matrix in one
    gather, with no zeroed buffer and no scatter per draw.
    """
    rows, cols = np.triu_indices(n)
    index = np.empty((n, n), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    index.flags.writeable = False
    return index


def sample_matrix(
    config: EnsembleConfig, replicate: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """One symmetric matrix draw, scaled by 1/sqrt(n) (or masked and 1/sqrt(c)).

    `rng`, when given, is re-keyed to the replicate's stream (`sample_entries`).
    """
    n = config.n
    rng, vals = sample_entries(config, replicate, rng)  # fresh, so scaled in place
    if isinstance(config.law, GoeLaw):
        # double the diagonal variance; the gather's diagonal holds its positions
        vals[_symmetric_gather(n).diagonal()] *= math.sqrt(2.0)
    if config.truncation is not None:
        cutoff = config.truncation.cutoff(n)
        # a NaN fails every comparison, so it is zeroed too
        vals[~(np.abs(vals) <= cutoff)] = 0.0
    if config.dilution_c is not None:
        c = config.dilution_c
        # the mask rng.random(k) < c / n from the same raw words: a uniform is
        # (word >> 11) * 2^-53, below c / n exactly when word >> 11 is below
        # ceil(c / n * 2^53), and the scaling by 2^53 is exact
        vals *= (rng.bit_generator.random_raw(vals.shape[0]) >> 11) < math.ceil(c / n * 2.0**53)
        vals /= math.sqrt(c)
    else:
        vals /= math.sqrt(n)
    return vals[_symmetric_gather(n)]


def spectral_stats(matrix: np.ndarray, s_list: tuple[int, ...]) -> dict:
    """The largest absolute eigenvalue and even trace powers from the eigenvalues.

    The spectrum comes from `_eigvalsh`, which equals `np.linalg.eigvalsh`
    bit for bit and, from n = 129 up, releases the GIL while it solves. A
    (k, n, n) stack gives arrays of k values, each equal bit for bit to what
    its matrix alone gives; a single matrix gives floats.
    """
    eigs = _eigvalsh(matrix)
    lam = np.maximum(np.abs(eigs[..., 0]), np.abs(eigs[..., -1]))
    traces = {s: np.sum(eigs ** (2 * s), axis=-1) for s in s_list}
    if matrix.ndim == 2:
        return {"lambda_max": float(lam), "traces": {s: float(t) for s, t in traces.items()}}
    return {"lambda_max": lam, "traces": traces}


def _matrix_power(matrix: np.ndarray, s: int) -> np.ndarray:
    """A^s for symmetric A by repeated squaring.

    Every power of A is symmetric, so A^(2h) is written x @ x.T with
    x = A^h, which numpy computes by syrk at about two-thirds the cost of a
    general product.
    """
    if s < 2:
        return matrix if s else np.eye(len(matrix))
    half = _matrix_power(matrix, s // 2)
    square = half @ half.T
    return square @ matrix if s % 2 else square


def trace_powers(matrix: np.ndarray, s_list: tuple[int, ...]) -> dict[int, float]:
    """Tr A^(2s) = ||A^s||_F^2 for symmetric A, without an eigen-solve.

    A^s comes from repeated squaring; s = 0 gives the dimension n. The
    values agree with the eigenvalue power sums of `spectral_stats` to
    rounding. A negative s is refused.
    """
    if any(s < 0 for s in s_list):
        raise ValueError("s must be >= 0")
    out = {}
    for s in s_list:
        power = _matrix_power(matrix, s)
        out[s] = float(np.vdot(power, power))
    return out


#: (getter, setter) symbol pairs of the OpenBLAS builds numpy links.
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

#: (argtypes, restype) of every routine taken from numpy's linalg extension.
#: The LAPACK routines take 64-bit integers, every argument by pointer, and
#: then gfortran's hidden lengths of their string arguments.
_SIGNATURES = {
    "scipy_openblas_get_num_threads64_": ([], ctypes.c_int),
    "scipy_openblas_set_num_threads64_": ([ctypes.c_int], None),
    "openblas_get_num_threads": ([], ctypes.c_int),
    "openblas_set_num_threads": ([ctypes.c_int], None),
    # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, two lengths
    "scipy_dsyevd_64_": ([ctypes.c_char_p] * 2 + [ctypes.c_void_p] * 9 + [ctypes.c_size_t] * 2, None),
    # uplo, n, a, lda, d, e, tau, work, lwork, info, uplo's length
    "scipy_dsytrd_64_": ([ctypes.c_char_p] + [ctypes.c_void_p] * 9 + [ctypes.c_size_t], None),
}


@lru_cache(maxsize=None)
def _linalg_symbol(name: str):
    """The routine `name` of numpy's linalg extension, bound to its
    _SIGNATURES entry, or None where the library or the symbol is missing."""
    try:
        fn = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), name)
    except (AttributeError, OSError):
        return None
    fn.argtypes, fn.restype = _SIGNATURES[name]
    return fn


@lru_cache(maxsize=None)
def _openblas_threads():
    """OpenBLAS's thread-count (getter, setter), or None when numpy's
    linalg extension exports neither pair."""
    for get_name, set_name in _OPENBLAS_THREAD_CALLS:
        get, set_ = _linalg_symbol(get_name), _linalg_symbol(set_name)
        if get is not None and set_ is not None:
            return get, set_
    return None


# One pin for the whole process: the first holder to enter saves the thread
# count and the last to leave restores it, so nested or concurrent holders
# cannot restore out of order.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_restore = 1


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, restoring the count after.

    The count is process-wide: while any caller holds the pin, BLAS work on
    every thread runs on one thread. A no-op when no thread setter is found.
    """
    global _pin_depth, _pin_restore
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _pin_lock:
        if _pin_depth == 0:
            _pin_restore = get()
            set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_restore)


@lru_cache(maxsize=None)
def _dsyevd_workspace(n: int) -> tuple[int, int]:
    """(lwork, liwork) that LAPACK's own query (lwork = -1) asks for at n.

    numpy's eigvalsh sizes its workspace the same way; the minimal
    workspace blocks the tridiagonal reduction differently and changes the
    last bits.
    """
    ints = np.array([n, -1, -1, 0, 0], dtype=np.int64)  # n, lwork, liwork, info, iwork
    work, unused = np.zeros(1), np.zeros(1)  # a and w are not read by a query
    at = ints.ctypes.data
    _linalg_symbol("scipy_dsyevd_64_")(b"N", b"L", at, unused.ctypes.data, at, unused.ctypes.data,
                                       work.ctypes.data, at + 8, at + 32, at + 16, at + 24, 1, 1)
    return int(work[0]), int(ints[4])


def _eigvalsh(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of each symmetric matrix of an (..., n, n)
    stack from its lower triangle: `np.linalg.eigvalsh`, bit for bit.

    numpy 2.4.6's eigvalsh, on one BLAS thread, held the GIL for calls on
    one or two matrices: two threads each solving one n = 200 matrix 60
    times took 0.265 s wall against 0.126 s for one thread alone. Larger
    stacks did overlap: 100 solves of a 36-draw n = 30 stack took 0.187 s
    on one thread and 0.215 s on each of two at once, and 20 solves of a
    4-draw n = 200 stack 0.192 s and 0.198 s (best of three, 2-vCPU Xeon).
    A lone draw is such a one-matrix call, so a float64 stack of n x n
    matrices with n >= 129 (one draw to a stack, `_stack_size`) goes
    instead to LAPACK's dsyevd (jobz N,
    uplo L, the queried workspace: numpy's own call) through ctypes, one
    call per matrix, and ctypes releases the GIL during the call. Below n = 129 the
    per-call set-up made a 36-draw n = 30 stack about 10% slower, so
    smaller matrices, other inputs and every input of a build without the
    symbol take `np.linalg.eigvalsh`, looked up at call time. A solve that
    does not converge raises LinAlgError, as numpy's does.
    """
    n = stack.shape[-1]
    fits = _stack_size(n) == 1 and stack.shape[-2:] == (n, n) and stack.dtype == np.float64
    dsyevd = _linalg_symbol("scipy_dsyevd_64_") if fits else None
    if dsyevd is None:
        return np.linalg.eigvalsh(stack)
    # LAPACK reads columns: the transposed copy puts each lower triangle
    # where uplo L looks for it, as numpy's column-major copy does
    mats = np.array(np.swapaxes(stack, -1, -2), order="C").reshape(-1, n, n)
    eigs = np.empty(mats.shape[:2])
    lwork, liwork = _dsyevd_workspace(n)
    work = np.empty(lwork)
    iwork = np.empty(liwork, dtype=np.int64)
    ints = np.array([n, lwork, liwork, 0], dtype=np.int64)  # n (also lda), lwork, liwork, info
    at = ints.ctypes.data
    for mat, out in zip(mats, eigs):
        dsyevd(b"N", b"L", at, mat.ctypes.data, at, out.ctypes.data,
               work.ctypes.data, at + 8, iwork.ctypes.data, at + 16, at + 24, 1, 1)
        if ints[3]:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return eigs.reshape(stack.shape[:-1])


#: dsytrd's block size, set through its workspace. On one BLAS thread it
#: reduced faster than LAPACK's default of 32 at every n measured: 0.25
#: against 0.34 ms at n = 129, 1.14 against 1.31 ms at n = 200 and 4.2
#: against 6.4 ms at n = 400 (medians of 30 calls, 2-vCPU Xeon).
_DSYTRD_BLOCK = 16


@lru_cache(maxsize=None)
def _dsytrd_workspace(n: int) -> int:
    """dsytrd's lwork at n: what its own query (lwork = -1) asks for, capped
    at _DSYTRD_BLOCK * n, which blocks the reduction by _DSYTRD_BLOCK."""
    ints = np.array([n, -1, 0], dtype=np.int64)  # n (also lda), lwork, info
    work, unused = np.zeros(1), np.zeros(1)  # nothing else is read by a query
    at = ints.ctypes.data
    _linalg_symbol("scipy_dsytrd_64_")(b"L", at, unused.ctypes.data, at, unused.ctypes.data, unused.ctypes.data,
                                       unused.ctypes.data, work.ctypes.data, at + 8, at + 16, 1)
    return min(int(work[0]), _DSYTRD_BLOCK * n)


def _tridiagonalize(matrix: np.ndarray, dsytrd, d: np.ndarray, e: np.ndarray) -> None:
    """Write into d and e the diagonal and off-diagonal of a tridiagonal T
    orthogonally similar to the symmetric `matrix`: dsytrd with uplo L,
    which overwrites `matrix`.

    A symmetric C-ordered matrix is its own transpose, and that transpose
    is column-major, so dsytrd reduces it where it lies; any other layout
    is copied to column-major first.
    """
    n = len(matrix)
    a = np.asfortranarray(matrix.T)
    tau = np.empty(n - 1)
    lwork = _dsytrd_workspace(n)
    work = np.empty(lwork)
    ints = np.array([n, lwork, 0], dtype=np.int64)  # n (also lda), lwork, info
    at = ints.ctypes.data
    dsytrd(b"L", at, a.ctypes.data, at, d.ctypes.data, e.ctypes.data, tau.ctypes.data,
           work.ctypes.data, at + 8, at + 16, 1)


def _tail_stats(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each draw of a (k, n, n) stack as a symmetric tridiagonal T with the
    draw's spectrum: T's diagonals, (k, n), and off-diagonals, (k, n - 1).

    The draws are `sample_matrix`'s, so float64. With n >= 129 (one draw to
    a stack, `_stack_size`) they are reduced draw by draw by dsytrd
    (`_tridiagonalize`) in place, so the stack is consumed: its draws are
    overwritten. `_replicate_loop` redoes only stacks of two or more draws,
    so it never reads a consumed one. ctypes releases the GIL for each
    call, so replicate threads overlap. Smaller draws and every draw of a
    build without the symbol take their eigenvalues from `_eigvalsh`,
    looked up at call time, as the diagonal of a diagonal T. A non-finite
    diagonal or off-diagonal raises LinAlgError.
    """
    k, n = stack.shape[:2]
    dsytrd = _linalg_symbol("scipy_dsytrd_64_") if _stack_size(n) == 1 else None
    if dsytrd is None:
        d, e = _eigvalsh(stack), np.zeros((k, n - 1))
    else:
        d, e = np.empty((k, n)), np.empty((k, n - 1))
        for mat, diag, off in zip(stack, d, e):
            _tridiagonalize(mat, dsytrd, diag, off)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise np.linalg.LinAlgError("A draw's tridiagonal form is non-finite")
    return d, e


def _count_beyond(d: np.ndarray, e: np.ndarray, thresholds: tuple[float, ...]) -> np.ndarray:
    """#{j : |lambda_j| > t} for each symmetric tridiagonal T of a batch
    (diagonals d, (k, n); off-diagonals e, (k, n - 1)) and each threshold t,
    as a (k, len(thresholds)) array of counts.

    #{lambda(T) <= t} and #{lambda(-T) <= t} are Sturm counts as LAPACK's
    bisection (dstebz) makes them: the pivots of T - t in order, each pivot
    smaller in magnitude than pivmin = (smallest normal) * max(1, max e^2)
    replaced by -pivmin, and those <= 0 counted. So an eigenvalue equal to
    t is not beyond it. For t >= 0 the two counts leave
    2n - #{lambda(T) <= t} - #{lambda(-T) <= t} eigenvalues beyond t; for
    t < 0 every eigenvalue is, and the sum is capped at n. ||T|| > t iff the
    count is positive, that is iff either Sturm count is below n.
    """
    k, n = d.shape
    t = np.asarray(thresholds, dtype=float)
    e2 = (e * e).T[:, np.newaxis, :, np.newaxis]  # (n - 1, 1, k, 1)
    pivmin = np.finfo(float).tiny * np.maximum(1.0, e2.max(axis=0, initial=0.0))
    signed = np.stack([d, -d]).transpose(2, 0, 1)[..., np.newaxis]  # (n, 2, k, 1): T and -T
    pivot = signed[0] - t
    below = np.zeros((2, k, len(t)), dtype=np.int64)
    for j in range(n):
        if j:
            pivot = signed[j] - e2[j - 1] / pivot - t
        pivot = np.where(np.abs(pivot) < pivmin, -pivmin, pivot)
        below += pivot <= 0
    return np.minimum(2 * n - below.sum(axis=0), n)


def _band_trace(d: np.ndarray, e: np.ndarray, s: int) -> np.ndarray:
    """Tr T^(2s) = ||T^s||_F^2 for each symmetric tridiagonal T of a batch,
    with diagonals d, (k, n), and off-diagonals e, (k, n - 1), in O(k n s^2).

    T^s has 2s + 1 diagonals, and they are built one power at a time. Row r
    of a draw's `band` holds (T^j)[i, i + r - p] on an index line that pads
    the n indices with p = s + 1 zeros a side; row r of each window view
    holds T's diagonal and off-diagonal read from position i + r - p of the
    same line, so a row's product with T takes three of its neighbours. The
    padding keeps every read inside the arrays, and T padded with zeros
    has the same powers on the real indices. T^j fills only the rows
    p - j to p + j. The draws go through in groups whose bands hold at most
    _STACK_DOUBLES doubles, which also ran faster than one group.
    """
    k, n = d.shape
    p = s + 1
    line = n + 2 * p
    group = max(1, _STACK_DOUBLES // ((2 * p + 1) * line))
    if k > group:
        return np.concatenate([_band_trace(d[i : i + group], e[i : i + group], s)
                               for i in range(0, k, group)])
    diag, upper = np.zeros((k, line + 2 * p)), np.zeros((k, line + 2 * p))
    diag[:, 2 * p : 2 * p + n] = d
    upper[:, 2 * p : 2 * p + n - 1] = e
    diag_at = np.lib.stride_tricks.sliding_window_view(diag, line, axis=-1)
    upper_at = np.lib.stride_tricks.sliding_window_view(upper, line, axis=-1)
    band = np.zeros((k, 2 * p + 1, line))
    band[:, p, p : p + n] = 1.0  # T^0 on the real indices only
    for j in range(1, s + 1):
        lo, hi = p - j, p + j + 1
        band[:, lo:hi] = (
            band[:, lo - 1 : hi - 1] * upper_at[:, lo - 1 : hi - 1]
            + band[:, lo:hi] * diag_at[:, lo:hi]
            + band[:, lo + 1 : hi + 1] * upper_at[:, lo:hi]
        )
    band = band.reshape(k, -1)
    return np.einsum("ij,ij->i", band, band)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _sample_std(values: np.ndarray) -> float | None:
    """Standard deviation with ddof=1, or None when fewer than two values hold it."""
    return float(np.std(values, ddof=1)) if len(values) >= 2 else None


@dataclass
class SampleStats:
    """Per-replicate spectral statistics plus aggregates."""

    s_list: tuple[int, ...]
    lambda_max: np.ndarray = field(repr=False, default=None)
    traces: dict[int, np.ndarray] = field(repr=False, default_factory=dict)
    failed_replicates: list[int] = field(default_factory=list)

    @property
    def replicates(self) -> int:
        """Filled replicates; the dropped ones are in failed_replicates."""
        return len(self.lambda_max)

    def trace_mean(self, s: int) -> float | None:
        """Mean over the filled replicates; None when none was filled."""
        return float(np.mean(self.traces[s])) if len(self.traces[s]) else None

    def trace_std(self, s: int) -> float | None:
        """Sample standard deviation (ddof=1); None below two filled replicates."""
        return _sample_std(self.traces[s])

    def trace_ci(self, s: int) -> tuple[float, float] | None:
        """95% normal interval for the mean (z = 1.96); None below two filled replicates."""
        sd = self.trace_std(s)
        if sd is None:
            return None
        half = 1.96 * sd / math.sqrt(len(self.traces[s]))
        m = self.trace_mean(s)
        return (m - half, m + half)

    def zscore_against(self, s: int, exact_value: float) -> float | None:
        """(mean - exact) / standard error; None when the spread is unknown or zero."""
        sd = self.trace_std(s)
        if not sd:
            return None
        return (self.trace_mean(s) - exact_value) / (sd / math.sqrt(len(self.traces[s])))

    def rows(self) -> list[dict]:
        """One row per filled replicate, labelled by its replicate index."""
        dropped = set(self.failed_replicates)
        kept = [rep for rep in range(self.replicates + len(dropped)) if rep not in dropped]
        out = []
        for i, rep in enumerate(kept):
            row = {"replicate": rep, "lambda_max": float(self.lambda_max[i])}
            for s in self.s_list:
                row[f"trace_{2*s}"] = float(self.traces[s][i])
            out.append(row)
        return out


#: Doubles per stacked eigen-solve: n = 30 stacks 36 draws, n >= 129 one.
#: A budget of 2^17 saves little more and raises peak memory by 7%. It also
#: bounds a tail's chunk of draws (`tail_curve`) and band (`_band_trace`).
_STACK_DOUBLES = 2**15


def _stack_size(n: int) -> int:
    """Draws per stacked eigen-solve: max(1, _STACK_DOUBLES // n^2)."""
    return max(1, _STACK_DOUBLES // n**2)


def _replicate_loop(config: EnsembleConfig, reps: range, statistic) -> tuple[list, list[int]]:
    """statistic(stack) over the draws of the replicates in `reps`, in order.

    The replicates are absolute indices, which key their Philox streams; a
    range that runs backwards, range(replicates) for a negative count, is
    refused. The draws go to statistic as (k, n, n) stacks of
    `_stack_size(n)` consecutive replicates (the last stack may hold
    fewer), and every statistic runs on one BLAS thread. A stack whose
    statistic raises LinAlgError is redone one draw at a time, and the
    draws that raise again are dropped. Returns the statistics, one per
    stack that was filled, and the indices of the dropped replicates,
    ascending.

    Draws that fill a stack alone (n >= 129, `_stack_size`) are dealt to
    min(usable CPUs, stacks) threads, the caller's among them: each thread
    takes the next stack no thread has taken, with its own generator
    re-keyed to each replicate's stream, and the results are gathered by
    stack index. So the output is the same bits on any number of cores.
    The threads overlap because dsyevd (`_eigvalsh`), the tail's dsytrd
    (`_tail_stats`) and numpy's matrix products release the GIL. Smaller
    draws stay on the caller's thread, where threads saved little wall time
    for much more CPU: two threads on the benchmark's two n = 30
    `sample_stats` calls (1,000 replicates each) took 108-127 ms wall
    against 129-152 ms on one, for 37-60% more CPU (medians, 2-vCPU Xeon).
    Every thread is joined before the loop returns;
    the first exception a thread raised is then raised here, and the other
    threads stop after their stack.
    """
    if reps.stop < reps.start:
        raise ValueError("replicates must be >= 0")
    batch = _stack_size(config.n)
    starts = range(0, len(reps), batch)
    done: list = [None] * len(starts)  # per stack: (statistics, dropped replicates)
    todo = iter(range(len(starts)))
    take = threading.Lock()
    halt = threading.Event()
    errors: list[BaseException] = []

    def solve(stack, reps, filled, failed):
        try:
            filled.append(statistic(stack))
        except np.linalg.LinAlgError:
            if len(reps) == 1:
                failed.append(reps[0])
                return
            for i in range(len(reps)):
                solve(stack[i : i + 1], reps[i : i + 1], filled, failed)

    def work():
        rng = _rng(config, 0)
        try:
            while not halt.is_set():
                with take:
                    index = next(todo, None)
                if index is None:
                    return
                stack_reps = reps[starts[index] : starts[index] + batch]
                mats = [sample_matrix(config, rep, rng) for rep in stack_reps]
                filled, failed = done[index] = [], []
                # a lone draw goes as a view, not a copy
                solve(np.stack(mats) if len(mats) > 1 else mats[0][np.newaxis], stack_reps, filled, failed)
        except BaseException as exc:
            errors.append(exc)
            halt.set()

    workers = min(_usable_cpus(), len(starts)) if batch == 1 else 1
    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    with _one_blas_thread():
        try:
            for thread in threads:
                thread.start()
            work()
        finally:
            halt.set()  # on an early exit the other threads stop after their stack
            for thread in threads:
                if thread.is_alive():
                    thread.join()
    if errors:
        raise errors[0]
    return [st for filled, _ in done for st in filled], sorted(rep for _, failed in done for rep in failed)


def sample_stats(
    config: EnsembleConfig, replicates: int, s_list: tuple[int, ...] = (1, 2, 3, 4)
) -> SampleStats:
    """lambda_max and Tr A^(2s) for s in s_list, per replicate, from stacked eigen-solves."""
    s_list = tuple(s_list)

    def statistic(stack):
        stats = spectral_stats(stack, s_list)
        return stats["lambda_max"], stats["traces"]

    filled, failed = _replicate_loop(config, range(replicates), statistic)
    empty = np.empty(0)
    lambda_max = np.concatenate([empty] + [lam for lam, _ in filled])
    return SampleStats(
        s_list=s_list,
        lambda_max=lambda_max,
        traces={s: np.concatenate([empty] + [traces[s] for _, traces in filled]) for s in s_list},
        failed_replicates=failed,
    )


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval (z = 1.96) for a binomial proportion."""
    z = 1.96
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class TailCurve:
    x_grid: tuple[float, ...]
    thresholds: tuple[float, ...]
    exceed_counts: tuple[int, ...]
    replicates: int
    chebyshev_bounds: tuple[float | None, ...] | None = None  # None where threshold <= 0
    # per threshold, the mean over filled draws of #{j : |lambda_j| > threshold}
    mean_beyond: tuple[float, ...] = ()

    def probabilities(self) -> list[float]:
        return [c / self.replicates for c in self.exceed_counts]

    def intervals(self) -> list[tuple[float, float]]:
        return [wilson_interval(c, self.replicates) for c in self.exceed_counts]

    def rows(self) -> list[dict]:
        out = []
        probs = self.probabilities()
        cis = self.intervals()
        for i, x in enumerate(self.x_grid):
            row = {
                "x": x,
                "threshold": self.thresholds[i],
                "probability": probs[i],
                "ci_low": cis[i][0],
                "ci_high": cis[i][1],
                "exceed_count": self.exceed_counts[i],
                "replicates": self.replicates,
            }
            if self.chebyshev_bounds is not None:
                row["chebyshev_bound"] = self.chebyshev_bounds[i]
            out.append(row)
        return out


def _tail_chunk(
    config: EnsembleConfig, reps: range, thresholds: tuple[float, ...], s: int | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The tail's statistics of the replicates in `reps` that are not
    dropped: #{j : |lambda_j| > t} per draw and threshold (`_count_beyond`),
    and Tr A^(2s) per draw (`_band_trace`), or None without s.

    The draws' tridiagonals come from `_replicate_loop` and live only in
    this call, so a tail holds one chunk of them at a time.
    """
    filled, _ = _replicate_loop(config, reps, _tail_stats)
    if not filled:
        return np.zeros((0, len(thresholds)), dtype=np.int64), None if s is None else np.empty(0)
    d, e = (np.concatenate(parts) for parts in zip(*filled))
    del filled  # the per-stack pieces, before the counts need room
    return _count_beyond(d, e, thresholds), None if s is None else _band_trace(d, e, s)


def tail_curve(
    config: EnsembleConfig,
    x_grid: tuple[float, ...],
    scale: str = "wigner",
    replicates: int = 1000,
    chebyshev_s: int | None = None,
) -> TailCurve:
    """Empirical exceedance of ||A|| over 2v (1 + x / n^(2/3)) or 2v (1 + x / c).

    When chebyshev_s (>= 1) is given, also reports per grid point
    mean(Tr A^(2s)) / threshold^(2s), with the mean taken over the same
    replicates: an estimate of E Tr A^(2s) / t^(2s), not a bound on the
    exceedance probability.

    The replicate threads only reduce each draw to a tridiagonal T with its
    spectrum (`_tail_stats`). Every threshold is then answered on the
    caller's thread, in bulk over a chunk of at most _STACK_DOUBLES // n
    draws: Sturm counts decide ||A|| > t and count the eigenvalues beyond t
    (`_count_beyond`, into `mean_beyond`), and Tr A^(2s) = Tr T^(2s) comes
    from T's band (`_band_trace`). A replicate whose draw fails is dropped,
    and LinAlgError is raised when every replicate is.
    """
    if replicates < 100:
        raise ValueError("at least 100 replicates are required for a tail curve")
    if chebyshev_s is not None and chebyshev_s < 1:
        raise ValueError("chebyshev_s must be >= 1")
    n = config.n
    v = float(config.law.v)
    if scale == "wigner":
        denom = n ** (2.0 / 3.0)
    elif scale == "dilute":
        if config.dilution_c is None:
            raise ValueError("dilute scale needs a dilution concentration")
        denom = float(config.dilution_c)
    else:
        raise ValueError("scale must be 'wigner' or 'dilute'")
    if not all(math.isfinite(x) for x in x_grid):
        raise ValueError("x_grid points must be finite")
    thresholds = tuple(2 * v * (1 + x / denom) for x in x_grid)
    drawn = 0
    exceed = np.zeros(len(thresholds), dtype=np.int64)
    beyond = np.zeros(len(thresholds), dtype=np.int64)
    traces = []
    chunk = max(1, _STACK_DOUBLES // n)
    for start in range(0, replicates, chunk):
        reps = range(start, min(start + chunk, replicates))
        counts, chunk_traces = _tail_chunk(config, reps, thresholds, chebyshev_s)
        drawn += len(counts)
        exceed += np.count_nonzero(counts, axis=0)
        beyond += counts.sum(axis=0)
        traces.append(chunk_traces)
    if not drawn:
        raise np.linalg.LinAlgError(f"all {replicates} replicates failed their eigen-solve")
    cheb = None
    if chebyshev_s is not None:
        mean_trace = float(np.mean(np.concatenate(traces)))
        cheb = tuple(
            mean_trace / thr ** (2 * chebyshev_s) if thr > 0 else None
            for thr in thresholds
        )
    return TailCurve(
        x_grid=tuple(x_grid),
        thresholds=thresholds,
        exceed_counts=tuple(int(c) for c in exceed),
        replicates=drawn,
        chebyshev_bounds=cheb,
        mean_beyond=tuple(float(b) / drawn for b in beyond),
    )


def universality_compare(
    config_a: EnsembleConfig,
    config_b: EnsembleConfig,
    s: int,
    replicates: int,
) -> dict:
    """Compare mean (1/n) Tr A^(2s) between two ensembles of the same (n, v).

    The traces come from matrix products (`trace_powers`), one draw of a
    stack at a time: no eigenvalue is needed, so no replicate goes through
    an eigen-solve.

    The agreement verdict asks whether the difference of means stays within
    three pooled per-replicate standard deviations: the exact finite-n means
    of two entry laws provably differ at order 1/n, so with many replicates a
    standard-error z-test would flag that known systematic difference rather
    than anything interesting. The z-score against the standard error is
    reported alongside for reference.
    """
    if config_a.n != config_b.n:
        raise ValueError("configs must share the dimension n")
    if s < 0:
        raise ValueError("s must be >= 0")

    def traces(stack):
        return [trace_powers(matrix, (s,))[s] for matrix in stack]

    a, failed_a = _replicate_loop(config_a, range(replicates), traces)
    b, failed_b = _replicate_loop(config_b, range(replicates), traces)
    traces_a = np.array([t for stack in a for t in stack], dtype=float)
    traces_b = np.array([t for stack in b for t in stack], dtype=float)
    n = config_a.n
    filled = min(len(traces_a), len(traces_b))
    # means need one filled replicate a side and spreads two; what is missing is None
    mean_a = float(np.mean(traces_a)) / n if filled else None
    mean_b = float(np.mean(traces_b)) / n if filled else None
    diff = mean_a - mean_b if filled else None
    spread = dict.fromkeys(("pooled_sd", "se_of_difference", "z_vs_se", "effect_in_sd", "agrees_within_3sd"))
    if filled >= 2:
        sd_a = _sample_std(traces_a) / n
        sd_b = _sample_std(traces_b) / n
        pooled_sd = math.sqrt((sd_a**2 + sd_b**2) / 2)
        se = math.sqrt(sd_a**2 / len(traces_a) + sd_b**2 / len(traces_b))
        spread = {
            "pooled_sd": pooled_sd,
            "se_of_difference": se,
            # a ratio over a zero spread is unknown, as in SampleStats.zscore_against
            "z_vs_se": diff / se if se else None,
            "effect_in_sd": diff / pooled_sd if pooled_sd else None,
            "agrees_within_3sd": abs(diff) <= 3 * pooled_sd,
        }
    return {
        "n": n,
        "s": s,
        "replicates": filled,
        "failed_replicates_a": failed_a,
        "failed_replicates_b": failed_b,
        "mean_a": mean_a,
        "mean_b": mean_b,
        "difference": diff,
        **spread,
    }


def truncation_event_rate(config: EnsembleConfig, replicates: int) -> dict:
    """Empirical probability that some raw entry exceeds the truncation level.

    The event reads only the largest |a|, so each replicate asks its law
    for it (`law.largest_magnitude`) from its own Philox stream. It equals
    the largest absolute value of the raw entries `sample_entries` draws,
    bit for bit, so the hits are the same. A law that draws its signs after
    its magnitudes (power-tail) skips them and maps only its largest
    uniform to a magnitude.
    """
    if config.truncation is None:
        raise ValueError("config has no truncation")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    n, cutoff = config.n, config.truncation.cutoff(config.n)
    hits = 0
    rng = _rng(config, 0)
    for rep in range(replicates):
        if config.law.largest_magnitude(_rng(config, rep, rng), n * (n + 1) // 2) > cutoff:
            hits += 1
    rate = hits / replicates
    ci = wilson_interval(hits, replicates)
    out = {
        "n": config.n,
        "replicates": replicates,
        "cutoff": cutoff,
        "rate": rate,
        "ci_low": ci[0],
        "ci_high": ci[1],
    }
    delta0 = config.truncation.delta0
    if delta0 is not None:
        order = 12 + 2 * delta0
        abs_moment = config.law.abs_moment(order)
        out["moment_order"] = order
        out["union_bound"] = config.n**2 * abs_moment / cutoff**order
    return out
