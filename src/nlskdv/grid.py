"""Periodic grid on [-L, L) with spectral derivatives and quadrature.

The box is the computational stand-in for the real line: profiles of
interest decay exponentially, so with L large enough the periodic
truncation error sits below the solver tolerances.  Every operation here
is a pure function of its inputs; field values are frozen after
construction, so instances can be shared freely between threads.
"""

from __future__ import annotations

import json
import os
import secrets
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .errors import GridMismatchError, ValidationError


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform periodic grid with n samples on [-L, L).

    wavenumbers are in full FFT ordering (Nyquist stored as -n/2), and
    h1_weights = 1 + k^2 weight the product H1 norm.
    """

    half_length: float
    n: int
    dx: float = field(init=False)
    x: np.ndarray = field(init=False, repr=False)
    wavenumbers: np.ndarray = field(init=False, repr=False)
    h1_weights: np.ndarray = field(init=False, repr=False)
    _symbols: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        L, n = self.half_length, self.n
        dx = 2.0 * L / n
        x = -L + dx * np.arange(n)
        # pi*j/L for j in standard FFT ordering (Nyquist stored as -n/2)
        k = 2.0 * np.pi * scipy.fft.fftfreq(n, d=dx)
        w = 1.0 + k ** 2
        for arr in (x, k, w):
            arr.flags.writeable = False
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "wavenumbers", k)
        object.__setattr__(self, "h1_weights", w)

    def deriv_symbol(self, order: int) -> np.ndarray:
        """Multiplier (i k)^order of the spectral derivative, built once.

        The Nyquist mode is zeroed for odd orders so real input stays
        real; even-order symbols are real.
        """
        sym = self._symbols.get(order)
        if sym is None:
            sym = (1j * self.wavenumbers) ** order
            if order % 2 == 0:
                sym = sym.real.copy()
            else:
                sym[self.n // 2] = 0.0
            sym.flags.writeable = False
            self._symbols[order] = sym
        return sym

    def constants(self, build):
        """build(self), built once per grid and kept beside the symbols.

        build is a module-level function of the grid alone and is its
        own cache key; it returns a tuple of arrays, which are made
        read-only so solves can share them.
        """
        consts = self._symbols.get(build)
        if consts is None:
            consts = build(self)
            for arr in consts:
                arr.flags.writeable = False
            self._symbols[build] = consts
        return consts

    def __eq__(self, other):
        if not isinstance(other, Grid1D):
            return NotImplemented
        return self.half_length == other.half_length and self.n == other.n

    def __hash__(self):
        return hash((self.half_length, self.n))


def make_grid(L: float, n: int) -> Grid1D:
    """Build a grid, rejecting odd or tiny sample counts and L <= 0."""
    if not np.isfinite(L) or L <= 0:
        raise ValidationError(f"half_length must be positive, got {L}")
    if n % 2 != 0 or n < 8:
        raise ValidationError(f"sample count must be even and >= 8, got {n}")
    return Grid1D(float(L), int(n))


@dataclass(frozen=True, eq=False)
class _Samples:
    """Samples of a function on a Grid1D: checked, copied and frozen.

    The subclasses differ only in the dtype the samples are stored as,
    and refuse samples of another kind (complex ones for a RealField).
    """

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if not np.can_cast(vals.dtype, self._dtype, "same_kind"):
            raise ValidationError(f"{type(self).__name__} cannot hold "
                                  f"{vals.dtype} samples")
        vals = vals.astype(self._dtype)
        if vals.shape != (self.grid.n,):
            raise ValidationError(
                f"expected {self.grid.n} samples, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("field contains non-finite samples")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


class RealField(_Samples):
    """Real samples of a function on a Grid1D."""

    _dtype = np.float64


class ComplexField(_Samples):
    """Complex samples of a function on a Grid1D."""

    _dtype = np.complex128


Field = RealField | ComplexField


def same_grid(*fields: Field) -> Grid1D:
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatchError("fields live on different grids")
    return g


def apply_symbol(values: np.ndarray, grid: Grid1D,
                 symbol: np.ndarray) -> np.ndarray:
    """Multiply the spectrum of a sample array by symbol and transform back.

    symbol is in full FFT ordering (see Grid1D.wavenumbers).  Real input
    goes through the real-to-complex transform, which keeps the first
    n/2 + 1 entries of symbol, and the output is real; complex input
    takes the full transform.  The transform runs along the last axis
    and leading axes are transformed row by row, so each row of a stack
    comes back bit for bit as it would alone.
    """
    if np.isrealobj(values):
        return scipy.fft.irfft(symbol[..., :grid.n // 2 + 1]
                               * scipy.fft.rfft(values), grid.n)
    return scipy.fft.ifft(symbol * scipy.fft.fft(values))


def deriv_values(values: np.ndarray, grid: Grid1D, order: int = 1) -> np.ndarray:
    """Spectral derivative of a raw sample array.

    Mode j is multiplied by (i k_j)^order (see Grid1D.deriv_symbol); real
    input goes through the real-to-complex transform and stays real.
    """
    if order < 1:
        raise ValidationError(f"derivative order must be >= 1, got {order}")
    return apply_symbol(values, grid, grid.deriv_symbol(order))


def deriv(f: Field, order: int = 1) -> Field:
    """Spectral derivative of a field, same type as the input."""
    return type(f)(f.grid, deriv_values(f.values, f.grid, order))


def integrate(f: Field):
    """Quadrature of the field over the box: dx * sum(values).

    The rectangle rule coincides with the trapezoid rule on the periodic
    grid and is spectrally accurate for fields that decay at the ends.
    """
    total = f.grid.dx * np.sum(f.values)
    if isinstance(f, RealField):
        return float(total)
    return complex(total)


def boundary_leak(values: np.ndarray) -> float:
    """Boundary magnitude relative to the peak, as a truncation diagnostic."""
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return 0.0
    edge = max(abs(values[0]), abs(values[-1]))
    return float(edge / peak)


# --- serialization: little-endian float64 binary plus a JSON header -------

def save_field(f: Field, basepath: str) -> None:
    """Write <basepath>.bin (raw little-endian samples) and <basepath>.json."""
    kind = "real" if isinstance(f, RealField) else "complex"
    dtype = "<f8" if kind == "real" else "<c16"
    raw = np.ascontiguousarray(f.values.astype(dtype)).tobytes()
    header = {"L": f.grid.half_length, "n": f.grid.n, "kind": kind}
    atomic_write(basepath + ".bin", raw)
    atomic_write(basepath + ".json",
                 (json.dumps(header, sort_keys=True) + "\n").encode())


def load_field(basepath: str) -> Field:
    with open(basepath + ".json", "rb") as fh:
        header = json.loads(fh.read())
    grid = make_grid(header["L"], header["n"])
    with open(basepath + ".bin", "rb") as fh:
        raw = fh.read()
    if header["kind"] == "real":
        vals = np.frombuffer(raw, dtype="<f8")
        return RealField(grid, vals.astype(np.float64))
    vals = np.frombuffer(raw, dtype="<c16")
    return ComplexField(grid, vals.astype(np.complex128))


def atomic_write(path: str, data: bytes) -> None:
    """Write bytes to a temp file beside path, then rename it into place.

    The temp name is unique, so concurrent writers to one path never
    share a temp file; a failed write removes its temp file.  The file
    is created like open(path, "wb") would create it (mode 0o666 less
    the umask), unlike tempfile.mkstemp's 0o600.
    """
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
