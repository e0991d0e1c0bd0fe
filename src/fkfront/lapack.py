"""The LAPACK routines of the solver and the spectrum, from the library numpy links.

``import numpy`` has already loaded ``numpy.linalg._umath_linalg``, the
OpenBLAS it links and ``ctypes``, so :func:`load` maps nothing new: it
resolves ``dpttrf``, ``dpttrs``, ``dstebz`` and ``dstein`` through that
extension's dependency tree in about 0.2 ms.  The results are bit for bit
those of ``scipy.linalg.lapack``, which a solving command used to import for
these four routines, at 15-23 ms and, with scipy's own OpenBLAS, about
3.4 MB of peak resident memory.

Every argument goes by reference, as Fortran takes it, and every integer is
64-bit: each build in :data:`NAMES` is ILP64.  Every array handed to a
routine is checked first by :func:`checked` -- dtype, contiguity, exact
length -- so a foreign call never reads or writes past one.  The calls hold
the GIL.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

__all__ = ["INT", "NAMES", "Lapack", "checked", "load", "pointer", "ref_int"]

# The symbol of routine ``r`` in each build of the library numpy links, tried
# in order: numpy >= 2.0 wheels bundle scipy-openblas64, numpy 1.22-1.26
# wheels an OpenBLAS built with the ``64_`` symbol suffix.
NAMES = ("scipy_{}_64_", "{}_64_")
INT = ctypes.c_int64
# The routines called a few times per command declare their arguments.
# dpttrs, called on every time step with arguments built once per
# factorization, does not: converting its seven would add about 0.9 µs to
# each solve.
_ARGTYPES = {
    "dpttrf": 4 * [ctypes.c_void_p],
    "dstebz": 2 * [ctypes.c_char_p] + 16 * [ctypes.c_void_p] + 2 * [ctypes.c_size_t],
    "dstein": 13 * [ctypes.c_void_p],
}


def checked(name: str, a, dtype, size: int, writable: bool = False) -> np.ndarray:
    """``a``, once it is checked as a LAPACK array argument.

    ``a`` must be an aligned, C-contiguous 1-D ``dtype`` array of exactly
    ``size`` entries, and writable if ``writable``.  Anything else raises
    ``ValueError``.
    """
    if isinstance(a, np.ndarray):
        flags = a.flags
        if (a.dtype == dtype and a.shape == (size,) and flags.c_contiguous and flags.aligned
                and (flags.writeable or not writable)):
            return a
    want = "a writable" if writable else "an"
    raise ValueError(f"LAPACK argument {name} must be {want} aligned contiguous "
                     f"{np.dtype(dtype).name} array of shape ({size},), got {_describe(a)}")


def _describe(a) -> str:
    if not isinstance(a, np.ndarray):
        return type(a).__name__
    faults = [fault for fault, on in (("not contiguous", not a.flags.c_contiguous),
                                      ("not aligned", not a.flags.aligned),
                                      ("read-only", not a.flags.writeable)) if on]
    return ", ".join([f"{a.dtype} array of shape {a.shape}", *faults])


def pointer(a: np.ndarray) -> ctypes.c_void_p:
    """The address of ``a``'s data; the caller keeps ``a`` alive while it is used."""
    return ctypes.c_void_p(a.ctypes.data)


def ref_int(value: int):
    return ctypes.byref(INT(value))


def _ref_double(value: float):
    return ctypes.byref(ctypes.c_double(value))


class Lapack:
    """The four routines, as :func:`load` resolves them.

    :meth:`dpttrf`, :meth:`dstebz` and :meth:`dstein` take the arguments of
    the ``scipy.linalg.lapack`` wrappers of the same names and return their
    tuples, with ``int64`` index arrays.  ``routines`` maps each name to its
    foreign function; :class:`fkfront.solver.FactoredSymmetricTridiagonal`
    calls ``dpttrs`` from it with arguments built once per factorization.
    """

    def __init__(self, routines: dict[str, ctypes._CFuncPtr]) -> None:
        for name, routine in routines.items():
            routine.restype = None
            routine.argtypes = _ARGTYPES.get(name)
        self.routines = routines

    def dpttrf(self, d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """``d, e, info``: the ``L D L^T`` factors of the symmetric tridiagonal
        matrix with diagonal ``d`` and off-diagonal ``e``, written over them
        (both writable), as scipy's wrapper does with ``overwrite_d`` and
        ``overwrite_e``."""
        n = np.size(d)
        checked("d", d, np.float64, n, writable=True)
        checked("e", e, np.float64, max(n - 1, 0), writable=True)
        info = INT()
        self.routines["dpttrf"](ref_int(n), pointer(d), pointer(e), ctypes.byref(info))
        return d, e, info.value

    def dstebz(self, d: np.ndarray, e: np.ndarray, range: int, vl: float, vu: float, il: int,
               iu: int, tol: float, order: str) -> tuple[int, np.ndarray, np.ndarray,
                                                         np.ndarray, int]:
        """``m, w, iblock, isplit, info``: by bisection, the eigenvalues of the
        symmetric tridiagonal ``(d, e)``; ``range`` 0, 1 or 2 picks all of
        them, those in ``(vl, vu]`` or those of index ``il..iu``.  ``w``,
        ``iblock`` and ``isplit`` have length n and are zero past what is
        found."""
        n = np.size(d)
        checked("d", d, np.float64, n)
        checked("e", e, np.float64, max(n - 1, 0))
        if range not in (0, 1, 2):
            raise ValueError(f"dstebz range must be 0, 1 or 2, got {range!r}")
        w = np.zeros(n)
        iblock = np.zeros(n, dtype=np.int64)
        isplit = np.zeros(n, dtype=np.int64)
        work = np.empty(4 * n)
        iwork = np.empty(3 * n, dtype=np.int64)
        m, nsplit, info = INT(), INT(), INT()
        # the lengths of the two character arguments follow all the others
        self.routines["dstebz"](
            ctypes.c_char_p(b"AVI"[range:range + 1]), ctypes.c_char_p(order.encode()),
            ref_int(n), _ref_double(vl), _ref_double(vu), ref_int(il), ref_int(iu),
            _ref_double(tol), pointer(d), pointer(e), ctypes.byref(m), ctypes.byref(nsplit),
            pointer(w), pointer(iblock), pointer(isplit), pointer(work), pointer(iwork),
            ctypes.byref(info), ctypes.c_size_t(1), ctypes.c_size_t(1))
        return m.value, w, iblock, isplit, info.value

    def dstein(self, d: np.ndarray, e: np.ndarray, w: np.ndarray, iblock: np.ndarray,
               isplit: np.ndarray) -> tuple[np.ndarray, int]:
        """``z, info``: by inverse iteration, the eigenvectors of ``(d, e)``
        for the eigenvalues ``w`` (at most n), as the columns of ``z``.

        ``iblock`` (the block of each ``w``, first) and ``isplit`` have
        length n, as :meth:`dstebz` returns them.  ``dstein`` reads
        ``isplit`` at every block up to the largest in ``iblock`` and
        addresses ``d``, ``e`` and ``z`` by those block ends, so a block
        outside ``1..n``, or block ends that do not rise within ``1..n``,
        raise ``ValueError``.
        """
        n = np.size(d)
        m = np.size(w)
        checked("d", d, np.float64, n)
        checked("e", e, np.float64, max(n - 1, 0))
        checked("w", w, np.float64, m)
        if m > n:
            raise ValueError(f"dstein takes at most n={n} eigenvalues, got {m}")
        checked("iblock", iblock, np.int64, n)
        checked("isplit", isplit, np.int64, n)
        if m:
            last = int(iblock[:m].max())
            ends = isplit[:last]
            if not (iblock[:m].min() >= 1 and last <= n and ends[0] >= 1 and ends[-1] <= n
                    and np.all(ends[1:] > ends[:-1])):
                raise ValueError("dstein iblock must name blocks 1..n whose isplit ends rise "
                                 "within 1..n")
        z = np.zeros((n, m), order="F")
        work = np.empty(5 * n)
        iwork = np.empty(n, dtype=np.int64)
        ifail = np.empty(m, dtype=np.int64)
        info = INT()
        self.routines["dstein"](
            ref_int(n), pointer(d), pointer(e), ref_int(m), pointer(w), pointer(iblock),
            pointer(isplit), pointer(z), ref_int(max(1, n)), pointer(work), pointer(iwork),
            pointer(ifail), ctypes.byref(info))
        return z, info.value


@functools.cache
def load() -> Lapack:
    """The four routines, under the first of the :data:`NAMES` at which all resolve.

    Raises ``ImportError`` naming the library file and the names tried if
    none does, as for a numpy built against another LAPACK; there is no
    second way in.
    """
    from numpy.linalg import _umath_linalg

    path = _umath_linalg.__file__
    library = ctypes.PyDLL(path)  # a PyDLL call keeps the GIL
    names = ("dpttrf", "dpttrs", "dstebz", "dstein")
    for pattern in NAMES:
        try:
            return Lapack({name: getattr(library, pattern.format(name)) for name in names})
        except AttributeError:
            continue
    tried = ", ".join(pattern.format("<r>") for pattern in NAMES)
    raise ImportError(f"LAPACK routines {', '.join(names)} not found in {path} or the "
                      f"libraries it links (tried the names {tried})")
