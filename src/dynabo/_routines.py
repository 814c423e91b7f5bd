"""scipy's LAPACK, BLAS and L-BFGS-B routines: the one place dynabo calls them.

The GP factorizes, inverts and solves through LAPACK's ``dpotrf``,
``dtrtri``, ``dpotri``, ``dpotrs`` and ``dtrtrs`` (what ``scipy.linalg``'s
``cholesky``, ``lapack.dtrtri``, ``lapack.dpotri``, ``cho_solve`` and
``solve_triangular`` run), each called directly with its ``info`` checked,
and multiplies by a triangular matrix through BLAS ``dtrmm``.
Hyperparameter training and ``optimizer.local_refine`` minimize through
``_lbfgsb``, the loop over L-BFGS-B's ``setulb`` (Byrd, Lu, Nocedal & Zhu,
1995) that ``scipy.optimize.minimize(method="L-BFGS-B")`` runs.

The extension modules, ``scipy.linalg._flapack``, ``scipy.linalg._fblas``
and ``scipy.optimize._lbfgsb``, are loaded by file from the installed scipy,
without ``scipy.linalg``'s or ``scipy.optimize``'s package import: those pull
in ``numpy.testing``, ``scipy.sparse``, ``scipy.special`` and more, and took
more than half of a fresh ``import dynabo.cli`` and about 0.4 s of every
fresh process.  Each module is registered under its own name, so a later
scipy import reuses it (``scipy.linalg.lapack.dpotrf is _routines.dpotrf``):
the same function objects, so the same bits.  Where the file is not found,
as on an install laid out differently, the module is imported through its
package.  LAPACK and BLAS load with this module, L-BFGS-B at the driver's
first run.
This module imports no other dynabo module.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy  # cheap; on Windows wheels it makes the bundled OpenBLAS findable

# L-BFGS-B's relative objective tolerance (scipy's default, ``factr`` = 1e7
# times the machine epsilon), projected-gradient tolerance, stored
# correction pairs and line-search steps per iteration (scipy's defaults)
_LBFGSB_FTOL = 2.2204460492503131e-09
_LBFGSB_GTOL = 1e-5
_LBFGSB_MEMORY = 10
_LBFGSB_MAX_LINE_SEARCH = 20
# the evaluations after which L-BFGS-B stops at its next iterate (scipy's
# ``maxfun`` default)
_LBFGSB_MAX_EVALUATIONS = 15000


def _scipy_extension(subpackage: str, name: str):
    """``scipy.<subpackage>.<name>``, loaded as the module docstring says;
    one already in ``sys.modules`` is reused.

    A package imported later has no ``<name>`` attribute, because the import
    system sets a submodule as a package attribute only when it loads the
    submodule itself; scipy reaches both modules only by the ``from ...
    import`` form.
    """
    qualified = f"scipy.{subpackage}.{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    for base in scipy.__path__:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(base, subpackage, name + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(qualified, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(qualified, path, loader=loader)
                )
                sys.modules[qualified] = module
                loader.exec_module(module)
                return module
    return importlib.import_module(qualified)


_lapack = _scipy_extension("linalg", "_flapack")
dpotrf, dpotrs, dtrtrs = _lapack.dpotrf, _lapack.dpotrs, _lapack.dtrtrs
dpotri, dtrtri = _lapack.dpotri, _lapack.dtrtri
dtrmm = _scipy_extension("linalg", "_fblas").dtrmm


def _dpotrf(matrix: np.ndarray) -> tuple[np.ndarray, int]:
    """Lower factor and LAPACK ``info``; an illegal argument raises."""
    el, info = dpotrf(matrix, lower=1, clean=1)
    if info < 0:
        raise ValueError(f"dpotrf rejected argument {-info}")
    return el, info


def _cho_solve(el: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.cho_solve((el, True), b)`` through LAPACK ``dpotrs``
    directly; ``el`` comes from ``gp.chol_with_jitter``, so it is finite."""
    x, info = dpotrs(el, b, lower=1)
    if info != 0:
        raise ValueError(f"dpotrs rejected argument {-info}")
    return x


def _tri_solve(el: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """``scipy.linalg.solve_triangular(el, b, trans, lower=True)`` through
    LAPACK ``dtrtrs`` directly: ``el x = b``, or ``el^T x = b`` with
    ``trans=1``.  ``el`` is a factor from ``gp.chol_with_jitter``, finite
    and Fortran-ordered, the layout for which ``solve_triangular`` makes
    this same call, or a trailing diagonal block of one, which is not
    contiguous: f2py copies such a block to Fortran order first."""
    x, info = dtrtrs(el, b, lower=1, trans=trans)
    if info != 0:
        raise ValueError(f"dtrtrs failed with info {info}")
    return x


def _tri_inv(el: np.ndarray) -> np.ndarray:
    """The inverse of the lower triangular ``el`` through LAPACK ``dtrtri``,
    lower triangular too and in ``el``'s storage order (the strict upper
    triangle is ``el``'s, zeros for a factor from ``gp.chol_with_jitter``)."""
    inv, info = dtrtri(el, lower=1)
    if info != 0:
        raise ValueError(f"dtrtri failed with info {info}")
    return inv


def _cho_inv(el: np.ndarray) -> np.ndarray:
    """The inverse of ``el el^T`` from its lower Cholesky factor ``el``
    through LAPACK ``dpotri``: in the lower triangle of a Fortran-ordered
    array, whose strict upper triangle is ``el``'s (zeros for a factor from
    ``gp.chol_with_jitter``)."""
    inv, info = dpotri(el, lower=1)
    if info != 0:
        raise ValueError(f"dpotri failed with info {info}")
    return inv


def _tri_mul(el: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``el @ b`` for a lower triangular ``el`` through BLAS ``dtrmm``, which
    reads only the lower triangle, into a new array.  ``el`` may be a
    trailing diagonal block of a Fortran-ordered factor, which f2py copies to
    Fortran order first, as for ``_tri_solve``."""
    return dtrmm(1.0, el, b, lower=1)


def _lbfgsb(fg, x0, f0, g0, lower, upper, max_iters: int, ftol: float = _LBFGSB_FTOL):
    """L-BFGS-B minimization of ``fg(x) -> (f, g)`` over the box ``lower``,
    ``upper`` from ``x0``, where it gives ``f0`` and ``g0``: the loop over
    scipy's ``setulb`` that ``scipy.optimize.minimize(method="L-BFGS-B")``
    runs, with scipy's defaults except the iteration cap and, when given,
    ``ftol``, so it gives scipy's iterates bit for bit.  A start that passes
    L-BFGS-B's projected-gradient test is returned after 0 iterations with
    no evaluation.  As scipy does, it reuses the value and gradient of the
    point evaluated last when ``setulb`` asks for that point again, and stops
    once more than ``maxfun`` = 15 000 evaluations (counting ``x0``'s) were
    made.  Returns the final point, the last evaluated point with its value
    and gradient, and the iteration count.
    """
    setulb = _scipy_extension("optimize", "_lbfgsb").setulb
    n, m = x0.size, _LBFGSB_MEMORY
    factr = ftol / np.finfo(float).eps
    x = np.clip(x0, lower, upper)
    nbd = np.full(n, 2, dtype=np.int32)  # every variable has both bounds
    f, g = 0.0, np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    last = (x.copy(), f0, g0)
    iterations, evaluations = 0, 1
    while True:
        setulb(m, x, lower, upper, nbd, f, g, factr, _LBFGSB_GTOL, wa, iwa,
               task, lsave, isave, dsave, _LBFGSB_MAX_LINE_SEARCH, ln_task)
        if task[0] == 3:  # evaluate f and g at x
            if not np.logical_and.reduce(x == last[0]):  # bitwise np.array_equal
                point = x.copy()
                last = (point, *fg(point))
                evaluations += 1
            f, g = last[1], last[2].copy()  # setulb may overwrite g
        elif task[0] == 1:  # a new iterate
            iterations += 1
            if iterations >= max_iters:
                task[0], task[1] = 5, 504  # stop: the iteration cap
            elif evaluations > _LBFGSB_MAX_EVALUATIONS:
                task[0], task[1] = 5, 502  # stop: scipy's maxfun
        else:
            return x, last, iterations
