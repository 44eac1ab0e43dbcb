"""The boost law in 50-digit decimal arithmetic: a reference for the float routes.

The float inputs are taken as exact binary values (Decimal(float) is exact),
every operation after that rounds to DIGITS significant digits, and the
results are rounded to float once, at the end.  So the reference is off the
exact law at the float inputs by about 1e-50 relative plus the final rounding,
half an ulp: a float route's difference from it is that route's own error.

    sigma'(k', omega') = [gamma (1 - v.k/omega)]^(-1)
                         Lhat (1 - v k^T/omega) sigma(k, omega) (1 - k v^T/omega) Lhat

with omega' = gamma (omega - v.k), k' = Lhat k - gamma omega v/c^2,
gamma = 1/sqrt(1 - |v|^2/c^2) and Lhat = 1 + (gamma - 1) v v^T/|v|^2.
Complex numbers are (re, im) pairs: every factor but sigma is real, so the
law moves the real and the imaginary part of sigma separately.
"""

from decimal import Decimal, localcontext

import numpy as np

DIGITS = 50


def _matmul(a, b):
    return [[sum(a[i][m] * b[m][j] for m in range(3)) for j in range(3)] for i in range(3)]


def boost(sigma, omega: float, k, v, c: float = 1.0) -> tuple[np.ndarray, float, np.ndarray]:
    """sigma' (3, 3) complex, omega' and k' (3,) of the boost by v of sigma sampled at (k, omega), light speed c."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        w = Decimal(float(omega))
        kv = [Decimal(float(x)) for x in k]
        vv = [Decimal(float(x)) for x in v]
        c2 = Decimal(float(c)) ** 2
        v2 = sum(x * x for x in vv)
        gamma = 1 / (1 - v2 / c2).sqrt()
        v_dot_k = sum(a * b for a, b in zip(vv, kv))
        eye = [[Decimal(int(i == j)) for j in range(3)] for i in range(3)]
        lhat = [[eye[i][j] + ((gamma - 1) * vv[i] * vv[j] / v2 if v2 else 0) for j in range(3)] for i in range(3)]
        left = _matmul(lhat, [[eye[i][j] - vv[i] * kv[j] / w for j in range(3)] for i in range(3)])
        right = _matmul([[eye[i][j] - kv[i] * vv[j] / w for j in range(3)] for i in range(3)], lhat)
        prefactor = 1 / (gamma * (1 - v_dot_k / w))
        parts = []
        for part in (np.real(sigma), np.imag(sigma)):
            s = [[Decimal(float(x)) for x in row] for row in part]
            parts.append([[float(prefactor * x) for x in row] for row in _matmul(_matmul(left, s), right)])
        omega_p = float(gamma * (w - v_dot_k))
        k_p = [float(sum(lhat[i][j] * kv[j] for j in range(3)) - gamma * w * vv[i] / c2) for i in range(3)]
    return np.array(parts[0]) + 1j * np.array(parts[1]), omega_p, np.array(k_p)
