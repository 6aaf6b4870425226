"""The package's one ODE solver: the Dormand-Prince 8(5,3) pair (DOP853) and its stepper.

The pair is published in E. Hairer, S. P. Norsett and G. Wanner, "Solving
Ordinary Differential Equations I: Nonstiff Problems", 2nd ed., Springer
1993, Sec. II.10, and in their Fortran code DOP853.  The digits below are
those of scipy's ``scipy/integrate/_ivp/dop853_coefficients.py`` (scipy
1.17), and the tableau is built from them with the same arithmetic, so it
holds the same doubles; every entry not listed is 0.  That file is
distributed under scipy's BSD license:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

Stages 0-11 make a step and stage 12 is the derivative at its end.  The
package reads a flow at a time as the end of a solve, so the pair's
interpolant between steps (three more stages and a 7th-degree polynomial)
is not kept, and a solve keeps only its end state.
"""

import math
from dataclasses import dataclass

import numpy as np

# The smallest rtol a solve accepts.
RTOL_FLOOR = 100 * np.finfo(float).eps
# The budget of right-hand-side evaluations of one solve (one segment of one
# chunk): ``solve_ivp`` stops at the first step attempt past it.  The step
# count grows with the speed of the flow, and no input bounds that.  The
# largest count a test, a verify check or a bench op makes is 1,766 (a
# chunk of 20 general rows at rel_tol 1e-13, in
# test_many_distinct_rows_at_tight_tolerance_split_into_chunks), under
# 1/140 of the budget; the largest propagator solve among them makes 770
# (20 propagators at rel_tol 1e-13, in
# test_tight_tolerance_batch_stays_above_solver_floor), with their action
# vectors free or not: V steers that solve.  A `mix` amplitude of 1e5 would
# otherwise run for hours.
MAX_RHS_EVALS = 2**18

# Step-size control of the DOP853 pair: the step grows or shrinks by
# SAFETY * err^(-1/8) (err is the error norm, below 1 on an accepted step)
# within [MIN_FACTOR, MAX_FACTOR], and never grows right after a rejection.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_EXPONENT = -1 / 8

_N_STAGES = 12

# The node of each stage but stage 0 and stage 12, which sit at the step's ends.
_C = {
    1: 0.526001519587677318785587544488e-01,
    2: 0.789002279381515978178381316732e-01,
    3: 0.118350341907227396726757197510,
    4: 0.281649658092772603273242802490,
    5: 0.333333333333333333333333333333,
    6: 0.25,
    7: 0.307692307692307692307692307692,
    8: 0.651282051282051282051282051282,
    9: 0.6,
    10: 0.857142857142857142857142857142,
    11: 1.0,
}

_A_ENTRIES = {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1, 4: 6.02165389804559606850219397283e-2,
        5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    # Row 12 is B, the weights of the 8th-order solution.
    12: {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
}
# Weights of the 5th-order error estimate, over stages 0-12.
_E5_ENTRIES = {
    0: 0.1312004499419488073250102996e-1,
    5: -0.1225156446376204440720569753e+1,
    6: -0.4957589496572501915214079952,
    7: 0.1664377182454986536961530415e+1,
    8: -0.3503288487499736816886487290,
    9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1,
    11: -0.2235530786388629525884427845e-1,
}
# The 3rd-order error estimate is the solution less these weights.
_E3_LESS = {
    0: 0.244094488188976377952755905512,
    8: 0.733846688281611857341361741547,
    11: 0.220588235294117647058823529412e-1,
}


def _weights(entries: dict, size: int) -> np.ndarray:
    """The weights of ``size`` stages, 0 where ``entries`` lists none, cast to complex as the stages are."""
    row = np.zeros(size, dtype=complex)
    row[list(entries)] = list(entries.values())
    return row


# The tableau as the stepper reads it: (node, weights of the earlier
# stages) for stages 1-11 of a step, then the weights of the solution and
# of the two error estimates.
_STAGES = [(_C[s], _weights(_A_ENTRIES[s], s)) for s in range(1, _N_STAGES)]
_B = _weights(_A_ENTRIES[_N_STAGES], _N_STAGES)
_E5 = _weights(_E5_ENTRIES, _N_STAGES + 1)
_E3 = _weights(_A_ENTRIES[_N_STAGES], _N_STAGES + 1) - _weights(_E3_LESS, _N_STAGES + 1)
# The nodes of the evaluations of one step attempt (stages 1-11 and its end),
# for ``fun.prefetch``.
_NODES = np.array([c for c, _ in _STAGES] + [1.0])


@dataclass
class Solution:
    """What ``solve_ivp`` returns: the time ``t`` it reached and the state
    ``y`` there, the right-hand-side evaluation count ``nfev``, ``success``
    and ``message``.  No step in between is kept."""

    t: float
    y: np.ndarray
    nfev: int
    success: bool
    message: str


def _norm2(z: np.ndarray):
    """np.linalg.norm(z) ** 2 of a complex vector z, by numpy's own arithmetic without its dispatch."""
    r, i = z.real, z.imag
    return np.sqrt(r.dot(r) + i.dot(i)) ** 2


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size**0.5


def _steering(x: np.ndarray, free) -> np.ndarray:
    """x, a complex array of scaled components, with the real components ``free`` set to 0 in place."""
    if free is not None:
        x.view(float)[free] = 0.0
    return x


def _initial_step(fun, t0, y0, t1, f0, f1, rtol, atol, free):
    """The first step size of a solve from (t0, y0) with derivative f0 (Hairer et al., Sec. II.4).

    Evaluates the right-hand side once more, into ``f1``.  The real
    components ``free`` (None for none) count as 0 in every norm.
    """
    interval = t1 - t0
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(_steering(y0 / scale, free))
    d1 = _rms(_steering(f0 / scale, free))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    fun(t0 + h0, y0 + h0 * f0, f1)
    d2 = _rms(_steering((f1 - f0) / scale, free)) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval)


# A state that turns non-finite makes the error norm NaN, and every step
# across it is rejected until the solve stops at the minimum step with its
# own message; numpy's warning about the NaN would only repeat that.
@np.errstate(invalid="ignore")
def solve_ivp(fun, t_span, y0, rtol, atol) -> Solution:
    """Solve y' = fun(t, y) for a complex y over t_span = (t0, t1), t0 < t1, with the DOP853 pair.

    ``fun(t, y, out)`` writes the derivative at (t, y) into ``out``, an array
    like y: each stage is one call that fills its own row of the stage
    array, with no copy.  When ``fun`` has a ``prefetch`` attribute, each
    step attempt first calls ``fun.prefetch(times)`` with the array of the
    times at which it will call ``fun`` (stages 1-11 and the step's end):
    the very doubles those calls pass as t, so that ``fun`` can read what
    depends only on t once per step attempt.  When ``fun`` has a ``free``
    attribute, an index array into the real view ``y.view(float)``, those
    components are free: they are integrated like the others, but count as
    0 in the norms of the initial step and of the error estimates (whose
    length, the divisor of the RMS, stays that of y), so they never steer
    the step and their own error is not controlled: CVODES' quadrature
    variables without ``errconQ``.  That is sound only for a component
    that no derivative reads, whose error the answer cancels, and that
    turns non-finite only with a component that steers, which then stops
    the solve (see ``dynamics._propagator_rhs``).  Without ``free``, the
    arithmetic is that of scipy 1.17's ``solve_ivp(method="DOP853")``,
    operation for operation (initial step, stages, error norm, step
    control, minimum step of 10 ulps), so the results are the same
    doubles; scipy is not imported.
    The solve fails (``success`` False, ``message`` says why, and ``t``
    and ``y`` are the last time and state reached) when the first
    derivative is not finite, where the step control would never end; when
    a step would be shorter than 10 ulps of t; and once it has made more
    than ``MAX_RHS_EVALS`` right-hand-side evaluations.  An rtol below
    ``RTOL_FLOOR`` raises ValueError.
    """
    t0, t1 = map(float, t_span)
    if not t0 < t1:
        raise ValueError(f"solve_ivp needs t0 < t1, got ({t0!r}, {t1!r})")
    if rtol < RTOL_FLOOR:
        raise ValueError(f"rtol {rtol:g} is below the floor {RTOL_FLOOR:g}")
    y = np.asarray(y0, dtype=complex)
    prefetch = getattr(fun, "prefetch", None)
    free = getattr(fun, "free", None)
    # K[s] is stage s; K[12] is the derivative at the current point.
    K = np.empty((_N_STAGES + 1, y.size), dtype=complex)
    KT = [K[:s].T for s in range(_N_STAGES + 2)]
    t = t0
    fun(t, y, K[12])
    nfev = 1
    if not np.isfinite(K[12]).all():
        return Solution(t, y, nfev, False, "right-hand side is not finite")
    h_abs = _initial_step(fun, t, y, t1, K[12], K[1], rtol, atol, free)
    nfev += 1
    while t < t1:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        K[0] = K[12]
        rejected = False
        while True:
            if h_abs < min_step:
                return Solution(t, y, nfev, False, "Required step size is less than spacing between numbers.")
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = abs(h)
            if prefetch is not None:
                prefetch(t + _NODES * h)
            for s, (c, a) in enumerate(_STAGES, start=1):
                fun(t + c * h, y + np.dot(KT[s], a) * h, K[s])
            y_new = y + h * np.dot(KT[12], _B)
            fun(t + h, y_new, K[12])
            nfev += 12
            if nfev > MAX_RHS_EVALS:
                message = f"solve passed its budget of {MAX_RHS_EVALS} right-hand-side evaluations"
                return Solution(t, y, nfev, False, message)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = _steering(np.dot(KT[13], _E5) / scale, free)
            err3 = _steering(np.dot(KT[13], _E3) / scale, free)
            err5_2 = _norm2(err5)
            err3_2 = _norm2(err3)
            if err5_2 == 0 and err3_2 == 0:
                error_norm = 0.0
            else:
                error_norm = abs(h) * err5_2 / np.sqrt((err5_2 + 0.01 * err3_2) * len(scale))
            if error_norm < 1:
                factor = _MAX_FACTOR if error_norm == 0 else min(_MAX_FACTOR, _SAFETY * error_norm**_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_EXPONENT)
            rejected = True
        t, y = t_new, y_new
    return Solution(t, y, nfev, True, "The solver successfully reached the end of the integration interval.")
