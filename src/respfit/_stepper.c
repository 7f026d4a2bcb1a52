/* Compiled RK4 method-of-steps stepper (hot kernel), module respfit._stepper.
 *
 * integrate() is expression-for-expression identical to
 * _stepper_py.integrate (same operation order, same libm exp) so the two
 * backends produce bit-identical trajectories; see that module for the
 * contract. Node 0 holds the history's state x0, y0, whose ventilation is
 * the delayed one over the whole first delay interval, so that interval
 * evaluates no further exp. Build without FP contraction or -ffast-math
 * (see setup.py).
 *
 * The kernel allocates its outputs x, y, dx, dy as bytes objects of native
 * doubles, so it takes no buffer that would need checking, and returns them
 * only on success. The bound on n_steps keeps their size from overflowing.
 *
 * setup.py defines STEPPER_SOURCE_SHA256, the SHA-256 of this file, and the
 * module exposes it as SOURCE_SHA256, so a build can be checked against the
 * source it is meant to run.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#ifndef STEPPER_SOURCE_SHA256
#error "STEPPER_SOURCE_SHA256 is undefined; build with setup.py"
#endif

static PyObject *
integrate(PyObject *self, PyObject *args)
{
    double alpha, beta, vent_gain, vent_rate, vent_offset, h, x0, y0;
    Py_ssize_t n_steps, n_delay, i;
    PyObject *out[4] = {NULL, NULL, NULL, NULL};
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "ddddddnndd:integrate",
                          &alpha, &beta, &vent_gain, &vent_rate, &vent_offset,
                          &h, &n_steps, &n_delay, &x0, &y0))
        return NULL;
    /* Below this bound the arrays' byte size, 8 * (n_steps + 1), cannot
     * overflow. */
    if (n_steps < 0 || n_delay < 2 || n_steps >= PY_SSIZE_T_MAX / 8) {
        PyErr_SetString(PyExc_ValueError,
                        "n_steps must be a non-negative count "
                        "and n_delay at least 2");
        return NULL;
    }
    for (i = 0; i < 4; i++) {
        out[i] = PyBytes_FromStringAndSize(NULL, (n_steps + 1) * (Py_ssize_t)sizeof(double));
        if (out[i] == NULL)
            goto done;
    }

    double *x = (double *)PyBytes_AS_STRING(out[0]);
    double *y = (double *)PyBytes_AS_STRING(out[1]);
    double *dx = (double *)PyBytes_AS_STRING(out[2]);
    double *dy = (double *)PyBytes_AS_STRING(out[3]);

    Py_ssize_t k, i1;
    double xdm, ydm, xd4, yd4;
    double v0, vm, v4, av1, bv1, avm, bvm;
    double xk, yk, xn, yn;
    double k1x, k1y, k2x, k2y, k3x, k3y, k4x, k4y;
    double half_h = 0.5 * h;
    double h8 = 0.125 * h;
    double h6 = h / 6.0;
    double nr = -vent_rate;
    Py_ssize_t status = 0;

    /* The history's state x0, y0 is also node 0. Over the first delay
     * interval every delayed node and midpoint reads its ventilation. */
    x[0] = x0;
    y[0] = y0;
    v0 = vent_gain * exp(nr * (vent_offset - y[0])) * x[0];
    vm = v4 = v0;

    /* alpha and beta times the ventilation at the delayed node of step 0,
     * node -n_delay (history). Step k leaves those of its last stage, node
     * k + 1 - n_delay, in av1, bv1 for step k + 1. The midpoint of step k
     * reads dx[k + 1 - n_delay], which n_delay >= 2 puts before step k. */
    av1 = alpha * v0;
    bv1 = beta * v0;
    for (k = 0; k < n_steps; k++) {
        i1 = k - n_delay;
        if (i1 >= 0) {
            xd4 = x[i1 + 1];
            yd4 = y[i1 + 1];
            xdm = 0.5 * (x[i1] + xd4) + h8 * (dx[i1] - dx[i1 + 1]);
            ydm = 0.5 * (y[i1] + yd4) + h8 * (dy[i1] - dy[i1 + 1]);
            vm = vent_gain * exp(nr * (vent_offset - ydm)) * xdm;
            v4 = vent_gain * exp(nr * (vent_offset - yd4)) * xd4;
        }

        xk = x[k];
        yk = y[k];
        avm = alpha * vm;
        bvm = beta * vm;
        k1x = 1.0 - av1 * xk;
        k1y = 1.0 - bv1 * yk;
        k2x = 1.0 - avm * (xk + half_h * k1x);
        k2y = 1.0 - bvm * (yk + half_h * k1y);
        k3x = 1.0 - avm * (xk + half_h * k2x);
        k3y = 1.0 - bvm * (yk + half_h * k2y);
        av1 = alpha * v4;
        bv1 = beta * v4;
        k4x = 1.0 - av1 * (xk + h * k3x);
        k4y = 1.0 - bv1 * (yk + h * k3y);
        dx[k] = k1x;
        dy[k] = k1y;
        xn = xk + h6 * (k1x + 2.0 * (k2x + k3x) + k4x);
        yn = yk + h6 * (k1y + 2.0 * (k2y + k3y) + k4y);
        if (!(isfinite(xn) && isfinite(yn))) {
            status = k + 1;
            break;
        }
        x[k + 1] = xn;
        y[k + 1] = yn;
    }

    if (status == 0) {
        dx[n_steps] = 1.0 - av1 * x[n_steps];
        dy[n_steps] = 1.0 - bv1 * y[n_steps];
        result = Py_BuildValue("nOOOO", status, out[0], out[1], out[2], out[3]);
    }
    else
        result = Py_BuildValue("(n)", status);
done:
    for (i = 0; i < 4; i++)
        Py_XDECREF(out[i]);
    return result;
}

static PyMethodDef stepper_methods[] = {
    {"integrate", integrate, METH_VARARGS,
     "integrate(alpha, beta, vent_gain, vent_rate, vent_offset, h, n_steps,\n"
     "          n_delay, x0, y0, /)\n"
     "--\n\n"
     "Advance the delayed two-gas system over n_steps RK4 nodes of spacing h\n"
     "from the history's state x0, y0, which is also the state at t0.\n"
     "Returns (0, x, y, dx, dy), each array a bytes object of the n_steps + 1\n"
     "node doubles, or after a blow-up (status,), the 1-based index of the\n"
     "first non-finite node."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef stepper_module = {
    PyModuleDef_HEAD_INIT, "_stepper",
    "Compiled RK4 method-of-steps stepper.", -1, stepper_methods,
};

PyMODINIT_FUNC
PyInit__stepper(void)
{
    PyObject *m = PyModule_Create(&stepper_module);

    if (m != NULL &&
        PyModule_AddStringConstant(m, "SOURCE_SHA256", STEPPER_SOURCE_SHA256) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
