/* Compiled RK4 method-of-steps stepper (hot kernel), module respfit._stepper.
 *
 * integrate() is expression-for-expression identical to
 * _stepper_py.integrate (same operation order, same libm exp) so the two
 * backends produce bit-identical trajectories; see that module for the
 * contract. x[0], y[0] hold the history's state, whose ventilation is the
 * delayed one over the whole first delay interval, so that interval
 * evaluates no further exp. Build without FP contraction or -ffast-math
 * (see setup.py).
 *
 * The four arrays x, y, dx, dy arrive through the buffer protocol. Each is
 * checked for dtype, contiguity, writability and length before the loop
 * touches it, so a bad argument raises ValueError instead of reading or
 * writing out of bounds.
 *
 * setup.py defines STEPPER_SOURCE_SHA256, the SHA-256 of this file, and the
 * module exposes it as SOURCE_SHA256, so a build can be checked against the
 * source it is meant to run.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

#ifndef STEPPER_SOURCE_SHA256
#error "STEPPER_SOURCE_SHA256 is undefined; build with setup.py"
#endif

#define N_ARRAYS 4

static const char *const array_names[N_ARRAYS] = {"x", "y", "dx", "dy"};

/* Acquire a writable 1-d C-contiguous float64 buffer of at least min_len
 * elements. */
static int
get_array(PyObject *obj, const char *name, Py_ssize_t min_len, Py_buffer *view)
{
    int flags = PyBUF_FORMAT | PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE;

    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->ndim != 1 || view->itemsize != sizeof(double) ||
        view->format == NULL || strcmp(view->format, "d") != 0) {
        PyErr_Format(PyExc_ValueError,
                     "%s must be a 1-d C-contiguous float64 array", name);
        PyBuffer_Release(view);
        return -1;
    }
    if (view->shape[0] < min_len) {
        PyErr_Format(PyExc_ValueError,
                     "%s has %zd elements, needs at least %zd",
                     name, view->shape[0], min_len);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static PyObject *
integrate(PyObject *self, PyObject *args)
{
    double alpha, beta, vent_gain, vent_rate, vent_offset, h;
    Py_ssize_t n_steps, n_delay;
    PyObject *objs[N_ARRAYS];
    Py_buffer views[N_ARRAYS];
    PyObject *result = NULL;
    int held = 0;

    if (!PyArg_ParseTuple(args, "ddddddnnOOOO:integrate",
                          &alpha, &beta, &vent_gain, &vent_rate, &vent_offset,
                          &h, &n_steps, &n_delay, &objs[0], &objs[1],
                          &objs[2], &objs[3]))
        return NULL;
    /* No float64 buffer holds more than PY_SSIZE_T_MAX / 8 elements, so this
     * bound also keeps the +1 length below from overflowing. */
    if (n_steps < 0 || n_delay < 2 || n_steps > PY_SSIZE_T_MAX / 8) {
        PyErr_SetString(PyExc_ValueError,
                        "n_steps must be a non-negative count "
                        "and n_delay at least 2");
        return NULL;
    }
    for (; held < N_ARRAYS; held++) {
        if (get_array(objs[held], array_names[held], n_steps + 1,
                      &views[held]) < 0)
            goto done;
    }

    double *x = views[0].buf, *y = views[1].buf;
    double *dx = views[2].buf, *dy = views[3].buf;

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

    /* The ventilation of the history's state x[0], y[0]: over the first
     * delay interval every delayed node and midpoint reads it. */
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
    }

    result = PyLong_FromSsize_t(status);
done:
    while (held > 0)
        PyBuffer_Release(&views[--held]);
    return result;
}

static PyMethodDef stepper_methods[] = {
    {"integrate", integrate, METH_VARARGS,
     "integrate(alpha, beta, vent_gain, vent_rate, vent_offset, h, n_steps,\n"
     "          n_delay, x, y, dx, dy, /)\n"
     "--\n\n"
     "Advance the delayed two-gas system over n_steps RK4 nodes of spacing h.\n"
     "x[0], y[0] hold the history's state, which is also the state at t0.\n"
     "Returns 0 on success, or the 1-based index of the first non-finite node."},
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
