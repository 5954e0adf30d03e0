/* _simcore: C accelerator for the DES kernel (Event + Engine).
 *
 * Drop-in replacements for repro.sim.events.Event and
 * repro.sim.engine.Engine, swapped in by those modules when
 * COMB_COMPILED=1 (see repro.compiled).  The contract is *bit identity*:
 * the heap is ordered by exactly the same (when, priority, seq) key the
 * pure-Python tuples produce, each entry carries the same (fn, arg) pair
 * (fn NULL for an Event entry, whose event rides in arg; otherwise a
 * continuation dispatched as fn(arg) with no Event), float arithmetic is
 * limited to the same `now + delay` additions CPython performs (IEEE-754
 * double either way),
 * and every observable side effect (callback order, trace hooks, error
 * messages, events_processed accounting) mirrors the Python source
 * line for line.  All model code stays in Python; only the per-event
 * constant cost (heap tuples, rich comparisons, attribute juggling)
 * moves to C.
 *
 * The Python modules stay the reference implementation — when editing
 * engine.py/events.py, port the change here (test_sim_step_parity and
 * the golden matrix enforce agreement).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h> /* PyMemberDef T_* flags (pre-3.12 spelling) */
#include <math.h>

/* ------------------------------------------------------------------ glue */
/* Python-side classes and singletons, handed over by _install() from
 * repro.sim.events / repro.sim.engine after they finish defining them. */
static PyObject *g_SimulationError;
static PyObject *g_EmptySchedule;
static PyObject *g_Timeout;
static PyObject *g_Process;
static PyObject *g_AllOf;
static PyObject *g_AnyOf;
static PyObject *g_PENDING;

static PyObject *s_record_kernel; /* interned method names */
static PyObject *s_record;
static PyObject *s_engine_src;    /* "engine" */
static PyObject *s_schedule_past; /* "schedule_past" */

static PyTypeObject SimEventType;
static PyTypeObject SimEngineType;

/* Minimal vectorcall argument binder for METH_FASTCALL|METH_KEYWORDS
 * methods: binds positionals then keywords against `names` (NULL-padded
 * borrowed refs into `out`), enforcing `required` leading arguments.
 * The hot call sites pass positionally and never touch the keyword
 * loop. */
static int
bind_fast(PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames,
          const char *const *names, Py_ssize_t nnames, Py_ssize_t required,
          const char *fname, PyObject **out)
{
    if (nargs > nnames) {
        PyErr_Format(PyExc_TypeError,
                     "%s() takes at most %zd arguments (%zd given)",
                     fname, nnames, nargs);
        return -1;
    }
    for (Py_ssize_t i = 0; i < nnames; i++)
        out[i] = i < nargs ? args[i] : NULL;
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t k = 0; k < nkw; k++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, k);
            Py_ssize_t i;
            for (i = 0; i < nnames; i++) {
                if (PyUnicode_CompareWithASCIIString(name, names[i]) == 0)
                    break;
            }
            if (i == nnames) {
                PyErr_Format(PyExc_TypeError,
                             "%s() got an unexpected keyword argument %R",
                             fname, name);
                return -1;
            }
            if (out[i] != NULL) {
                PyErr_Format(PyExc_TypeError,
                             "%s() got multiple values for argument '%s'",
                             fname, names[i]);
                return -1;
            }
            out[i] = args[nargs + k];
        }
    }
    for (Py_ssize_t i = 0; i < required; i++) {
        if (out[i] == NULL) {
            PyErr_Format(PyExc_TypeError,
                         "%s() missing required argument '%s'",
                         fname, names[i]);
            return -1;
        }
    }
    return 0;
}

/* ----------------------------------------------------------------- Event */

typedef struct {
    PyObject_HEAD
    PyObject *engine;    /* owning Engine (any object accepted) */
    PyObject *callbacks; /* list, or None once processed */
    PyObject *value;     /* NULL = pending (Python: _PENDING sentinel) */
    char ok;             /* -1 = None, 0 = False, 1 = True */
    char processed;
    char defused;
} SimEvent;

typedef struct {
    double when;
    int prio;
    unsigned long long seq;
    PyObject *fn;  /* strong reference; NULL for an Event entry */
    PyObject *arg; /* strong reference: the Event, or fn's argument */
} HeapEntry;

typedef struct {
    PyObject_HEAD
    double now;
    unsigned long long seq;
    Py_ssize_t events_processed;
    PyObject *trace;          /* None or a tracer */
    PyObject *active_process; /* None or the Process being resumed */
    HeapEntry *heap;
    Py_ssize_t heap_len;
    Py_ssize_t heap_cap;
} SimEngine;

static int
SimEvent_init(SimEvent *self, PyObject *args, PyObject *kwds)
{
    PyObject *engine;
    static char *kwlist[] = {"engine", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O", kwlist, &engine))
        return -1;
    PyObject *cbs = PyList_New(0);
    if (cbs == NULL)
        return -1;
    Py_INCREF(engine);
    Py_XSETREF(self->engine, engine);
    Py_XSETREF(self->callbacks, cbs);
    Py_CLEAR(self->value);
    self->ok = -1;
    self->processed = 0;
    self->defused = 0;
    return 0;
}

static int
SimEvent_traverse(SimEvent *self, visitproc visit, void *arg)
{
    Py_VISIT(self->engine);
    Py_VISIT(self->callbacks);
    Py_VISIT(self->value);
    return 0;
}

static int
SimEvent_clear(SimEvent *self)
{
    Py_CLEAR(self->engine);
    Py_CLEAR(self->callbacks);
    Py_CLEAR(self->value);
    return 0;
}

static void
SimEvent_dealloc(SimEvent *self)
{
    PyObject_GC_UnTrack(self);
    SimEvent_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Core enqueue: push (when, prio, seq, fn, arg) onto the engine's heap
 * (fn NULL for an Event entry). */
static int
engine_push(SimEngine *e, PyObject *fn, PyObject *arg, int prio, double when)
{
    if (e->heap_len == e->heap_cap) {
        Py_ssize_t cap = e->heap_cap ? e->heap_cap * 2 : 64;
        HeapEntry *heap = PyMem_Realloc(e->heap, cap * sizeof(HeapEntry));
        if (heap == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        e->heap = heap;
        e->heap_cap = cap;
    }
    unsigned long long seq = e->seq++;
    /* Sift up from the end — identical order to heapq on (when, prio,
     * seq, fn, arg) tuples: fn and arg are never compared because seq is
     * unique. */
    Py_ssize_t pos = e->heap_len++;
    HeapEntry *heap = e->heap;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        HeapEntry *p = &heap[parent];
        int lt = (when < p->when) ||
                 (when == p->when &&
                  (prio < p->prio || (prio == p->prio && seq < p->seq)));
        if (!lt)
            break;
        heap[pos] = *p;
        pos = parent;
    }
    Py_XINCREF(fn);
    Py_INCREF(arg);
    heap[pos].when = when;
    heap[pos].prio = prio;
    heap[pos].seq = seq;
    heap[pos].fn = fn;
    heap[pos].arg = arg;
    return 0;
}

static inline int
entry_lt(const HeapEntry *a, const HeapEntry *b)
{
    if (a->when != b->when)
        return a->when < b->when;
    if (a->prio != b->prio)
        return a->prio < b->prio;
    return a->seq < b->seq;
}

/* Pop the root into *out (ownership of out->fn/arg transfers to caller). */
static void
engine_pop(SimEngine *e, HeapEntry *out)
{
    HeapEntry *heap = e->heap;
    *out = heap[0];
    Py_ssize_t n = --e->heap_len;
    if (n == 0)
        return;
    HeapEntry last = heap[n];
    Py_ssize_t pos = 0, child;
    while ((child = 2 * pos + 1) < n) {
        if (child + 1 < n && entry_lt(&heap[child + 1], &heap[child]))
            child += 1;
        if (!entry_lt(&heap[child], &last))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = last;
}

/* Enqueue helper used from Event methods: direct C call when the engine
 * is a SimEngine, generic method call otherwise. */
static int
event_enqueue(SimEvent *self, int priority)
{
    PyObject *engine = self->engine;
    if (engine != NULL && Py_TYPE(engine) == &SimEngineType) {
        SimEngine *e = (SimEngine *)engine;
        return engine_push(e, NULL, (PyObject *)self, priority, e->now);
    }
    PyObject *res = PyObject_CallMethod(engine, "_enqueue", "Oi",
                                        (PyObject *)self, priority);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

static PyObject *
SimEvent_succeed(SimEvent *self, PyObject *const *args, Py_ssize_t nargs,
                 PyObject *kwnames)
{
    static const char *const names[] = {"value", "priority"};
    PyObject *bound[2];
    if (bind_fast(args, nargs, kwnames, names, 2, 0, "succeed", bound) < 0)
        return NULL;
    PyObject *value = bound[0] ? bound[0] : Py_None;
    int priority = 1;
    if (bound[1] != NULL) {
        priority = (int)PyLong_AsLong(bound[1]);
        if (priority == -1 && PyErr_Occurred())
            return NULL;
    }
    if (self->value != NULL) {
        PyErr_Format(g_SimulationError, "%R has already been triggered",
                     (PyObject *)self);
        return NULL;
    }
    self->ok = 1;
    Py_INCREF(value);
    self->value = value;
    if (event_enqueue(self, priority) < 0)
        return NULL;
    Py_INCREF(self);
    return (PyObject *)self;
}

static PyObject *
SimEvent_fail(SimEvent *self, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    static const char *const names[] = {"exception", "priority"};
    PyObject *bound[2];
    if (bind_fast(args, nargs, kwnames, names, 2, 1, "fail", bound) < 0)
        return NULL;
    PyObject *exception = bound[0];
    int priority = 1;
    if (bound[1] != NULL) {
        priority = (int)PyLong_AsLong(bound[1]);
        if (priority == -1 && PyErr_Occurred())
            return NULL;
    }
    if (self->value != NULL) {
        PyErr_Format(g_SimulationError, "%R has already been triggered",
                     (PyObject *)self);
        return NULL;
    }
    if (!PyObject_IsInstance(exception, PyExc_BaseException)) {
        PyErr_Format(PyExc_TypeError, "fail() needs an exception, got %R",
                     exception);
        return NULL;
    }
    self->ok = 0;
    Py_INCREF(exception);
    self->value = exception;
    if (event_enqueue(self, priority) < 0)
        return NULL;
    Py_INCREF(self);
    return (PyObject *)self;
}

static PyObject *
SimEvent_trigger(SimEvent *self, PyObject *other)
{
    if (Py_TYPE(other) != &SimEventType &&
        !PyObject_TypeCheck(other, &SimEventType)) {
        PyErr_SetString(PyExc_TypeError, "trigger() needs an Event");
        return NULL;
    }
    SimEvent *ev = (SimEvent *)other;
    PyObject *res;
    if (ev->ok == 1)
        res = PyObject_CallMethod((PyObject *)self, "succeed", "O",
                                  ev->value ? ev->value : Py_None);
    else
        res = PyObject_CallMethod((PyObject *)self, "fail", "O",
                                  ev->value ? ev->value : Py_None);
    if (res == NULL)
        return NULL;
    Py_DECREF(res);
    Py_RETURN_NONE;
}

static PyObject *
SimEvent_defuse(SimEvent *self, PyObject *Py_UNUSED(ignored))
{
    self->defused = 1;
    Py_RETURN_NONE;
}

static PyObject *
SimEvent_and(PyObject *self, PyObject *other)
{
    if (!PyObject_TypeCheck(self, &SimEventType) ||
        !PyObject_TypeCheck(other, &SimEventType))
        Py_RETURN_NOTIMPLEMENTED;
    PyObject *pair = PyList_New(2);
    if (pair == NULL)
        return NULL;
    Py_INCREF(self);
    Py_INCREF(other);
    PyList_SET_ITEM(pair, 0, self);
    PyList_SET_ITEM(pair, 1, other);
    PyObject *res = PyObject_CallFunctionObjArgs(
        g_AllOf, ((SimEvent *)self)->engine, pair, NULL);
    Py_DECREF(pair);
    return res;
}

static PyObject *
SimEvent_or(PyObject *self, PyObject *other)
{
    if (!PyObject_TypeCheck(self, &SimEventType) ||
        !PyObject_TypeCheck(other, &SimEventType))
        Py_RETURN_NOTIMPLEMENTED;
    PyObject *pair = PyList_New(2);
    if (pair == NULL)
        return NULL;
    Py_INCREF(self);
    Py_INCREF(other);
    PyList_SET_ITEM(pair, 0, self);
    PyList_SET_ITEM(pair, 1, other);
    PyObject *res = PyObject_CallFunctionObjArgs(
        g_AnyOf, ((SimEvent *)self)->engine, pair, NULL);
    Py_DECREF(pair);
    return res;
}

static PyObject *
SimEvent_repr(SimEvent *self)
{
    const char *state = self->processed ? "processed"
                        : (self->value != NULL ? "triggered" : "pending");
    return PyUnicode_FromFormat("<%s %s at %p>",
                                Py_TYPE(self)->tp_name, state, self);
}

/* -- getsets: raw underscore attributes mirror the Python slots -------- */

static PyObject *
SimEvent_get_value_raw(SimEvent *self, void *closure)
{
    PyObject *v = self->value ? self->value : g_PENDING;
    Py_INCREF(v);
    return v;
}

static int
SimEvent_set_value_raw(SimEvent *self, PyObject *v, void *closure)
{
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete _value");
        return -1;
    }
    Py_INCREF(v);
    Py_XSETREF(self->value, v == g_PENDING ? (Py_DECREF(v), NULL) : v);
    return 0;
}

static PyObject *
SimEvent_get_ok_raw(SimEvent *self, void *closure)
{
    if (self->ok < 0)
        Py_RETURN_NONE;
    return PyBool_FromLong(self->ok);
}

static int
SimEvent_set_ok_raw(SimEvent *self, PyObject *v, void *closure)
{
    if (v == NULL || v == Py_None) {
        self->ok = -1;
        return 0;
    }
    int truth = PyObject_IsTrue(v);
    if (truth < 0)
        return -1;
    self->ok = (char)truth;
    return 0;
}

static PyObject *
SimEvent_get_processed_raw(SimEvent *self, void *closure)
{
    return PyBool_FromLong(self->processed);
}

static int
SimEvent_set_processed_raw(SimEvent *self, PyObject *v, void *closure)
{
    int truth = v == NULL ? 0 : PyObject_IsTrue(v);
    if (truth < 0)
        return -1;
    self->processed = (char)truth;
    return 0;
}

static PyObject *
SimEvent_get_defused_raw(SimEvent *self, void *closure)
{
    return PyBool_FromLong(self->defused);
}

static int
SimEvent_set_defused_raw(SimEvent *self, PyObject *v, void *closure)
{
    int truth = v == NULL ? 0 : PyObject_IsTrue(v);
    if (truth < 0)
        return -1;
    self->defused = (char)truth;
    return 0;
}

/* -- public properties ------------------------------------------------- */

static PyObject *
SimEvent_get_triggered(SimEvent *self, void *closure)
{
    return PyBool_FromLong(self->value != NULL);
}

static PyObject *
SimEvent_get_processed(SimEvent *self, void *closure)
{
    return PyBool_FromLong(self->processed);
}

static PyObject *
SimEvent_get_ok(SimEvent *self, void *closure)
{
    if (self->ok < 0)
        Py_RETURN_NONE;
    return PyBool_FromLong(self->ok);
}

static PyObject *
SimEvent_get_value(SimEvent *self, void *closure)
{
    if (self->value == NULL) {
        PyErr_Format(g_SimulationError, "value of %R is not yet available",
                     (PyObject *)self);
        return NULL;
    }
    Py_INCREF(self->value);
    return self->value;
}

static PyGetSetDef SimEvent_getset[] = {
    {"_value", (getter)SimEvent_get_value_raw,
     (setter)SimEvent_set_value_raw, NULL, NULL},
    {"_ok", (getter)SimEvent_get_ok_raw, (setter)SimEvent_set_ok_raw,
     NULL, NULL},
    {"_processed", (getter)SimEvent_get_processed_raw,
     (setter)SimEvent_set_processed_raw, NULL, NULL},
    {"_defused", (getter)SimEvent_get_defused_raw,
     (setter)SimEvent_set_defused_raw, NULL, NULL},
    {"triggered", (getter)SimEvent_get_triggered, NULL,
     PyDoc_STR("True once succeed() or fail() has been called."), NULL},
    {"processed", (getter)SimEvent_get_processed, NULL,
     PyDoc_STR("True once callbacks have run."), NULL},
    {"ok", (getter)SimEvent_get_ok, NULL,
     PyDoc_STR("True/False after success/failure, None while pending."),
     NULL},
    {"value", (getter)SimEvent_get_value, NULL,
     PyDoc_STR("Payload (or exception); an error while pending."), NULL},
    {NULL},
};

static PyMemberDef SimEvent_members[] = {
    {"engine", T_OBJECT, offsetof(SimEvent, engine), READONLY, NULL},
    {"callbacks", T_OBJECT, offsetof(SimEvent, callbacks), 0, NULL},
    {NULL},
};

static PyMethodDef SimEvent_methods[] = {
    {"succeed", (PyCFunction)(void (*)(void))SimEvent_succeed,
     METH_FASTCALL | METH_KEYWORDS,
     PyDoc_STR("Mark the event successful and enqueue it now.")},
    {"fail", (PyCFunction)(void (*)(void))SimEvent_fail,
     METH_FASTCALL | METH_KEYWORDS,
     PyDoc_STR("Mark the event failed and enqueue it now.")},
    {"trigger", (PyCFunction)SimEvent_trigger, METH_O,
     PyDoc_STR("Trigger this event with the state of another event.")},
    {"defuse", (PyCFunction)SimEvent_defuse, METH_NOARGS,
     PyDoc_STR("Prevent an unhandled failure from crashing the run.")},
    {NULL},
};

static PyNumberMethods SimEvent_as_number = {
    .nb_and = SimEvent_and,
    .nb_or = SimEvent_or,
};

static PyTypeObject SimEventType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "Event",
    .tp_basicsize = sizeof(SimEvent),
    .tp_dealloc = (destructor)SimEvent_dealloc,
    .tp_repr = (reprfunc)SimEvent_repr,
    .tp_as_number = &SimEvent_as_number,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE |
                Py_TPFLAGS_HAVE_GC,
    .tp_doc = PyDoc_STR("A one-shot occurrence on the simulation timeline "
                        "(C-accelerated)."),
    .tp_traverse = (traverseproc)SimEvent_traverse,
    .tp_clear = (inquiry)SimEvent_clear,
    .tp_methods = SimEvent_methods,
    .tp_members = SimEvent_members,
    .tp_getset = SimEvent_getset,
    .tp_init = (initproc)SimEvent_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------ Call0 (wrapper) */
/* schedule_callback's `lambda _e: fn()` as a tiny callable object. */

typedef struct {
    PyObject_HEAD
    PyObject *fn;
} Call0;

static void
Call0_dealloc(Call0 *self)
{
    PyObject_GC_UnTrack(self);
    Py_CLEAR(self->fn);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
Call0_traverse(Call0 *self, visitproc visit, void *arg)
{
    Py_VISIT(self->fn);
    return 0;
}

static int
Call0_clear(Call0 *self)
{
    Py_CLEAR(self->fn);
    return 0;
}

static PyObject *
Call0_call(Call0 *self, PyObject *args, PyObject *kwds)
{
    return PyObject_CallNoArgs(self->fn);
}

static PyTypeObject Call0Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_simcore._call0",
    .tp_basicsize = sizeof(Call0),
    .tp_dealloc = (destructor)Call0_dealloc,
    .tp_call = (ternaryfunc)Call0_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)Call0_traverse,
    .tp_clear = (inquiry)Call0_clear,
};

/* ---------------------------------------------------------------- Engine */

static int
SimEngine_init(SimEngine *self, PyObject *args, PyObject *kwds)
{
    PyObject *start_time = NULL;
    PyObject *trace = Py_None;
    static char *kwlist[] = {"start_time", "trace", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|OO", kwlist,
                                     &start_time, &trace))
        return -1;
    double now = 0.0;
    if (start_time != NULL) {
        now = PyFloat_AsDouble(start_time);
        if (now == -1.0 && PyErr_Occurred())
            return -1;
    }
    self->now = now;
    self->seq = 0;
    self->events_processed = 0;
    Py_INCREF(trace);
    Py_XSETREF(self->trace, trace);
    Py_INCREF(Py_None);
    Py_XSETREF(self->active_process, Py_None);
    /* Re-init (unlikely): drop any queued events. */
    for (Py_ssize_t i = 0; i < self->heap_len; i++) {
        Py_CLEAR(self->heap[i].fn);
        Py_CLEAR(self->heap[i].arg);
    }
    self->heap_len = 0;
    return 0;
}

static int
SimEngine_traverse(SimEngine *self, visitproc visit, void *arg)
{
    Py_VISIT(self->trace);
    Py_VISIT(self->active_process);
    for (Py_ssize_t i = 0; i < self->heap_len; i++) {
        Py_VISIT(self->heap[i].fn);
        Py_VISIT(self->heap[i].arg);
    }
    return 0;
}

static int
SimEngine_clear(SimEngine *self)
{
    Py_CLEAR(self->trace);
    Py_CLEAR(self->active_process);
    for (Py_ssize_t i = 0; i < self->heap_len; i++) {
        Py_CLEAR(self->heap[i].fn);
        Py_CLEAR(self->heap[i].arg);
    }
    self->heap_len = 0;
    return 0;
}

static void
SimEngine_dealloc(SimEngine *self)
{
    PyObject_GC_UnTrack(self);
    SimEngine_clear(self);
    PyMem_Free(self->heap);
    self->heap = NULL;
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
SimEngine_event(SimEngine *self, PyObject *Py_UNUSED(ignored))
{
    SimEvent *ev = (SimEvent *)SimEventType.tp_alloc(&SimEventType, 0);
    if (ev == NULL)
        return NULL;
    ev->callbacks = PyList_New(0);
    if (ev->callbacks == NULL) {
        Py_DECREF(ev);
        return NULL;
    }
    Py_INCREF(self);
    ev->engine = (PyObject *)self;
    ev->value = NULL;
    ev->ok = -1;
    ev->processed = 0;
    ev->defused = 0;
    return (PyObject *)ev;
}

static PyObject *
SimEngine_timeout(SimEngine *self, PyObject *const *args, Py_ssize_t nargs,
                  PyObject *kwnames)
{
    static const char *const names[] = {"delay_s", "value"};
    PyObject *bound[2];
    if (bind_fast(args, nargs, kwnames, names, 2, 1, "timeout", bound) < 0)
        return NULL;
    return PyObject_CallFunctionObjArgs(
        g_Timeout, (PyObject *)self, bound[0],
        bound[1] ? bound[1] : Py_None, NULL);
}

static PyObject *
SimEngine_spawn(SimEngine *self, PyObject *const *args, Py_ssize_t nargs,
                PyObject *kwnames)
{
    static const char *const names[] = {"generator", "name"};
    PyObject *bound[2];
    if (bind_fast(args, nargs, kwnames, names, 2, 1, "spawn", bound) < 0)
        return NULL;
    if (bound[1] == NULL)
        return PyObject_CallFunctionObjArgs(g_Process, (PyObject *)self,
                                            bound[0], NULL);
    return PyObject_CallFunctionObjArgs(g_Process, (PyObject *)self,
                                        bound[0], bound[1], NULL);
}

static PyObject *
SimEngine_all_of(SimEngine *self, PyObject *events)
{
    return PyObject_CallFunctionObjArgs(g_AllOf, (PyObject *)self, events,
                                        NULL);
}

static PyObject *
SimEngine_any_of(SimEngine *self, PyObject *events)
{
    return PyObject_CallFunctionObjArgs(g_AnyOf, (PyObject *)self, events,
                                        NULL);
}

static PyObject *
SimEngine_schedule_callback(SimEngine *self, PyObject *const *args,
                            Py_ssize_t nargs, PyObject *kwnames)
{
    /* `priority` is accepted for signature parity; unused by the Python
     * source too. */
    static const char *const names[] = {"delay_s", "fn", "priority"};
    PyObject *bound[3];
    if (bind_fast(args, nargs, kwnames, names, 3, 2, "schedule_callback",
                  bound) < 0)
        return NULL;
    PyObject *fn = bound[1];
    PyObject *timeout = PyObject_CallFunctionObjArgs(
        g_Timeout, (PyObject *)self, bound[0], NULL);
    if (timeout == NULL)
        return NULL;
    Call0 *wrap = (Call0 *)Call0Type.tp_alloc(&Call0Type, 0);
    if (wrap == NULL) {
        Py_DECREF(timeout);
        return NULL;
    }
    Py_INCREF(fn);
    wrap->fn = fn;
    PyObject *cbs = PyObject_GetAttrString(timeout, "callbacks");
    int rc = cbs == NULL ? -1 : PyList_Append(cbs, (PyObject *)wrap);
    Py_XDECREF(cbs);
    Py_DECREF(wrap);
    if (rc < 0) {
        Py_DECREF(timeout);
        return NULL;
    }
    return timeout;
}

static PyObject *
SimEngine_enqueue(SimEngine *self, PyObject *const *args, Py_ssize_t nargs,
                  PyObject *kwnames)
{
    static const char *const names[] = {"event", "priority", "delay_s"};
    PyObject *bound[3];
    if (bind_fast(args, nargs, kwnames, names, 3, 2, "_enqueue", bound) < 0)
        return NULL;
    PyObject *event = bound[0];
    int priority = (int)PyLong_AsLong(bound[1]);
    if (priority == -1 && PyErr_Occurred())
        return NULL;
    double delay_s = 0.0;
    if (bound[2] != NULL) {
        delay_s = PyFloat_AsDouble(bound[2]);
        if (delay_s == -1.0 && PyErr_Occurred())
            return NULL;
    }
    if (!PyObject_TypeCheck(event, &SimEventType)) {
        PyErr_Format(PyExc_TypeError, "_enqueue() needs an Event, got %R",
                     event);
        return NULL;
    }
    if (delay_s < 0.0 && self->trace != NULL && self->trace != Py_None) {
        /* Scheduling in the past is a causality corruption the sanitizer
         * must see at the source (mirrors engine.py). */
        PyObject *now = PyFloat_FromDouble(self->now);
        PyObject *detail = Py_BuildValue("(d)", delay_s);
        PyObject *res = NULL;
        if (now != NULL && detail != NULL)
            res = PyObject_CallMethodObjArgs(self->trace, s_record, now,
                                             s_engine_src, s_schedule_past,
                                             detail, NULL);
        Py_XDECREF(now);
        Py_XDECREF(detail);
        if (res == NULL)
            return NULL;
        Py_DECREF(res);
    }
    if (engine_push(self, NULL, event, priority, self->now + delay_s) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* _call(fn, arg, delay_s=0.0, priority=1): push the continuation
 * fn(arg) with the key an Event enqueued here would take. */
static PyObject *
SimEngine_call(SimEngine *self, PyObject *const *args, Py_ssize_t nargs,
               PyObject *kwnames)
{
    static const char *const names[] = {"fn", "arg", "delay_s", "priority"};
    PyObject *bound[4];
    if (bind_fast(args, nargs, kwnames, names, 4, 2, "_call", bound) < 0)
        return NULL;
    double delay_s = 0.0;
    if (bound[2] != NULL) {
        delay_s = PyFloat_AsDouble(bound[2]);
        if (delay_s == -1.0 && PyErr_Occurred())
            return NULL;
    }
    int priority = 1;
    if (bound[3] != NULL) {
        priority = (int)PyLong_AsLong(bound[3]);
        if (priority == -1 && PyErr_Occurred())
            return NULL;
    }
    if (engine_push(self, bound[0], bound[1], priority,
                    self->now + delay_s) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* _call_at(fn, arg, when_s): the continuation at an absolute time. */
static PyObject *
SimEngine_call_at(SimEngine *self, PyObject *const *args, Py_ssize_t nargs,
                  PyObject *kwnames)
{
    static const char *const names[] = {"fn", "arg", "when_s"};
    PyObject *bound[3];
    if (bind_fast(args, nargs, kwnames, names, 3, 3, "_call_at", bound) < 0)
        return NULL;
    double when_s = PyFloat_AsDouble(bound[2]);
    if (when_s == -1.0 && PyErr_Occurred())
        return NULL;
    if (engine_push(self, bound[0], bound[1], 1, when_s) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
SimEngine_peek(SimEngine *self, PyObject *Py_UNUSED(ignored))
{
    return PyFloat_FromDouble(self->heap_len ? self->heap[0].when
                                             : Py_HUGE_VAL);
}

static PyObject *
SimEngine_fast_forward(SimEngine *self, PyObject *arg)
{
    double until_s = PyFloat_AsDouble(arg);
    if (until_s == -1.0 && PyErr_Occurred())
        return NULL;
    if (until_s <= self->now)
        Py_RETURN_FALSE;
    /* An event *at* until_s also forbids the jump (see engine.py). */
    if (self->heap_len && self->heap[0].when <= until_s)
        Py_RETURN_FALSE;
    self->now = until_s;
    Py_RETURN_TRUE;
}

/* Dispatch one popped event: callbacks, trace hook, failure propagation.
 * Mirrors the inlined loop body in engine.py run()/step().  Returns 0 on
 * success, -1 with an exception set. */
static int
dispatch_event(SimEngine *self, SimEvent *ev, double when)
{
    PyObject *cbs = ev->callbacks;
    Py_INCREF(Py_None);
    ev->callbacks = Py_None;
    ev->processed = 1;
    if (self->trace != NULL && self->trace != Py_None) {
        PyObject *w = PyFloat_FromDouble(when);
        if (w == NULL) {
            Py_XDECREF(cbs);
            return -1;
        }
        PyObject *res = PyObject_CallMethodObjArgs(
            self->trace, s_record_kernel, w, (PyObject *)ev, NULL);
        Py_DECREF(w);
        if (res == NULL) {
            Py_XDECREF(cbs);
            return -1;
        }
        Py_DECREF(res);
    }
    if (cbs != NULL && cbs != Py_None) {
        if (PyList_CheckExact(cbs)) {
            /* Live-length iteration, like a Python for loop over a list
             * (callbacks appended during dispatch still run). */
            for (Py_ssize_t i = 0; i < PyList_GET_SIZE(cbs); i++) {
                PyObject *cb = PyList_GET_ITEM(cbs, i);
                Py_INCREF(cb);
                PyObject *res = PyObject_CallOneArg(cb, (PyObject *)ev);
                Py_DECREF(cb);
                if (res == NULL) {
                    Py_DECREF(cbs);
                    return -1;
                }
                Py_DECREF(res);
            }
        }
        else {
            PyObject *it = PyObject_GetIter(cbs);
            if (it == NULL) {
                Py_DECREF(cbs);
                return -1;
            }
            PyObject *cb;
            while ((cb = PyIter_Next(it)) != NULL) {
                PyObject *res = PyObject_CallOneArg(cb, (PyObject *)ev);
                Py_DECREF(cb);
                if (res == NULL)
                    break;
                Py_DECREF(res);
            }
            Py_DECREF(it);
            if (PyErr_Occurred()) {
                Py_DECREF(cbs);
                return -1;
            }
        }
    }
    Py_XDECREF(cbs);
    if (ev->ok != 1 && !ev->defused) {
        PyObject *exc = ev->value ? ev->value : Py_None;
        PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
        return -1;
    }
    return 0;
}

/* Dispatch one popped heap entry and release it: a continuation runs
 * fn(arg) behind the same trace hook, an Event entry goes through
 * dispatch_event.  Returns 0 on success, -1 with an exception set. */
static int
dispatch_entry(SimEngine *self, HeapEntry *entry)
{
    int rc = 0;
    if (entry->fn != NULL) {
        if (self->trace != NULL && self->trace != Py_None) {
            PyObject *w = PyFloat_FromDouble(entry->when);
            PyObject *res = w == NULL ? NULL : PyObject_CallMethodObjArgs(
                self->trace, s_record_kernel, w, entry->fn, NULL);
            Py_XDECREF(w);
            if (res == NULL)
                rc = -1;
            Py_XDECREF(res);
        }
        if (rc == 0) {
            PyObject *res = PyObject_CallOneArg(entry->fn, entry->arg);
            if (res == NULL)
                rc = -1;
            Py_XDECREF(res);
        }
        Py_DECREF(entry->fn);
    }
    else {
        rc = dispatch_event(self, (SimEvent *)entry->arg, entry->when);
    }
    Py_DECREF(entry->arg);
    return rc;
}

static PyObject *
SimEngine_step(SimEngine *self, PyObject *Py_UNUSED(ignored))
{
    if (self->heap_len == 0) {
        PyErr_SetString(g_EmptySchedule, "no scheduled events remain");
        return NULL;
    }
    HeapEntry entry;
    engine_pop(self, &entry);
    if (entry.when < self->now) { /* defensive, mirrors engine.py */
        Py_XDECREF(entry.fn);
        Py_DECREF(entry.arg);
        PyErr_SetString(g_SimulationError, "event scheduled in the past");
        return NULL;
    }
    self->now = entry.when;
    self->events_processed += 1;
    if (dispatch_entry(self, &entry) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
SimEngine_run(SimEngine *self, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    static const char *const names[] = {"until"};
    PyObject *bound[1];
    if (bind_fast(args, nargs, kwnames, names, 1, 0, "run", bound) < 0)
        return NULL;
    PyObject *until = bound[0] ? bound[0] : Py_None;

    SimEvent *stop_event = NULL;
    double stop_at = Py_HUGE_VAL;
    if (until != Py_None) {
        if (PyObject_TypeCheck(until, &SimEventType)) {
            stop_event = (SimEvent *)until;
        }
        else {
            stop_at = PyFloat_AsDouble(until);
            if (stop_at == -1.0 && PyErr_Occurred())
                return NULL;
            if (stop_at < self->now) {
                PyObject *s = PyFloat_FromDouble(stop_at);
                PyObject *n = PyFloat_FromDouble(self->now);
                if (s != NULL && n != NULL)
                    PyErr_Format(g_SimulationError,
                                 "run(until=%S) is in the past (now=%S)",
                                 s, n);
                Py_XDECREF(s);
                Py_XDECREF(n);
                return NULL;
            }
        }
    }

    Py_ssize_t n_done = 0;
    PyObject *result = NULL;
    if (stop_event != NULL) {
        Py_INCREF(stop_event);
        while (!stop_event->processed) {
            if (self->heap_len == 0) {
                PyErr_SetString(
                    g_SimulationError,
                    "simulation ran out of events before the awaited "
                    "event fired (deadlock?)");
                goto done;
            }
            HeapEntry entry;
            engine_pop(self, &entry);
            self->now = entry.when;
            n_done += 1;
            if (dispatch_entry(self, &entry) < 0)
                goto done;
        }
        if (stop_event->ok == 1) {
            result = stop_event->value ? stop_event->value : Py_None;
            Py_INCREF(result);
        }
        else {
            PyObject *exc = stop_event->value ? stop_event->value : Py_None;
            PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
        }
    done:
        Py_DECREF(stop_event);
        self->events_processed += n_done;
        return result;
    }

    while (self->heap_len && self->heap[0].when <= stop_at) {
        HeapEntry entry;
        engine_pop(self, &entry);
        self->now = entry.when;
        n_done += 1;
        if (dispatch_entry(self, &entry) < 0) {
            self->events_processed += n_done;
            return NULL;
        }
    }
    self->events_processed += n_done;
    if (stop_at != Py_HUGE_VAL && stop_at > self->now)
        self->now = stop_at;
    Py_RETURN_NONE;
}

static PyObject *
SimEngine_repr(SimEngine *self)
{
    char buf[64];
    PyOS_snprintf(buf, sizeof(buf), "%.9f", self->now);
    return PyUnicode_FromFormat("<Engine t=%s pending=%zd>", buf,
                                self->heap_len);
}

static PyObject *
SimEngine_get_now(SimEngine *self, void *closure)
{
    return PyFloat_FromDouble(self->now);
}

static PyObject *
SimEngine_get_active_process(SimEngine *self, void *closure)
{
    Py_INCREF(self->active_process);
    return self->active_process;
}

static int
SimEngine_set_active_process(SimEngine *self, PyObject *v, void *closure)
{
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete _active_process");
        return -1;
    }
    Py_INCREF(v);
    Py_XSETREF(self->active_process, v);
    return 0;
}

static PyObject *
SimEngine_get_queue(SimEngine *self, void *closure)
{
    /* Debug/test view: the heap as a list of (when, prio, seq, fn, arg)
     * tuples in heap-array order (root first, as heapq keeps it); fn is
     * None for an Event entry, exactly as engine.py stores it. */
    PyObject *out = PyList_New(self->heap_len);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < self->heap_len; i++) {
        HeapEntry *h = &self->heap[i];
        PyObject *t = Py_BuildValue("(diKOO)", h->when, h->prio, h->seq,
                                    h->fn ? h->fn : Py_None, h->arg);
        if (t == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, t);
    }
    return out;
}

static PyObject *
SimEngine_get_seq(SimEngine *self, void *closure)
{
    return PyLong_FromUnsignedLongLong(self->seq);
}

static PyGetSetDef SimEngine_getset[] = {
    {"now", (getter)SimEngine_get_now, NULL,
     PyDoc_STR("Current simulation time in seconds."), NULL},
    {"_now", (getter)SimEngine_get_now, NULL, NULL, NULL},
    {"active_process", (getter)SimEngine_get_active_process, NULL,
     PyDoc_STR("The process currently being resumed, if any."), NULL},
    {"_active_process", (getter)SimEngine_get_active_process,
     (setter)SimEngine_set_active_process, NULL, NULL},
    {"_queue", (getter)SimEngine_get_queue, NULL, NULL, NULL},
    {"_seq", (getter)SimEngine_get_seq, NULL, NULL, NULL},
    {NULL},
};

static PyMemberDef SimEngine_members[] = {
    {"trace", T_OBJECT, offsetof(SimEngine, trace), 0, NULL},
    {"events_processed", T_PYSSIZET, offsetof(SimEngine, events_processed),
     0, NULL},
    {NULL},
};

static PyMethodDef SimEngine_methods[] = {
    {"event", (PyCFunction)SimEngine_event, METH_NOARGS,
     PyDoc_STR("Create a fresh untriggered Event.")},
    {"timeout", (PyCFunction)(void (*)(void))SimEngine_timeout,
     METH_FASTCALL | METH_KEYWORDS,
     PyDoc_STR("Create an event firing delay_s seconds from now.")},
    {"spawn", (PyCFunction)(void (*)(void))SimEngine_spawn,
     METH_FASTCALL | METH_KEYWORDS,
     PyDoc_STR("Start a new Process running the generator.")},
    {"all_of", (PyCFunction)SimEngine_all_of, METH_O,
     PyDoc_STR("Composite event firing when all events have fired.")},
    {"any_of", (PyCFunction)SimEngine_any_of, METH_O,
     PyDoc_STR("Composite event firing when any event has fired.")},
    {"schedule_callback",
     (PyCFunction)(void (*)(void))SimEngine_schedule_callback,
     METH_FASTCALL | METH_KEYWORDS,
     PyDoc_STR("Run fn() after delay_s seconds; returns the event.")},
    {"_enqueue", (PyCFunction)(void (*)(void))SimEngine_enqueue,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {"_call", (PyCFunction)(void (*)(void))SimEngine_call,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {"_call_at", (PyCFunction)(void (*)(void))SimEngine_call_at,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {"peek", (PyCFunction)SimEngine_peek, METH_NOARGS,
     PyDoc_STR("Time of the next scheduled event, or INFINITY.")},
    {"fast_forward", (PyCFunction)SimEngine_fast_forward, METH_O,
     PyDoc_STR("Analytically advance the clock across a quiescent span.")},
    {"step", (PyCFunction)SimEngine_step, METH_NOARGS,
     PyDoc_STR("Process the single next event.")},
    {"run", (PyCFunction)(void (*)(void))SimEngine_run,
     METH_FASTCALL | METH_KEYWORDS,
     PyDoc_STR("Run the simulation (until=None | time | Event).")},
    {NULL},
};

static PyTypeObject SimEngineType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "Engine",
    .tp_basicsize = sizeof(SimEngine),
    .tp_dealloc = (destructor)SimEngine_dealloc,
    .tp_repr = (reprfunc)SimEngine_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE |
                Py_TPFLAGS_HAVE_GC,
    .tp_doc = PyDoc_STR("A deterministic discrete-event simulation engine "
                        "(C-accelerated)."),
    .tp_traverse = (traverseproc)SimEngine_traverse,
    .tp_clear = (inquiry)SimEngine_clear,
    .tp_methods = SimEngine_methods,
    .tp_members = SimEngine_members,
    .tp_getset = SimEngine_getset,
    .tp_init = (initproc)SimEngine_init,
    .tp_new = PyType_GenericNew,
};

/* ---------------------------------------------------------------- module */

static PyObject *
simcore_install(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwds)
{
    PyObject *sim_err = NULL, *empty = NULL, *timeout = NULL;
    PyObject *process = NULL, *all_of = NULL, *any_of = NULL;
    PyObject *pending = NULL;
    static char *kwlist[] = {"SimulationError", "EmptySchedule", "Timeout",
                             "Process", "AllOf", "AnyOf", "PENDING", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|OOOOOOO", kwlist,
                                     &sim_err, &empty, &timeout, &process,
                                     &all_of, &any_of, &pending))
        return NULL;
#define INSTALL(slot, var)                                                 \
    if (var != NULL) {                                                     \
        Py_INCREF(var);                                                    \
        Py_XSETREF(slot, var);                                             \
    }
    INSTALL(g_SimulationError, sim_err)
    INSTALL(g_EmptySchedule, empty)
    INSTALL(g_Timeout, timeout)
    INSTALL(g_Process, process)
    INSTALL(g_AllOf, all_of)
    INSTALL(g_AnyOf, any_of)
    INSTALL(g_PENDING, pending)
#undef INSTALL
    Py_RETURN_NONE;
}

static PyMethodDef simcore_methods[] = {
    {"_install", (PyCFunction)simcore_install,
     METH_VARARGS | METH_KEYWORDS,
     PyDoc_STR("Hand over the Python-side classes the C types call.")},
    {NULL},
};

static struct PyModuleDef simcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._simcore",
    .m_doc = PyDoc_STR("C accelerator for the DES kernel (Event + Engine)."),
    .m_size = -1,
    .m_methods = simcore_methods,
};

PyMODINIT_FUNC
PyInit__simcore(void)
{
    s_record_kernel = PyUnicode_InternFromString("record_kernel");
    s_record = PyUnicode_InternFromString("record");
    s_engine_src = PyUnicode_InternFromString("engine");
    s_schedule_past = PyUnicode_InternFromString("schedule_past");
    if (s_record_kernel == NULL || s_record == NULL ||
        s_engine_src == NULL || s_schedule_past == NULL)
        return NULL;
    /* Defaults so the types are usable before _install() runs (errors
     * degrade to the builtin RuntimeError rather than crashing). */
    g_SimulationError = PyExc_RuntimeError;
    Py_INCREF(g_SimulationError);
    g_EmptySchedule = PyExc_RuntimeError;
    Py_INCREF(g_EmptySchedule);
    g_PENDING = Py_None;
    Py_INCREF(g_PENDING);

    if (PyType_Ready(&SimEventType) < 0)
        return NULL;
    if (PyType_Ready(&SimEngineType) < 0)
        return NULL;
    if (PyType_Ready(&Call0Type) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&simcore_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&SimEventType);
    if (PyModule_AddObject(m, "Event", (PyObject *)&SimEventType) < 0) {
        Py_DECREF(&SimEventType);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&SimEngineType);
    if (PyModule_AddObject(m, "Engine", (PyObject *)&SimEngineType) < 0) {
        Py_DECREF(&SimEngineType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
