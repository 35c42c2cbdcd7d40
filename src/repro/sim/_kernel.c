/* The compiled event kernel: the hot paths of repro.sim, over the
 * Python kernel's own objects.
 *
 * This extension holds no state of its own.  install() reads the
 * offsets of the __slots__ of Simulator, Event, Process, Resource and
 * Store from their member descriptors, and every function here reads
 * and writes those same slots.  So the Python kernel (step(),
 * run(until=...), Event._fire, _holds_ahead, utilisation) keeps
 * working on the same _heap list and _urgent deque, and one run may
 * mix both kernels.  Each function is a line-for-line port of the
 * Python method it replaces (engine.py, resources.py, process.py);
 * the exactness arguments are in DESIGN.md section 7:
 *
 *  - the heap is heapq's algorithm, ported literally (_siftdown /
 *    _siftup), so the list layout is the one heapq would leave;
 *  - keys compare as (double, long, long), as Python compares the
 *    (float, int, int, Event) tuples whose sequence numbers are unique;
 *  - the only float arithmetic is now + d and busy_time += d, and the
 *    build uses -O2 -ffp-contract=off (never -ffast-math).
 *
 * Anything off the common path (a non-float duration, a non-Event
 * yield, an exception out of a process body) is handed back to the
 * Python code that defines its behaviour.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

/* -- slot offsets (install) ---------------------------------------- */

static Py_ssize_t S_now, S_heap, S_urgent, S_sequence, S_event_serial,
    S_crashed, S_sole, S_events_fired, S_fastpath_holds, S_sync_holds,
    S_sync_gets;
static Py_ssize_t E_sim, E_callbacks, E_value, E_ok, E_triggered,
    E_fired, E_hold, E_resource, E_serial;
static Py_ssize_t P_generator, P_send, P_resume_cb;
static Py_ssize_t R_sim, R_capacity, R_in_use, R_waiting, R_busy_time,
    R_total_acquisitions;
static Py_ssize_t T_sim, T_items, T_getters, T_total_puts, T_total_gets;

static PyTypeObject *SimType, *EventType, *ResourceType;
static PyTypeObject *DequeType;
static PyCFunction deque_popleft, deque_append;
static PyObject *python_use;          /* Resource.use, the Python one */
static PyObject *PRIORITY_NORMAL;
static PyObject *str_succeed, *str_throw, *str_crash, *str_bad_yield,
    *str_value, *str_popleft, *str_append;

static PyMethodDef resume_def;

/* Replace a slot's value with a new reference (stolen). */
static inline void
set_slot(PyObject *obj, Py_ssize_t off, PyObject *value)
{
    PyObject **slot = (PyObject **)((char *)obj + off);
    PyObject *old = *slot;
    *slot = value;
    Py_XDECREF(old);
}

static inline void
set_bool(PyObject *obj, Py_ssize_t off, int value)
{
    set_slot(obj, off, Py_NewRef(value ? Py_True : Py_False));
}

/* A slot read that must not find the slot unset. */
static PyObject *
get_slot(PyObject *obj, Py_ssize_t off, const char *name)
{
    PyObject *value = SLOT(obj, off);
    if (value == NULL)
        PyErr_Format(PyExc_AttributeError, "'%.100s' object has no "
                     "attribute '%s'", Py_TYPE(obj)->tp_name, name);
    return value;
}

/* slot += delta for an int slot. */
static int
slot_add(PyObject *obj, Py_ssize_t off, long delta)
{
    PyObject *old = SLOT(obj, off);
    PyObject *new;
    if (old != NULL && PyLong_CheckExact(old)) {
        int overflow;
        long value = PyLong_AsLongAndOverflow(old, &overflow), sum;
        if (!overflow && !__builtin_add_overflow(value, delta, &sum)) {
            set_slot(obj, off, PyLong_FromLong(sum));
            return SLOT(obj, off) == NULL ? -1 : 0;
        }
    }
    if (old == NULL) {
        PyErr_SetString(PyExc_AttributeError, "kernel counter unset");
        return -1;
    }
    PyObject *step = PyLong_FromLong(delta);
    if (step == NULL)
        return -1;
    new = PyNumber_Add(old, step);
    Py_DECREF(step);
    if (new == NULL)
        return -1;
    set_slot(obj, off, new);
    return 0;
}

/* a + b for a float slot and a duration (Python's + when not floats). */
static PyObject *
add_time(PyObject *a, PyObject *b)
{
    if (PyFloat_CheckExact(a) && PyFloat_CheckExact(b))
        return PyFloat_FromDouble(PyFloat_AS_DOUBLE(a) + PyFloat_AS_DOUBLE(b));
    return PyNumber_Add(a, b);
}

static inline int
truth(PyObject *value)
{
    if (value == Py_True)
        return 1;
    if (value == Py_False || value == Py_None)
        return 0;
    return PyObject_IsTrue(value);
}

/* -- the urgent lane and the wait queues: collections.deque ----------- */

static inline Py_ssize_t
dq_len(PyObject *dq)
{
    if (Py_IS_TYPE(dq, DequeType))
        return Py_SIZE(dq);
    return PyObject_Size(dq);
}

static inline PyObject *
dq_popleft(PyObject *dq)
{
    if (Py_IS_TYPE(dq, DequeType))
        return deque_popleft(dq, NULL);
    return PyObject_CallMethodNoArgs(dq, str_popleft);
}

static inline int
dq_append(PyObject *dq, PyObject *item)
{
    PyObject *done = Py_IS_TYPE(dq, DequeType)
        ? deque_append(dq, item)
        : PyObject_CallMethodOneArg(dq, str_append, item);
    if (done == NULL)
        return -1;
    Py_DECREF(done);
    return 0;
}

/* -- the heap: heapq, ported literally --------------------------------- */

/* Python's a < b for two heap entries (time, priority, sequence, event):
 * the first position whose items differ decides. */
static int
entry_lt(PyObject *a, PyObject *b)
{
    if (PyTuple_CheckExact(a) && PyTuple_CheckExact(b)
            && PyTuple_GET_SIZE(a) >= 3 && PyTuple_GET_SIZE(b) >= 3) {
        PyObject *ta = PyTuple_GET_ITEM(a, 0), *tb = PyTuple_GET_ITEM(b, 0);
        if (PyFloat_CheckExact(ta) && PyFloat_CheckExact(tb)) {
            double x = PyFloat_AS_DOUBLE(ta), y = PyFloat_AS_DOUBLE(tb);
            if (x != y)
                return x < y;
            for (Py_ssize_t i = 1; i < 3; i++) {
                PyObject *ia = PyTuple_GET_ITEM(a, i);
                PyObject *ib = PyTuple_GET_ITEM(b, i);
                if (!PyLong_CheckExact(ia) || !PyLong_CheckExact(ib))
                    goto generic;
                int oa, ob;
                long la = PyLong_AsLongAndOverflow(ia, &oa);
                long lb = PyLong_AsLongAndOverflow(ib, &ob);
                if (oa || ob)
                    goto generic;
                if (la != lb)
                    return la < lb;
            }
        }
    }
generic:
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* heapq._siftdown(heap, startpos, pos) */
static int
siftdown(PyObject *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    Py_ssize_t size = PyList_GET_SIZE(heap);
    PyObject **arr = ((PyListObject *)heap)->ob_item;
    PyObject *newitem = arr[pos];
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = arr[parentpos];
        int lt = entry_lt(newitem, parent);
        if (lt < 0)
            return -1;
        if (size != PyList_GET_SIZE(heap)
                || arr != ((PyListObject *)heap)->ob_item) {
            PyErr_SetString(PyExc_RuntimeError,
                            "list changed size during iteration");
            return -1;
        }
        if (!lt)
            break;
        arr[parentpos] = newitem;
        arr[pos] = parent;
        pos = parentpos;
    }
    return 0;
}

/* heapq._siftup(heap, pos) */
static int
siftup(PyObject *heap, Py_ssize_t pos)
{
    Py_ssize_t endpos = PyList_GET_SIZE(heap);
    Py_ssize_t startpos = pos;
    Py_ssize_t limit = endpos >> 1;
    PyObject **arr = ((PyListObject *)heap)->ob_item;
    while (pos < limit) {
        Py_ssize_t childpos = 2 * pos + 1;
        if (childpos + 1 < endpos) {
            int lt = entry_lt(arr[childpos], arr[childpos + 1]);
            if (lt < 0)
                return -1;
            childpos += ((unsigned)lt ^ 1);
            if (endpos != PyList_GET_SIZE(heap)
                    || arr != ((PyListObject *)heap)->ob_item) {
                PyErr_SetString(PyExc_RuntimeError,
                                "list changed size during iteration");
                return -1;
            }
        }
        PyObject *tmp = arr[childpos];
        arr[childpos] = arr[pos];
        arr[pos] = tmp;
        pos = childpos;
    }
    return siftdown(heap, startpos, pos);
}

/* heapq.heappush; steals nothing. */
static int
heap_push(PyObject *heap, PyObject *item)
{
    if (PyList_Append(heap, item) < 0)
        return -1;
    return siftdown(heap, 0, PyList_GET_SIZE(heap) - 1);
}

/* heapq.heappop on a non-empty heap; a new reference. */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *last = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (n == 1)
        return last;
    PyObject *result = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, last);     /* steals last; result is ours */
    if (siftup(heap, 0) < 0) {
        Py_DECREF(result);
        return NULL;
    }
    return result;
}

/* heapq.heappushpop; a new reference. */
static PyObject *
heap_pushpop(PyObject *heap, PyObject *item)
{
    if (PyList_GET_SIZE(heap) == 0)
        return Py_NewRef(item);
    PyObject *top = PyList_GET_ITEM(heap, 0);
    int lt = entry_lt(top, item);
    if (lt < 0)
        return NULL;
    if (lt == 0)
        return Py_NewRef(item);
    if (PyList_GET_SIZE(heap) == 0) {
        PyErr_SetString(PyExc_IndexError, "index out of range");
        return NULL;
    }
    PyObject *result = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, Py_NewRef(item));
    if (siftup(heap, 0) < 0) {
        Py_DECREF(result);
        return NULL;
    }
    return result;
}

/* -- Process._resume ------------------------------------------------- */

/* ``del self._resume_cb``, as the generator finishes. */
static int
drop_resume_cb(PyObject *process)
{
    if (get_slot(process, P_resume_cb, "_resume_cb") == NULL)
        return -1;
    set_slot(process, P_resume_cb, NULL);
    return 0;
}

/* Advance the generator by one event (process.py: Process._resume). */
static PyObject *
resume(PyObject *process, PyObject *event)
{
    PyObject *generator = get_slot(process, P_generator, "generator");
    if (generator == NULL)
        return NULL;
    Py_INCREF(process);
    Py_INCREF(generator);
    Py_INCREF(event);
    PyObject *result = NULL, *target = NULL;
    for (;;) {
        PyObject *ok = SLOT(event, E_ok), *value = SLOT(event, E_value);
        int send = ok == NULL ? -1 : truth(ok);
        if (send < 0 || value == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_AttributeError, "event state unset");
            goto done;
        }
        if (!send) {
            target = PyObject_CallMethodOneArg(generator, str_throw, value);
        }
        else if (PyGen_CheckExact(generator)) {
            PySendResult sent = PyIter_Send(generator, value, &target);
            if (sent == PYGEN_RETURN) {
                /* except StopIteration as stop: succeed(stop.value) */
                if (drop_resume_cb(process) == 0)
                    result = PyObject_CallMethodOneArg(process, str_succeed,
                                                       target);
                Py_CLEAR(target);
                goto done;
            }
            if (sent == PYGEN_ERROR)
                target = NULL;
        }
        else {
            PyObject *send_method = get_slot(process, P_send, "_send");
            target = send_method == NULL ? NULL
                : PyObject_CallOneArg(send_method, value);
        }
        if (target == NULL) {
            PyObject *type, *exc, *tb;
            PyErr_Fetch(&type, &exc, &tb);
            PyErr_NormalizeException(&type, &exc, &tb);
            if (tb != NULL)
                PyException_SetTraceback(exc, tb);
            Py_XDECREF(type);
            Py_XDECREF(tb);
            if (exc == NULL)
                goto done;
            if (PyErr_GivenExceptionMatches(exc, PyExc_StopIteration)) {
                PyObject *stop = PyObject_GetAttr(exc, str_value);
                if (stop != NULL && drop_resume_cb(process) == 0)
                    result = PyObject_CallMethodOneArg(process, str_succeed,
                                                       stop);
                Py_XDECREF(stop);
            }
            else {
                result = PyObject_CallMethodOneArg(process, str_crash, exc);
            }
            Py_DECREF(exc);
            goto done;
        }
        if (!PyObject_TypeCheck(target, EventType)) {
            result = PyObject_CallMethodOneArg(process, str_bad_yield,
                                               target);
            goto done;
        }
        PyObject *fired = SLOT(target, E_fired);
        int already = fired == NULL ? -1 : truth(fired);
        if (already < 0) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_AttributeError, "event state unset");
            goto done;
        }
        if (already) {
            /* The event already happened: continue synchronously. */
            Py_SETREF(event, target);
            target = NULL;
            continue;
        }
        PyObject *callbacks = SLOT(target, E_callbacks);
        PyObject *resume_cb = SLOT(process, P_resume_cb);
        if (callbacks == NULL || resume_cb == NULL) {
            result = PyObject_CallMethodOneArg(process, str_bad_yield,
                                               target);
            goto done;
        }
        if (PyList_CheckExact(callbacks)) {
            if (PyList_Append(callbacks, resume_cb) == 0)
                result = Py_NewRef(Py_None);
        }
        else {
            result = PyObject_CallMethodOneArg(callbacks, str_append,
                                               resume_cb);
        }
        goto done;
    }
done:
    Py_XDECREF(target);
    Py_DECREF(event);
    Py_DECREF(generator);
    Py_DECREF(process);
    if (result != NULL && result != Py_None) {
        Py_DECREF(result);
        result = Py_NewRef(Py_None);
    }
    return result;
}

/* Process._resume as called from Python (Event._fire, the tests). */
static PyObject *
resume_method(PyObject *process, PyObject *event)
{
    if (!PyObject_TypeCheck(event, EventType)) {
        PyErr_Format(PyExc_TypeError, "_resume() expects an Event, got %R",
                     event);
        return NULL;
    }
    return resume(process, event);
}

/* -- Simulator.run ---------------------------------------------------- */

/* A hold expires: Resource._release_hold, inlined. */
static int
release_hold(PyObject *resource, PyObject *urgent)
{
    if (!PyObject_TypeCheck(resource, ResourceType)) {
        PyObject *done = PyObject_CallMethod(resource, "_release_hold",
                                             NULL);
        Py_XDECREF(done);
        return done == NULL ? -1 : 0;
    }
    PyObject *waiting = get_slot(resource, R_waiting, "_waiting");
    if (waiting == NULL)
        return -1;
    Py_ssize_t queued = dq_len(waiting);
    if (queued < 0)
        return -1;
    if (!queued)
        return slot_add(resource, R_in_use, -1);
    PyObject *pair = dq_popleft(waiting);
    if (pair == NULL)
        return -1;
    if (!PyTuple_CheckExact(pair) || PyTuple_GET_SIZE(pair) != 2
            || !PyObject_TypeCheck(PyTuple_GET_ITEM(pair, 0), EventType)) {
        Py_DECREF(pair);
        PyErr_SetString(PyExc_TypeError, "malformed resource waiter");
        return -1;
    }
    PyObject *waiter = PyTuple_GET_ITEM(pair, 0);
    PyObject *grant = PyTuple_GET_ITEM(pair, 1);
    int status = slot_add(resource, R_total_acquisitions, 1);
    if (status == 0) {
        set_bool(waiter, E_triggered, 1);
        set_slot(waiter, E_value, Py_NewRef(grant));
        status = dq_append(urgent, waiter);
    }
    Py_DECREF(pair);
    return status;
}

/* Raise a crashed process's error (run's fail-fast check). */
static void
raise_crash(PyObject *crashed)
{
    PyObject *error = PyObject_GetAttrString(PyList_GET_ITEM(crashed, 0),
                                             "crash_error");
    if (error == NULL)
        return;
    if (PyExceptionInstance_Check(error))
        PyErr_SetObject((PyObject *)Py_TYPE(error), error);
    else
        PyErr_SetString(PyExc_TypeError,
                        "exceptions must derive from BaseException");
    Py_DECREF(error);
}

static inline PyObject *
call_back(PyObject *callback, PyObject *event)
{
    if (PyCFunction_CheckExact(callback)
            && ((PyCFunctionObject *)callback)->m_ml == &resume_def)
        return resume(PyCFunction_GET_SELF(callback), event);
    return PyObject_CallOneArg(callback, event);
}

/* Fire ``event`` (owned by the caller): in-loop release, then the
 * callbacks (engine.py: the body of Simulator.run's loop). */
static int
fire(PyObject *sim, PyObject *event, PyObject *urgent)
{
    PyObject *resource = SLOT(event, E_resource);
    if (resource != NULL && resource != Py_None) {
        if (release_hold(resource, urgent) < 0)
            return -1;
    }
    set_bool(event, E_fired, 1);
    PyObject *callbacks = get_slot(event, E_callbacks, "callbacks");
    if (callbacks == NULL)
        return -1;
    if (!PyList_CheckExact(callbacks)) {
        PyErr_SetString(PyExc_TypeError, "event callbacks must be a list");
        return -1;
    }
    Py_ssize_t n = PyList_GET_SIZE(callbacks);
    if (n == 1) {
        PyObject *callback = Py_NewRef(PyList_GET_ITEM(callbacks, 0));
        PyObject *done = call_back(callback, event);
        Py_DECREF(callback);
        if (done == NULL)
            return -1;
        Py_DECREF(done);
    }
    else if (n) {
        set_bool(sim, S_sole, 0);
        Py_INCREF(callbacks);
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(callbacks); i++) {
            PyObject *callback = Py_NewRef(PyList_GET_ITEM(callbacks, i));
            PyObject *done = call_back(callback, event);
            Py_DECREF(callback);
            if (done == NULL) {
                Py_DECREF(callbacks);
                return -1;
            }
            Py_DECREF(done);
        }
        Py_DECREF(callbacks);
        set_bool(sim, S_sole, 1);
    }
    return 0;
}

/* The unbounded loop (engine.py: Simulator._drain). */
static PyObject *
drain(PyObject *sim, PyObject *unused)
{
    PyObject *heap = get_slot(sim, S_heap, "_heap");
    PyObject *urgent = get_slot(sim, S_urgent, "_urgent");
    PyObject *crashed = get_slot(sim, S_crashed, "_crashed");
    if (heap == NULL || urgent == NULL || crashed == NULL)
        return NULL;
    if (!PyList_CheckExact(heap) || !PyList_CheckExact(crashed)) {
        PyErr_SetString(PyExc_TypeError,
                        "Simulator._heap and _crashed must be lists");
        return NULL;
    }
    Py_INCREF(heap);
    Py_INCREF(urgent);
    Py_INCREF(crashed);
    long events_fired = 0, holds = 0;
    int failed = 0;
    int gc_was_enabled = PyGC_Disable();
    /* No model code runs between fires, so the flag stays up there and
     * drops only around multi-callback fires. */
    set_bool(sim, S_sole, 1);
    for (;;) {
        PyObject *event, *entry;
        Py_ssize_t queued = dq_len(urgent);
        if (queued < 0)
            goto error;
        if (queued) {
            event = dq_popleft(urgent);
            if (event == NULL)
                goto error;
            if (!PyObject_TypeCheck(event, EventType)) {
                Py_DECREF(event);
                PyErr_SetString(PyExc_TypeError, "queued a non-Event");
                goto error;
            }
            PyObject *hold = SLOT(event, E_hold);
            if (hold != NULL && hold != Py_None) {
                /* Re-key a grant-and-hold event ``hold`` seconds on,
                 * with the sequence number the classic chain's timeout
                 * would have taken. */
                PyObject *now = get_slot(sim, S_now, "now");
                PyObject *when = now == NULL ? NULL : add_time(now, hold);
                if (when == NULL || slot_add(sim, S_sequence, 1) < 0) {
                    Py_XDECREF(when);
                    Py_DECREF(event);
                    goto error;
                }
                set_slot(event, E_hold, Py_NewRef(Py_None));
                holds++;
                entry = PyTuple_New(4);
                if (entry == NULL) {
                    Py_DECREF(when);
                    Py_DECREF(event);
                    goto error;
                }
                PyTuple_SET_ITEM(entry, 0, when);
                PyTuple_SET_ITEM(entry, 1, Py_NewRef(PRIORITY_NORMAL));
                PyTuple_SET_ITEM(entry, 2,
                                 Py_NewRef(SLOT(sim, S_sequence)));
                PyTuple_SET_ITEM(entry, 3, event);   /* steals event */
                queued = dq_len(urgent);
                if (queued) {
                    int status = queued < 0 ? -1 : heap_push(heap, entry);
                    Py_DECREF(entry);
                    if (status < 0)
                        goto error;
                    continue;
                }
                /* Fused re-key: with unique keys the head after a push
                 * is what heappushpop returns. */
                PyObject *popped = heap_pushpop(heap, entry);
                Py_DECREF(entry);
                if (popped == NULL)
                    goto error;
                entry = popped;
                goto popped_entry;
            }
        }
        else if (PyList_GET_SIZE(heap)) {
            entry = heap_pop(heap);
            if (entry == NULL)
                goto error;
        popped_entry:
            if (!PyTuple_CheckExact(entry) || PyTuple_GET_SIZE(entry) != 4
                    || !PyObject_TypeCheck(PyTuple_GET_ITEM(entry, 3),
                                           EventType)) {
                Py_DECREF(entry);
                PyErr_SetString(PyExc_TypeError, "malformed heap entry");
                goto error;
            }
            set_slot(sim, S_now, Py_NewRef(PyTuple_GET_ITEM(entry, 0)));
            event = Py_NewRef(PyTuple_GET_ITEM(entry, 3));
            Py_DECREF(entry);
        }
        else {
            break;
        }
        int status = fire(sim, event, urgent);
        Py_DECREF(event);
        if (status < 0)
            goto error;
        events_fired++;
        if (PyList_GET_SIZE(crashed)) {
            raise_crash(crashed);
            goto error;
        }
    }
    goto exit;
error:
    failed = 1;
exit:
    {
        /* The finally clause: keep an exception in flight intact. */
        PyObject *type, *value, *tb;
        PyErr_Fetch(&type, &value, &tb);
        set_bool(sim, S_sole, 0);
        if (gc_was_enabled)
            PyGC_Enable();
        if (slot_add(sim, S_events_fired, events_fired) < 0
                || slot_add(sim, S_fastpath_holds, holds) < 0) {
            if (failed)
                PyErr_Clear();
            else
                failed = 1;
        }
        if (type != NULL)
            PyErr_Restore(type, value, tb);
    }
    Py_DECREF(heap);
    Py_DECREF(urgent);
    Py_DECREF(crashed);
    if (failed)
        return NULL;
    Py_RETURN_NONE;
}

/* -- Resource.use ----------------------------------------------------- */

/* A fresh Event with every slot but the state flags set. */
static PyObject *
new_event(PyObject *sim)
{
    PyObject *serial = get_slot(sim, S_event_serial, "_event_serial");
    if (serial == NULL)
        return NULL;
    PyObject *event = EventType->tp_alloc(EventType, 0);
    if (event == NULL)
        return NULL;
    if (slot_add(sim, S_event_serial, 1) < 0) {
        Py_DECREF(event);
        return NULL;
    }
    SLOT(event, E_sim) = Py_NewRef(sim);
    SLOT(event, E_serial) = Py_NewRef(SLOT(sim, S_event_serial));
    SLOT(event, E_callbacks) = PyList_New(0);
    if (SLOT(event, E_callbacks) == NULL) {
        Py_DECREF(event);
        return NULL;
    }
    SLOT(event, E_ok) = Py_NewRef(Py_True);
    return event;
}

static inline PyObject *
one_tuple(PyObject *event)
{
    PyObject *result = PyTuple_New(1);
    if (result == NULL) {
        Py_DECREF(event);
        return NULL;
    }
    PyTuple_SET_ITEM(result, 0, event);
    return result;
}

static PyObject *
resource_use(PyObject *self, PyObject *duration)
{
    if (!PyFloat_CheckExact(duration))
        return PyObject_CallFunctionObjArgs(python_use, self, duration,
                                            NULL);
    double d = PyFloat_AS_DOUBLE(duration);
    if (!(d >= 0)) {
        PyErr_Format(PyExc_ValueError,
                     "hold duration must be >= 0, got %R", duration);
        return NULL;
    }
    PyObject *sim = get_slot(self, R_sim, "sim");
    if (sim == NULL)
        return NULL;
    if (!PyObject_TypeCheck(sim, SimType))
        return PyObject_CallFunctionObjArgs(python_use, self, duration,
                                            NULL);
    PyObject *event = new_event(sim);
    if (event == NULL)
        return NULL;
    SLOT(event, E_value) = Py_NewRef(Py_None);
    SLOT(event, E_resource) = Py_NewRef(self);
    /* Busy time is credited as the hold duration up front. */
    PyObject *busy = get_slot(self, R_busy_time, "busy_time");
    PyObject *in_use = get_slot(self, R_in_use, "_in_use");
    PyObject *capacity = get_slot(self, R_capacity, "capacity");
    if (busy == NULL || in_use == NULL || capacity == NULL)
        goto error;
    busy = add_time(busy, duration);
    if (busy == NULL)
        goto error;
    set_slot(self, R_busy_time, busy);
    int free_capacity = PyObject_RichCompareBool(in_use, capacity, Py_LT);
    if (free_capacity < 0)
        goto error;
    if (free_capacity) {
        if (slot_add(self, R_total_acquisitions, 1) < 0)
            goto error;
        SLOT(event, E_triggered) = Py_NewRef(Py_True);
        PyObject *urgent = get_slot(sim, S_urgent, "_urgent");
        if (urgent == NULL)
            goto error;
        Py_ssize_t queued = dq_len(urgent);
        if (queued < 0)
            goto error;
        if (SLOT(sim, S_sole) == Py_True && !queued) {
            PyObject *heap = get_slot(sim, S_heap, "_heap");
            PyObject *now = get_slot(sim, S_now, "now");
            if (heap == NULL || now == NULL)
                goto error;
            PyObject *end = add_time(now, duration);
            if (end == NULL)
                goto error;
            int sooner = 1;
            if (PyList_Check(heap) && PyList_GET_SIZE(heap)) {
                PyObject *head = PyList_GET_ITEM(heap, 0);
                if (PyTuple_Check(head) && PyTuple_GET_SIZE(head)
                        && PyFloat_CheckExact(PyTuple_GET_ITEM(head, 0))
                        && PyFloat_CheckExact(end))
                    sooner = PyFloat_AS_DOUBLE(end)
                        < PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(head, 0));
                else {
                    PyObject *when = PySequence_GetItem(head, 0);
                    sooner = when == NULL ? -1
                        : PyObject_RichCompareBool(end, when, Py_LT);
                    Py_XDECREF(when);
                }
            }
            if (sooner < 0) {
                Py_DECREF(end);
                goto error;
            }
            if (sooner) {
                /* Synchronous hold: grant, re-key bookkeeping, clock
                 * advance, release.  The grant's in_use += 1 and the
                 * release's -= 1 cancel. */
                if (slot_add(sim, S_sequence, 1) < 0
                        || slot_add(sim, S_fastpath_holds, 1) < 0
                        || slot_add(sim, S_events_fired, 1) < 0
                        || slot_add(sim, S_sync_holds, 1) < 0) {
                    Py_DECREF(end);
                    goto error;
                }
                set_slot(sim, S_now, end);
                SLOT(event, E_hold) = Py_NewRef(Py_None);
                SLOT(event, E_fired) = Py_NewRef(Py_True);
                return one_tuple(event);
            }
            Py_DECREF(end);
        }
        if (slot_add(self, R_in_use, 1) < 0 || dq_append(urgent, event) < 0)
            goto error;
    }
    else {
        SLOT(event, E_triggered) = Py_NewRef(Py_False);
        PyObject *waiting = get_slot(self, R_waiting, "_waiting");
        PyObject *pair = waiting == NULL ? NULL
            : PyTuple_Pack(2, event, Py_None);
        if (pair == NULL)
            goto error;
        int status = dq_append(waiting, pair);
        Py_DECREF(pair);
        if (status < 0)
            goto error;
    }
    SLOT(event, E_hold) = Py_NewRef(duration);
    SLOT(event, E_fired) = Py_NewRef(Py_False);
    return one_tuple(event);
error:
    Py_DECREF(event);
    return NULL;
}

/* -- Store.put / Store.get -------------------------------------------- */

static PyObject *
store_put(PyObject *self, PyObject *item)
{
    PyObject *sim = get_slot(self, T_sim, "sim");
    if (sim == NULL)
        return NULL;
    if (!PyObject_TypeCheck(sim, SimType)) {
        PyErr_SetString(PyExc_TypeError, "Store.sim is not a Simulator");
        return NULL;
    }
    if (slot_add(self, T_total_puts, 1) < 0)
        return NULL;
    PyObject *getters = get_slot(self, T_getters, "_getters");
    Py_ssize_t waiting = getters == NULL ? -1 : dq_len(getters);
    if (waiting < 0)
        return NULL;
    if (!waiting) {
        PyObject *items = get_slot(self, T_items, "_items");
        if (items == NULL || dq_append(items, item) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    /* Wake the oldest getter: an inlined URGENT delay-0 succeed. */
    PyObject *getter = dq_popleft(getters);
    if (getter == NULL)
        return NULL;
    int status = -1;
    PyObject *urgent = get_slot(sim, S_urgent, "_urgent");
    if (!PyObject_TypeCheck(getter, EventType))
        PyErr_SetString(PyExc_TypeError, "store getter is not an Event");
    else if (urgent != NULL && slot_add(self, T_total_gets, 1) == 0) {
        set_bool(getter, E_triggered, 1);
        set_slot(getter, E_value, Py_NewRef(item));
        status = dq_append(urgent, getter);
    }
    Py_DECREF(getter);
    if (status < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
store_get(PyObject *self, PyObject *unused)
{
    PyObject *sim = get_slot(self, T_sim, "sim");
    if (sim == NULL)
        return NULL;
    if (!PyObject_TypeCheck(sim, SimType)) {
        PyErr_SetString(PyExc_TypeError, "Store.sim is not a Simulator");
        return NULL;
    }
    PyObject *event = new_event(sim);
    if (event == NULL)
        return NULL;
    SLOT(event, E_hold) = Py_NewRef(Py_None);
    SLOT(event, E_resource) = Py_NewRef(Py_None);
    PyObject *items = get_slot(self, T_items, "_items");
    Py_ssize_t ready = items == NULL ? -1 : dq_len(items);
    if (ready < 0)
        goto error;
    if (ready) {
        if (slot_add(self, T_total_gets, 1) < 0)
            goto error;
        SLOT(event, E_triggered) = Py_NewRef(Py_True);
        SLOT(event, E_value) = dq_popleft(items);
        if (SLOT(event, E_value) == NULL)
            goto error;
        PyObject *urgent = get_slot(sim, S_urgent, "_urgent");
        Py_ssize_t queued = urgent == NULL ? -1 : dq_len(urgent);
        if (queued < 0)
            goto error;
        if (SLOT(sim, S_sole) == Py_True && !queued) {
            /* Synchronous get: it would be the next event to fire. */
            if (slot_add(sim, S_events_fired, 1) < 0
                    || slot_add(sim, S_sync_gets, 1) < 0)
                goto error;
            SLOT(event, E_fired) = Py_NewRef(Py_True);
        }
        else {
            SLOT(event, E_fired) = Py_NewRef(Py_False);
            if (dq_append(urgent, event) < 0)
                goto error;
        }
    }
    else {
        SLOT(event, E_triggered) = Py_NewRef(Py_False);
        SLOT(event, E_fired) = Py_NewRef(Py_False);
        SLOT(event, E_value) = Py_NewRef(Py_None);
        PyObject *getters = get_slot(self, T_getters, "_getters");
        if (getters == NULL || dq_append(getters, event) < 0)
            goto error;
    }
    return event;
error:
    Py_DECREF(event);
    return NULL;
}

/* -- install ---------------------------------------------------------- */

static PyMethodDef drain_def = {
    "_drain", (PyCFunction)drain, METH_NOARGS,
    "_drain()\n--\n\nThe unbounded run: fire events until the queue "
    "drains."};
static PyMethodDef use_def = {
    "use", (PyCFunction)resource_use, METH_O,
    "use(duration)\n--\n\n``yield from`` helper: acquire, hold for "
    "``duration``, release (compiled Resource.use)."};
static PyMethodDef put_def = {
    "put", (PyCFunction)store_put, METH_O,
    "put(item)\n--\n\nDeposit ``item``; wakes the oldest waiting getter."};
static PyMethodDef get_def = {
    "get", (PyCFunction)store_get, METH_NOARGS,
    "get()\n--\n\nAn event that fires with the next item."};
static PyMethodDef resume_def = {
    "_resume", (PyCFunction)resume_method, METH_O,
    "_resume(event)\n--\n\nAdvance the generator by one event."};

static int
offset_of(PyObject *cls, const char *name, Py_ssize_t *offset)
{
    PyObject *descr = PyObject_GetAttrString(cls, name);
    if (descr == NULL)
        return -1;
    if (!Py_IS_TYPE(descr, &PyMemberDescr_Type)
            || ((PyMemberDescrObject *)descr)->d_member->type != T_OBJECT_EX) {
        PyErr_Format(PyExc_TypeError, "%R.%s is not a __slots__ member",
                     cls, name);
        Py_DECREF(descr);
        return -1;
    }
    *offset = ((PyMemberDescrObject *)descr)->d_member->offset;
    Py_DECREF(descr);
    return 0;
}

static int
method_of(PyObject *cls, const char *name, int flags, PyCFunction *fn)
{
    PyObject *descr = PyObject_GetAttrString(cls, name);
    if (descr == NULL)
        return -1;
    int ok = Py_IS_TYPE(descr, &PyMethodDescr_Type)
        && ((PyMethodDescrObject *)descr)->d_method->ml_flags == flags;
    if (ok)
        *fn = ((PyMethodDescrObject *)descr)->d_method->ml_meth;
    Py_DECREF(descr);
    if (!ok)
        PyErr_Format(PyExc_TypeError, "unexpected %R.%s", cls, name);
    return ok ? 0 : -1;
}

typedef struct { PyObject **cls; const char *name; Py_ssize_t *offset; }
    SlotSpec;

static PyObject *
install(PyObject *module, PyObject *args)
{
    PyObject *sim, *event, *process, *resource, *store, *deque, *use;
    if (!PyArg_ParseTuple(args, "O!O!O!O!O!O!O:install",
                          &PyType_Type, &sim, &PyType_Type, &event,
                          &PyType_Type, &process, &PyType_Type, &resource,
                          &PyType_Type, &store, &PyType_Type, &deque, &use))
        return NULL;
    SlotSpec specs[] = {
        {&sim, "now", &S_now}, {&sim, "_heap", &S_heap},
        {&sim, "_urgent", &S_urgent}, {&sim, "_sequence", &S_sequence},
        {&sim, "_event_serial", &S_event_serial},
        {&sim, "_crashed", &S_crashed}, {&sim, "_sole_callback", &S_sole},
        {&sim, "events_fired", &S_events_fired},
        {&sim, "fastpath_holds", &S_fastpath_holds},
        {&sim, "sync_holds", &S_sync_holds},
        {&sim, "sync_gets", &S_sync_gets},
        {&event, "sim", &E_sim}, {&event, "callbacks", &E_callbacks},
        {&event, "_value", &E_value}, {&event, "_ok", &E_ok},
        {&event, "_triggered", &E_triggered}, {&event, "_fired", &E_fired},
        {&event, "_hold", &E_hold}, {&event, "_resource", &E_resource},
        {&event, "_serial", &E_serial},
        {&process, "generator", &P_generator}, {&process, "_send", &P_send},
        {&process, "_resume_cb", &P_resume_cb},
        {&resource, "sim", &R_sim}, {&resource, "capacity", &R_capacity},
        {&resource, "_in_use", &R_in_use},
        {&resource, "_waiting", &R_waiting},
        {&resource, "busy_time", &R_busy_time},
        {&resource, "total_acquisitions", &R_total_acquisitions},
        {&store, "sim", &T_sim}, {&store, "_items", &T_items},
        {&store, "_getters", &T_getters},
        {&store, "total_puts", &T_total_puts},
        {&store, "total_gets", &T_total_gets},
    };
    for (size_t i = 0; i < sizeof(specs) / sizeof(specs[0]); i++) {
        if (offset_of(*specs[i].cls, specs[i].name, specs[i].offset) < 0)
            return NULL;
    }
    if (!PyType_IsSubtype((PyTypeObject *)process, (PyTypeObject *)event)) {
        PyErr_SetString(PyExc_TypeError, "Process must subclass Event");
        return NULL;
    }
    if (method_of(deque, "popleft", METH_NOARGS, &deque_popleft) < 0
            || method_of(deque, "append", METH_O, &deque_append) < 0)
        return NULL;
    Py_XSETREF(SimType, (PyTypeObject *)Py_NewRef(sim));
    Py_XSETREF(EventType, (PyTypeObject *)Py_NewRef(event));
    Py_XSETREF(ResourceType, (PyTypeObject *)Py_NewRef(resource));
    Py_XSETREF(DequeType, (PyTypeObject *)Py_NewRef(deque));
    Py_XSETREF(python_use, Py_NewRef(use));
    return Py_BuildValue(
        "{sNsNsNsNsN}",
        "_drain", PyDescr_NewMethod((PyTypeObject *)sim, &drain_def),
        "use", PyDescr_NewMethod((PyTypeObject *)resource, &use_def),
        "put", PyDescr_NewMethod((PyTypeObject *)store, &put_def),
        "get", PyDescr_NewMethod((PyTypeObject *)store, &get_def),
        "_resume", PyDescr_NewMethod((PyTypeObject *)process, &resume_def));
}

static PyMethodDef module_methods[] = {
    {"install", install, METH_VARARGS,
     "install(Simulator, Event, Process, Resource, Store, deque, use)\n--\n"
     "\nRead the classes' slot offsets; return the compiled methods by "
     "name, as method descriptors for those classes."},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "The compiled event kernel (see repro.sim.kernel).", -1,
    module_methods};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    PRIORITY_NORMAL = PyLong_FromLong(1);
    str_succeed = PyUnicode_InternFromString("succeed");
    str_throw = PyUnicode_InternFromString("throw");
    str_crash = PyUnicode_InternFromString("_crash");
    str_bad_yield = PyUnicode_InternFromString("_bad_yield");
    str_value = PyUnicode_InternFromString("value");
    str_popleft = PyUnicode_InternFromString("popleft");
    str_append = PyUnicode_InternFromString("append");
    if (!PRIORITY_NORMAL || !str_succeed || !str_throw || !str_crash
            || !str_bad_yield || !str_value
            || !str_popleft || !str_append)
        return NULL;
    return PyModule_Create(&kernel_module);
}
