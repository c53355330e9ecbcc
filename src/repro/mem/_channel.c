/*
 * Compiled channel core for repro.mem.channel (DESIGN.md section 14).
 *
 * ChannelCore owns one channel's read queue and posted-write queue and
 * its scalar scheduling state (FR-FCFS-Cap row-hit streak, data-bus and
 * swap-blocking horizons, per-module refresh clocks, the write-drain
 * flag, whether a tick is pending), and performs the channel's whole
 * per-request work in C: enqueue, and the fused tick (watermark queue
 * choice, FR-FCFS-Cap selection, dequeue, posted-write acceptance
 * release, refresh catch-up, bank timing, the data burst, stats and
 * energy counters, and the completion and next-tick events).
 *
 * Bank state is not copied: the four int64 numpy arrays of the owning
 * Channel are borrowed through the buffer protocol, so Channel.bank(),
 * schedule_swap's row writes and the controller audit read the same
 * memory the tick writes.
 *
 * The core's bound ``tick`` is itself the event callback and the
 * controller calls the core's ``enqueue`` directly, so no Python frame
 * runs between the event loop and the channel.  Future events go onto
 * EventQueue._heap under the queue's inline-push contract, with exactly
 * heapq's sift and the queue's shared ``_seq`` counter, so the event
 * order is the one Channel._tick_python produces.
 *
 * The core holds its own bound ``tick`` (a reference cycle) and the
 * callbacks of queued requests, so it takes part in cyclic GC.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <string.h>

#define INITIAL_CAPACITY 64

typedef struct {
    long long key;
    long long row;
    long long arrival;
    long long kind;
    PyObject *callback; /* owned; NULL for posted writes and no-callback reads */
    PyObject *origin;   /* owned; the compat MemRequest to write back, or NULL */
} Entry;

/* One pending queue, oldest first.  Dequeue shifts the tail down, as
 * the Python backend shifts its arrival-order column. */
typedef struct {
    Entry *items;
    Py_ssize_t count;
    Py_ssize_t capacity;
} Queue;

/* Posted writes whose acceptance waits for room in the write queue. */
typedef struct {
    PyObject **items; /* owned */
    Py_ssize_t head;
    Py_ssize_t count;
    Py_ssize_t capacity;
} Fifo;

typedef struct {
    long long cl, t_rcd, t_rp, t_wr, line_burst, t_rfc, t_refi;
} Timing;

typedef struct {
    PyObject_HEAD
    PyObject *weakrefs;
    PyObject *events;
    PyObject *heap;         /* events._heap */
    PyObject *schedule_now; /* events.schedule_now */
    PyObject *tick_cb;      /* this core's bound tick: the event callback */
    PyObject *energy;       /* EnergyMeter, or NULL */
    PyObject *activates;    /* energy.activates */
    PyObject *line_reads;   /* energy.line_reads */
    PyObject *line_writes;  /* energy.line_writes */
    Py_buffer views[4];
    int have_views;
    long long *open_row;
    long long *ready_at;
    long long *dirty;
    long long *closed_until;
    long long total_banks;
    Queue reads;
    Queue writes;
    Fifo waiters;
    Timing timing[2];
    long long banks_per_rank;
    long long cap;
    long long row_idle_close;
    long long cmd_gap;
    long long write_high;
    long long write_low;
    long long write_cap;
    long long no_row;
    long long streak;
    long long bus_free_at;
    long long blocked_until;
    long long next_refresh[2];
    int draining_writes;
    int tick_scheduled;
    /* ChannelStats counters */
    long long n_reads;
    long long n_writes;
    long long n_row_hits;
    long long n_swaps;
    long long read_latency_sum;
    long long read_count;
    long long st_reads;
    long long st_writes;
    long long refreshes;
} ChannelCore;

static PyObject *str_seq;
static PyObject *str_completion;
static PyObject *str_row_hit;
static PyObject *str_record_refresh;

/* ------------------------------------------------------------------ */
/* Containers                                                          */
/* ------------------------------------------------------------------ */

static int
queue_reserve(Queue *queue)
{
    if (queue->count < queue->capacity) {
        return 0;
    }
    Py_ssize_t capacity = queue->capacity ? 2 * queue->capacity : INITIAL_CAPACITY;
    Entry *items = PyMem_Realloc(queue->items, (size_t)capacity * sizeof(Entry));
    if (items == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    queue->items = items;
    queue->capacity = capacity;
    return 0;
}

static void
queue_clear(Queue *queue)
{
    Py_ssize_t count = queue->count;
    queue->count = 0;
    for (Py_ssize_t i = 0; i < count; i++) {
        Py_CLEAR(queue->items[i].callback);
        Py_CLEAR(queue->items[i].origin);
    }
}

static int
fifo_push(Fifo *fifo, PyObject *item)
{
    if (fifo->count == fifo->capacity) {
        Py_ssize_t capacity = fifo->capacity ? 2 * fifo->capacity : INITIAL_CAPACITY;
        PyObject **items = PyMem_Malloc((size_t)capacity * sizeof(PyObject *));
        if (items == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = 0; i < fifo->count; i++) {
            items[i] = fifo->items[(fifo->head + i) % fifo->capacity];
        }
        PyMem_Free(fifo->items);
        fifo->items = items;
        fifo->head = 0;
        fifo->capacity = capacity;
    }
    Py_INCREF(item);
    fifo->items[(fifo->head + fifo->count) % fifo->capacity] = item;
    fifo->count++;
    return 0;
}

/* Returns a new reference to the oldest item; the FIFO must be non-empty. */
static PyObject *
fifo_pop(Fifo *fifo)
{
    PyObject *item = fifo->items[fifo->head];
    fifo->head = (fifo->head + 1) % fifo->capacity;
    fifo->count--;
    return item;
}

static void
fifo_clear(Fifo *fifo)
{
    while (fifo->count) {
        PyObject *item = fifo_pop(fifo);
        Py_DECREF(item);
    }
}

/* ------------------------------------------------------------------ */
/* Event queue access                                                  */
/* ------------------------------------------------------------------ */

/* ``a < b`` for heap entries.  Entries are (cycle, seq, callback) with
 * distinct seqs, so comparing the two leading ints decides; anything
 * else takes the full tuple comparison heapq would make. */
static int
heap_less(PyObject *a, PyObject *b)
{
    if (PyTuple_CheckExact(a) && PyTuple_CheckExact(b)
        && PyTuple_GET_SIZE(a) >= 2 && PyTuple_GET_SIZE(b) >= 2) {
        for (Py_ssize_t i = 0; i < 2; i++) {
            PyObject *x = PyTuple_GET_ITEM(a, i);
            PyObject *y = PyTuple_GET_ITEM(b, i);
            if (!PyLong_CheckExact(x) || !PyLong_CheckExact(y)) {
                break;
            }
            int overflow_x, overflow_y;
            long long vx = PyLong_AsLongLongAndOverflow(x, &overflow_x);
            long long vy = PyLong_AsLongLongAndOverflow(y, &overflow_y);
            if (overflow_x || overflow_y) {
                break;
            }
            if (vx != vy) {
                return vx < vy;
            }
        }
    }
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* heapq.heappush: append, then the same sift toward the root. */
static int
heap_push(PyObject *heap, PyObject *item)
{
    if (PyList_Append(heap, item) < 0) {
        return -1;
    }
    Py_ssize_t size = PyList_GET_SIZE(heap);
    Py_ssize_t pos = size - 1;
    while (pos > 0) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = PyList_GET_ITEM(heap, parentpos);
        PyObject *newitem = PyList_GET_ITEM(heap, pos);
        Py_INCREF(parent);
        Py_INCREF(newitem);
        int less = heap_less(newitem, parent);
        Py_DECREF(parent);
        Py_DECREF(newitem);
        if (less < 0) {
            return -1;
        }
        if (size != PyList_GET_SIZE(heap)) {
            PyErr_SetString(PyExc_RuntimeError, "event heap changed size during push");
            return -1;
        }
        if (!less) {
            break;
        }
        parent = PyList_GET_ITEM(heap, parentpos);
        newitem = PyList_GET_ITEM(heap, pos);
        PyList_SET_ITEM(heap, parentpos, newitem);
        PyList_SET_ITEM(heap, pos, parent);
        pos = parentpos;
    }
    return 0;
}

/* Push (cycle, events._seq, callback) and advance events._seq. */
static int
push_event(ChannelCore *self, long long cycle, PyObject *callback)
{
    PyObject *seq = PyObject_GetAttr(self->events, str_seq);
    if (seq == NULL) {
        return -1;
    }
    long long value = PyLong_AsLongLong(seq);
    if (value == -1 && PyErr_Occurred()) {
        Py_DECREF(seq);
        return -1;
    }
    PyObject *item = PyTuple_New(3);
    PyObject *when = PyLong_FromLongLong(cycle);
    if (item == NULL || when == NULL) {
        Py_XDECREF(item);
        Py_XDECREF(when);
        Py_DECREF(seq);
        return -1;
    }
    Py_INCREF(callback);
    PyTuple_SET_ITEM(item, 0, when);
    PyTuple_SET_ITEM(item, 1, seq);
    PyTuple_SET_ITEM(item, 2, callback);
    int status = heap_push(self->heap, item);
    Py_DECREF(item);
    if (status < 0) {
        return -1;
    }
    PyObject *next = PyLong_FromLongLong(value + 1);
    if (next == NULL) {
        return -1;
    }
    status = PyObject_SetAttr(self->events, str_seq, next);
    Py_DECREF(next);
    return status;
}

static int
schedule_now(ChannelCore *self, PyObject *callback)
{
    PyObject *result = PyObject_CallOneArg(self->schedule_now, callback);
    if (result == NULL) {
        return -1;
    }
    Py_DECREF(result);
    return 0;
}

/* ``counters[module] += 1`` on one of the EnergyMeter's lists. */
static int
count_energy(PyObject *counters, long long module)
{
    PyObject *old = PyList_GET_ITEM(counters, module);
    long long value = PyLong_AsLongLong(old);
    if (value == -1 && PyErr_Occurred()) {
        return -1;
    }
    PyObject *updated = PyLong_FromLongLong(value + 1);
    if (updated == NULL) {
        return -1;
    }
    return PyList_SetItem(counters, module, updated);
}

static int
as_long_long(PyObject *source, long long *value)
{
    *value = PyLong_AsLongLong(source);
    return *value == -1 && PyErr_Occurred() ? -1 : 0;
}

static int
check_live(ChannelCore *self)
{
    if (self->open_row == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "ChannelCore has been cleared");
        return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Methods                                                             */
/* ------------------------------------------------------------------ */

static PyObject *
core_enqueue(ChannelCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 5 || nargs > 7) {
        PyErr_Format(PyExc_TypeError,
                     "enqueue(bank_key, row, is_write, arrival, kind, "
                     "on_complete=None, origin=None) takes 5 to 7 arguments "
                     "(%zd given)", nargs);
        return NULL;
    }
    if (check_live(self) < 0) {
        return NULL;
    }
    long long key, row, arrival, kind;
    if (as_long_long(args[0], &key) < 0 || as_long_long(args[1], &row) < 0
        || as_long_long(args[3], &arrival) < 0 || as_long_long(args[4], &kind) < 0) {
        return NULL;
    }
    int is_write = PyObject_IsTrue(args[2]);
    if (is_write < 0) {
        return NULL;
    }
    if (key < 0 || key >= self->total_banks) {
        PyErr_Format(PyExc_IndexError, "bank key %lld out of range", key);
        return NULL;
    }
    PyObject *on_complete = nargs > 5 && args[5] != Py_None ? args[5] : NULL;
    PyObject *origin = nargs > 6 && args[6] != Py_None ? args[6] : NULL;
    Queue *queue = is_write ? &self->writes : &self->reads;
    if (queue_reserve(queue) < 0) {
        return NULL;
    }
    Entry *entry = &queue->items[queue->count++];
    entry->key = key;
    entry->row = row;
    entry->arrival = arrival;
    entry->kind = kind;
    entry->callback = NULL;
    Py_XINCREF(origin);
    entry->origin = origin;
    if (is_write) {
        /* Posted: acceptance now, or once the queue drains below the cap. */
        if (on_complete != NULL) {
            int status = queue->count <= self->write_cap
                ? schedule_now(self, on_complete)
                : fifo_push(&self->waiters, on_complete);
            if (status < 0) {
                return NULL;
            }
        }
    }
    else {
        Py_XINCREF(on_complete);
        entry->callback = on_complete;
    }
    if (!self->tick_scheduled) {
        self->tick_scheduled = 1;
        if (schedule_now(self, self->tick_cb) < 0) {
            return NULL;
        }
    }
    Py_RETURN_NONE;
}

/* Apply the all-bank refreshes that elapsed on ``module`` by ``now``. */
static int
refresh(ChannelCore *self, int module, long long now)
{
    Timing *timing = &self->timing[module];
    long long lo = module * self->banks_per_rank;
    long long hi = lo + self->banks_per_rank;
    while (now >= self->next_refresh[module]) {
        long long start = self->next_refresh[module];
        long long end = start + timing->t_rfc;
        for (long long bank = lo; bank < hi; bank++) {
            self->open_row[bank] = self->no_row;
            self->dirty[bank] = 0;
            if (self->ready_at[bank] < end) {
                self->ready_at[bank] = end;
            }
        }
        self->next_refresh[module] = start + timing->t_refi;
        self->refreshes++;
        if (self->energy != NULL) {
            PyObject *result = PyObject_CallMethodNoArgs(self->energy, str_record_refresh);
            if (result == NULL) {
                return -1;
            }
            Py_DECREF(result);
        }
    }
    return 0;
}

static PyObject *
core_tick(ChannelCore *self, PyObject *arg)
{
    long long now = PyLong_AsLongLong(arg);
    if (now == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (check_live(self) < 0) {
        return NULL;
    }
    self->tick_scheduled = 0;
    Queue *reads = &self->reads;
    Queue *writes = &self->writes;
    Queue *queue;
    /* Read priority with write-drain watermarks. */
    if (writes->count) {
        if (!reads->count || writes->count >= self->write_high) {
            self->draining_writes = 1;
            queue = writes;
        }
        else {
            if (self->draining_writes && writes->count <= self->write_low) {
                self->draining_writes = 0;
            }
            queue = self->draining_writes ? writes : reads;
        }
    }
    else if (reads->count) {
        self->draining_writes = 0;
        queue = reads;
    }
    else {
        Py_RETURN_NONE;
    }
    int is_write = queue == writes;
    long long *open_row = self->open_row;
    long long *ready_at = self->ready_at;
    long long *dirty = self->dirty;
    Entry *items = queue->items;
    Py_ssize_t count = queue->count;

    /* FR-FCFS-Cap selection, on the bank state before refresh. */
    Py_ssize_t chosen = -1;
    if (self->streak < self->cap) {
        for (Py_ssize_t i = 0; i < count; i++) {
            if (open_row[items[i].key] == items[i].row) {
                chosen = i;
                break;
            }
        }
    }
    if (chosen >= 0) {
        self->streak++;
    }
    else {
        chosen = 0;
        self->streak = open_row[items[0].key] == items[0].row ? self->streak + 1 : 0;
    }
    Entry entry = items[chosen];
    memmove(items + chosen, items + chosen + 1,
            (size_t)(count - chosen - 1) * sizeof(Entry));
    queue->count = count - 1;
    /* From here ``entry`` owns the request's callback and origin. */
    PyObject *result = NULL;

    if (self->waiters.count && writes->count <= self->write_cap) {
        PyObject *waiter = fifo_pop(&self->waiters);
        int status = schedule_now(self, waiter);
        Py_DECREF(waiter);
        if (status < 0) {
            goto done;
        }
    }

    /* Issue: refresh catch-up, bank preparation, data burst. */
    long long key = entry.key;
    int module = key >= self->banks_per_rank;
    Timing *timing = &self->timing[module];
    if (now >= self->next_refresh[module] && refresh(self, module, now) < 0) {
        goto done;
    }
    long long bank_ready = ready_at[key];
    long long prep_start = now > bank_ready ? now : bank_ready;
    if (self->blocked_until > prep_start) {
        prep_start = self->blocked_until;
    }
    long long orow = open_row[key];
    if (self->row_idle_close > 0 && orow != self->no_row
        && prep_start - bank_ready >= self->row_idle_close) {
        /* Adaptive page policy: the idle row was precharged in the
         * background; only the precharge tail can delay re-activation. */
        long long penalty = timing->t_rp + (dirty[key] ? timing->t_wr : 0);
        self->closed_until[key] = bank_ready + self->row_idle_close + penalty;
        orow = self->no_row;
        dirty[key] = 0;
    }
    long long data_ready;
    long long new_dirty;
    int row_hit = orow == entry.row;
    if (row_hit) {
        data_ready = prep_start + timing->cl;
        new_dirty = is_write ? 1 : dirty[key];
    }
    else {
        long long precharge = 0;
        if (orow != self->no_row) {
            precharge = timing->t_rp + (dirty[key] ? timing->t_wr : 0);
        }
        else if (self->closed_until[key] > prep_start) {
            precharge = self->closed_until[key] - prep_start;
        }
        data_ready = prep_start + precharge + timing->t_rcd + timing->cl;
        if (self->energy != NULL && count_energy(self->activates, module) < 0) {
            goto done;
        }
        new_dirty = is_write;
    }
    long long burst_start = data_ready > self->bus_free_at ? data_ready : self->bus_free_at;
    long long burst_end = burst_start + timing->line_burst;
    self->bus_free_at = burst_end;
    open_row[key] = entry.row;
    ready_at[key] = burst_end;
    dirty[key] = new_dirty;

    /* Served-traffic statistics (latency tracks demand reads only). */
    if (entry.kind != 0) {
        if (entry.kind == 1) {
            self->st_reads++;
        }
        else {
            self->st_writes++;
        }
    }
    if (is_write) {
        self->n_writes++;
    }
    else {
        self->n_reads++;
        if (entry.kind == 0) {
            self->read_latency_sum += burst_end - entry.arrival;
            self->read_count++;
        }
    }
    if (row_hit) {
        self->n_row_hits++;
    }
    if (self->energy != NULL
        && count_energy(is_write ? self->line_writes : self->line_reads, module) < 0) {
        goto done;
    }
    if (entry.origin != NULL) {
        PyObject *completion = PyLong_FromLongLong(burst_end);
        if (completion == NULL) {
            goto done;
        }
        int status = PyObject_SetAttr(entry.origin, str_completion, completion);
        Py_DECREF(completion);
        if (status < 0
            || PyObject_SetAttr(entry.origin, str_row_hit,
                                row_hit ? Py_True : Py_False) < 0) {
            goto done;
        }
    }
    /* Both events lie strictly in the future (burst_end >= now + CL +
     * burst; the next tick is now + CMD_GAP): inline heap pushes. */
    if (entry.callback != NULL && push_event(self, burst_end, entry.callback) < 0) {
        goto done;
    }
    if (reads->count || writes->count) {
        self->tick_scheduled = 1;
        if (push_event(self, now + self->cmd_gap, self->tick_cb) < 0) {
            goto done;
        }
    }
    result = Py_None;
    Py_INCREF(result);
done:
    Py_XDECREF(entry.callback);
    Py_XDECREF(entry.origin);
    return result;
}

static PyObject *
core_swap(ChannelCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "swap(now, latency) takes 2 arguments");
        return NULL;
    }
    long long now, latency;
    if (as_long_long(args[0], &now) < 0 || as_long_long(args[1], &latency) < 0) {
        return NULL;
    }
    /* The swap starts once the bus and any earlier swap are free, blocks
     * the channel until it ends, and resets the row-hit streak. */
    long long start = now;
    if (self->bus_free_at > start) {
        start = self->bus_free_at;
    }
    if (self->blocked_until > start) {
        start = self->blocked_until;
    }
    long long end = start + latency;
    self->blocked_until = end;
    self->bus_free_at = end;
    self->streak = 0;
    self->n_swaps++;
    return PyLong_FromLongLong(end);
}

static PyObject *
core_queue_depth(ChannelCore *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromSsize_t(self->reads.count + self->writes.count);
}

/* ------------------------------------------------------------------ */
/* Type plumbing                                                       */
/* ------------------------------------------------------------------ */

static int
core_traverse(ChannelCore *self, visitproc visit, void *arg)
{
    Py_VISIT(self->events);
    Py_VISIT(self->heap);
    Py_VISIT(self->schedule_now);
    Py_VISIT(self->tick_cb);
    Py_VISIT(self->energy);
    Py_VISIT(self->activates);
    Py_VISIT(self->line_reads);
    Py_VISIT(self->line_writes);
    if (self->have_views) {
        for (int i = 0; i < 4; i++) {
            Py_VISIT(self->views[i].obj);
        }
    }
    Queue *queues[2] = {&self->reads, &self->writes};
    for (int q = 0; q < 2; q++) {
        for (Py_ssize_t i = 0; i < queues[q]->count; i++) {
            Py_VISIT(queues[q]->items[i].callback);
            Py_VISIT(queues[q]->items[i].origin);
        }
    }
    for (Py_ssize_t i = 0; i < self->waiters.count; i++) {
        Py_VISIT(self->waiters.items[(self->waiters.head + i) % self->waiters.capacity]);
    }
    return 0;
}

static int
core_clear(ChannelCore *self)
{
    Py_CLEAR(self->events);
    Py_CLEAR(self->heap);
    Py_CLEAR(self->schedule_now);
    Py_CLEAR(self->tick_cb);
    Py_CLEAR(self->energy);
    Py_CLEAR(self->activates);
    Py_CLEAR(self->line_reads);
    Py_CLEAR(self->line_writes);
    queue_clear(&self->reads);
    queue_clear(&self->writes);
    fifo_clear(&self->waiters);
    self->open_row = NULL;
    self->ready_at = NULL;
    self->dirty = NULL;
    self->closed_until = NULL;
    if (self->have_views) {
        self->have_views = 0;
        for (int i = 0; i < 4; i++) {
            PyBuffer_Release(&self->views[i]);
        }
    }
    return 0;
}

static void
core_dealloc(ChannelCore *self)
{
    PyObject_GC_UnTrack(self);
    if (self->weakrefs != NULL) {
        PyObject_ClearWeakRefs((PyObject *)self);
    }
    core_clear(self);
    PyMem_Free(self->reads.items);
    PyMem_Free(self->writes.items);
    PyMem_Free(self->waiters.items);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
parse_timing(PyObject *source, Timing *timing)
{
    return PyArg_ParseTuple(source, "LLLLLLL;a timing tuple is "
                            "(cl, t_rcd, t_rp, t_wr, line_burst, t_rfc, t_refi)",
                            &timing->cl, &timing->t_rcd, &timing->t_rp,
                            &timing->t_wr, &timing->line_burst,
                            &timing->t_rfc, &timing->t_refi);
}

static int
borrow_bank_column(ChannelCore *self, int index, PyObject *column)
{
    Py_buffer *view = &self->views[index];
    if (PyObject_GetBuffer(column, view, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0) {
        return -1;
    }
    if (view->itemsize != 8 || view->format == NULL
        || (strcmp(view->format, "l") != 0 && strcmp(view->format, "q") != 0
            && strcmp(view->format, "=q") != 0 && strcmp(view->format, "<q") != 0)
        || view->len != 8 * self->total_banks) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_ValueError,
                        "bank columns must be C-contiguous int64 arrays of "
                        "2 * banks_per_rank entries");
        return -1;
    }
    return 0;
}

static PyObject *
core_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {
        "events", "open_row", "ready_at", "dirty", "closed_until",
        "m1_timing", "m2_timing", "banks_per_rank", "cap", "row_idle_close",
        "energy", "cmd_gap", "write_high", "write_low", "write_cap", "no_row",
        NULL,
    };
    PyObject *events, *columns[4], *timings[2], *energy;
    long long banks_per_rank, cap, row_idle_close, cmd_gap;
    long long write_high, write_low, write_cap, no_row;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "OOOOOO!O!LLLOLLLLL:ChannelCore", kwlist,
            &events, &columns[0], &columns[1], &columns[2], &columns[3],
            &PyTuple_Type, &timings[0], &PyTuple_Type, &timings[1],
            &banks_per_rank, &cap, &row_idle_close, &energy, &cmd_gap,
            &write_high, &write_low, &write_cap, &no_row)) {
        return NULL;
    }
    if (banks_per_rank < 1 || cap < 1) {
        PyErr_SetString(PyExc_ValueError, "banks_per_rank and cap must be >= 1");
        return NULL;
    }
    ChannelCore *self = (ChannelCore *)type->tp_alloc(type, 0);
    if (self == NULL) {
        return NULL;
    }
    self->total_banks = 2 * banks_per_rank;
    self->banks_per_rank = banks_per_rank;
    self->cap = cap;
    self->row_idle_close = row_idle_close;
    self->cmd_gap = cmd_gap;
    self->write_high = write_high;
    self->write_low = write_low;
    self->write_cap = write_cap;
    self->no_row = no_row;
    for (int module = 0; module < 2; module++) {
        if (!parse_timing(timings[module], &self->timing[module])) {
            goto fail;
        }
        long long t_refi = self->timing[module].t_refi;
        self->next_refresh[module] = t_refi ? t_refi : (1LL << 62);
    }
    for (int i = 0; i < 4; i++) {
        if (borrow_bank_column(self, i, columns[i]) < 0) {
            for (int j = 0; j < i; j++) {
                PyBuffer_Release(&self->views[j]);
            }
            goto fail;
        }
    }
    self->have_views = 1;
    self->open_row = self->views[0].buf;
    self->ready_at = self->views[1].buf;
    self->dirty = self->views[2].buf;
    self->closed_until = self->views[3].buf;
    Py_INCREF(events);
    self->events = events;
    self->heap = PyObject_GetAttrString(events, "_heap");
    if (self->heap == NULL) {
        goto fail;
    }
    if (!PyList_CheckExact(self->heap)) {
        PyErr_SetString(PyExc_TypeError, "events._heap must be a list");
        goto fail;
    }
    self->schedule_now = PyObject_GetAttrString(events, "schedule_now");
    if (self->schedule_now == NULL) {
        goto fail;
    }
    if (energy != Py_None) {
        Py_INCREF(energy);
        self->energy = energy;
        PyObject **lists[3] = {&self->activates, &self->line_reads, &self->line_writes};
        const char *names[3] = {"activates", "line_reads", "line_writes"};
        for (int i = 0; i < 3; i++) {
            *lists[i] = PyObject_GetAttrString(energy, names[i]);
            if (*lists[i] == NULL) {
                goto fail;
            }
            if (!PyList_CheckExact(*lists[i]) || PyList_GET_SIZE(*lists[i]) != 2) {
                PyErr_Format(PyExc_TypeError, "energy.%s must be a 2-item list", names[i]);
                goto fail;
            }
        }
    }
    self->tick_cb = PyObject_GetAttrString((PyObject *)self, "tick");
    if (self->tick_cb == NULL) {
        goto fail;
    }
    return (PyObject *)self;
fail:
    Py_DECREF(self);
    return NULL;
}

static PyMethodDef core_methods[] = {
    {"enqueue", (PyCFunction)(void (*)(void))core_enqueue, METH_FASTCALL,
     "enqueue(bank_key, row, is_write, arrival, kind, on_complete=None, origin=None)\n"
     "Accept one request (Channel.enqueue_soa semantics); ``origin`` is a\n"
     "MemRequest whose completion and row_hit are written back at issue."},
    {"tick", (PyCFunction)core_tick, METH_O,
     "tick(now)\nOne fused scheduling decision (Channel._tick_python semantics)."},
    {"swap", (PyCFunction)(void (*)(void))core_swap, METH_FASTCALL,
     "swap(now, latency) -> end\nBlock the channel for one swap; returns its end cycle."},
    {"queue_depth", (PyCFunction)core_queue_depth, METH_NOARGS,
     "Pending requests, reads + buffered writes."},
    {NULL, NULL, 0, NULL},
};

#define MEMBER(name, field, doc) \
    {name, T_LONGLONG, offsetof(ChannelCore, field), READONLY, doc}

static PyMemberDef core_members[] = {
    MEMBER("reads", n_reads, "Reads served (demand and ST)."),
    MEMBER("writes", n_writes, "Writes served (demand and ST)."),
    MEMBER("row_hits", n_row_hits, "Requests served from an open row."),
    MEMBER("swaps", n_swaps, "Swaps that blocked the channel."),
    MEMBER("read_latency_sum", read_latency_sum, "Summed demand-read latency."),
    MEMBER("read_count", read_count, "Demand reads in read_latency_sum."),
    MEMBER("st_reads", st_reads, "ST-entry reads served."),
    MEMBER("st_writes", st_writes, "ST-entry writes served."),
    MEMBER("refreshes", refreshes, "All-bank refresh cycles applied."),
    MEMBER("blocked_until", blocked_until, "Cycle until which a swap blocks the channel."),
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject ChannelCoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.mem._channel.ChannelCore",
    .tp_doc = PyDoc_STR("One channel's queues and scheduling state, in C."),
    .tp_basicsize = sizeof(ChannelCore),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = core_new,
    .tp_dealloc = (destructor)core_dealloc,
    .tp_traverse = (traverseproc)core_traverse,
    .tp_clear = (inquiry)core_clear,
    .tp_weaklistoffset = offsetof(ChannelCore, weakrefs),
    .tp_methods = core_methods,
    .tp_members = core_members,
};

static struct PyModuleDef channel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_channel",
    .m_doc = "Compiled channel core (see repro.mem.backend).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__channel(void)
{
    str_seq = PyUnicode_InternFromString("_seq");
    str_completion = PyUnicode_InternFromString("completion");
    str_row_hit = PyUnicode_InternFromString("row_hit");
    str_record_refresh = PyUnicode_InternFromString("record_refresh");
    if (str_seq == NULL || str_completion == NULL || str_row_hit == NULL
        || str_record_refresh == NULL) {
        return NULL;
    }
    if (PyType_Ready(&ChannelCoreType) < 0) {
        return NULL;
    }
    PyObject *module = PyModule_Create(&channel_module);
    if (module == NULL) {
        return NULL;
    }
    Py_INCREF(&ChannelCoreType);
    if (PyModule_AddObject(module, "ChannelCore", (PyObject *)&ChannelCoreType) < 0) {
        Py_DECREF(&ChannelCoreType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
