"""Fixed-schedule helpers for the race tests: a thread or process stops at a
chosen point, and the test lets it go on when its schedule says so."""

import threading

# every wait times out, so a broken worker fails its test instead of hanging it
WAIT_S = 30

# how long run_a_then_b waits for thread b's stop, which b never reaches while
# thread a holds a lock that b needs on its way there
BLOCKED_S = 0.5


class Stop:
    """A point where a worker waits for the test: the worker sets ``reached``
    and waits for ``resume``."""

    def __init__(self, event=threading.Event):
        self.reached, self.resume = event(), event()

    def pause(self):
        self.reached.set()
        if not self.resume.wait(WAIT_S):
            raise TimeoutError("the test never let the worker go on")


def run_a_then_b(monkeypatch, owner, name, a, b):
    """Results of ``a()`` and ``b()``, run in threads a and b in a fixed order.

    Each thread stops at its first call of ``owner.name``.  Thread a stops
    first.  Then b starts, and the test waits up to ``BLOCKED_S`` for b's
    stop.  Then a goes on to its end, and only then b.
    """
    stops = {"a": Stop(), "b": Stop()}
    original = getattr(owner, name)

    def stopping(*args, **kwargs):
        stop = stops.pop(threading.current_thread().name, None)
        if stop is not None:
            stop.pause()
        return original(*args, **kwargs)

    # on the instance's own dict, so that undoing it leaves no attribute behind
    monkeypatch.setitem(vars(owner), name, stopping)
    a_stop, b_stop = stops["a"], stops["b"]
    results, errors = {}, []
    monkeypatch.setattr(threading, "excepthook", lambda args: errors.append(args.exc_value))
    threads = {
        key: threading.Thread(target=lambda key=key, f=f: results.__setitem__(key, f()), name=key)
        for key, f in (("a", a), ("b", b))
    }
    try:
        threads["a"].start()
        assert a_stop.reached.wait(WAIT_S), "thread a never reached its stop"
        threads["b"].start()
        b_stop.reached.wait(BLOCKED_S)
        a_stop.resume.set()
        threads["a"].join(WAIT_S)
        assert not threads["a"].is_alive(), "thread a outlived its step"
        b_stop.resume.set()
        threads["b"].join(WAIT_S)
        assert not threads["b"].is_alive(), "thread b outlived its step"
    finally:
        a_stop.resume.set()
        b_stop.resume.set()
        for thread in threads.values():
            if thread.is_alive():
                thread.join(WAIT_S)
    assert errors == []
    return results["a"], results["b"]
