"""Run recursive walks on an explicit stack, at any depth.

A walk is a generator.  Where a recursive function would call itself, a
walk yields the sub-walk and is sent the sub-walk's result back; what it
returns is its own result.  Depth costs list entries, not interpreter
frames, so the default recursion limit is enough.
"""

from collections.abc import Generator


def run_walk(walk: Generator):
    """Drive walk and the sub-walks it yields; return walk's result."""
    suspended = []  # the send methods of the walks waiting for a result
    send, value = walk.send, None
    while True:
        try:
            child = send(value)
        except StopIteration as done:
            if not suspended:
                return done.value
            send, value = suspended.pop(), done.value
        else:
            suspended.append(send)
            send, value = child.send, None
