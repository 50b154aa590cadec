"""Text sample lines read on every usable core: one parser and one frame protocol.

``parse_lines`` reads a block of whole lines with ``float()``.
``blocks`` reads a file or stream in order as blocks of whole lines,
and ``deal`` hands them round-robin to the calling process and to
worker processes and yields each block's answer in order.  A worker is
this module run as a script, in an interpreter that loads neither numpy
nor site packages::

    python -I -S _textlines.py
        stdin: frames, each an 8-byte native byte length and then that
        many bytes, until EOF; stdout: for each frame, a frame of its
        answer, ``parse_lines`` of its bytes.  Exit 1 on a frame cut
        short.

So this module imports only the standard library, and ``subprocess``
only where a worker starts.  The worker is ``sys.executable``, so its
``float`` is the caller's, and so are its values.  A worker answers
each frame whole before it reads the next, and the dealer reads each
answer whole before it sends that worker another frame.  A pipe holds
64 KB and a block's answer up to 256 KB, so any other order could leave
each side waiting for the other to read.
"""

import os
import sys
from array import array

_BLOCK = 1 << 16  # bytes read at a time: a few thousand lines


def parse_lines(block) -> bytes:
    """``float()`` of each line of ``block``, bytes of whole lines, as
    native doubles, or nothing if any line is not a float.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, as in a file opened in
    text mode.  The block is read in one ``map(float, ...)`` pass, so an
    answer holds one value per line.  ``float`` reads a line's bytes as
    ASCII, so any line it takes is read as its UTF-8 text would be.
    """
    try:
        return array("d", map(float, block.splitlines())).tobytes()
    except ValueError:
        return b""


def blocks(fd):
    """The bytes of file or stream ``fd`` from its offset on, in order, as
    blocks of whole lines, the last of which may lack its line ending.

    Each read of ``_BLOCK`` bytes is cut after its last line ending.
    What follows is carried to the next cut as a list of reads, joined
    once, so a long line is not copied over and over.
    """
    rest = []
    while block := os.read(fd, _BLOCK):
        # A final \r may be the first half of \r\n: not an ending yet.
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, len(block) - 1)) + 1
        if cut:
            yield b"".join([*rest, block[:cut]])
            rest = []
        rest.append(block[cut:])
    if tail := b"".join(rest):
        yield tail


def _start():
    """A worker answering frames with ``parse_lines``; None if it cannot start."""
    import subprocess  # 7.5 ms, paid only where a worker starts

    try:
        return subprocess.Popen([sys.executable, "-I", "-S", __file__],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
    except OSError:
        return None


def _end(procs, kill):
    """Close every worker's pipes and wait for it to exit, killing it first
    if ``kill``.  A worker whose input is closed exits 0 by itself."""
    for proc in filter(None, procs):
        if kill:
            proc.kill()  # nothing, once it has exited and been reaped
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except OSError:  # unsent input to a dead worker
                pass
        proc.wait()


def _ask(proc, item) -> bool:
    """Send buffer ``item`` to worker ``proc`` as one frame; False if there
    is no worker or it is gone."""
    if proc is None:
        return False
    frame = memoryview(item).cast("B")
    try:
        proc.stdin.write(len(frame).to_bytes(8, sys.byteorder))
        proc.stdin.write(frame)
        proc.stdin.flush()
    except OSError:  # it died
        return False
    return True


def _answer(proc):
    """Worker ``proc``'s whole answering frame's bytes, else None."""
    word = proc.stdout.read(8)
    if len(word) == 8:
        size = int.from_bytes(word, sys.byteorder)
        answer = proc.stdout.read(size)
        if len(answer) == size:
            return answer
    return None


def deal(items, shares):
    """``parse_lines`` of each of ``items``, in order.

    The items are dealt round-robin to this process and ``shares - 1``
    workers.  Each round sends every worker its next frame, then answers
    this process's own item, then reads every worker's answer whole in
    item order.  A worker that cannot start, dies or answers short is
    ended, and its item of that round and every later one is answered
    here, so only whole answers are yielded.  Once the items run out the
    workers' input is closed and each is waited for; closing the
    iterator before that kills them.
    """
    procs = [_start() for _ in range(shares - 1)]
    finished = False
    try:
        items = iter(items)
        for own in items:
            dealt = [(j, item, _ask(proc, item))
                     for j, (proc, item) in enumerate(zip(procs, items))]
            yield parse_lines(own)
            for j, item, sent in dealt:
                answer = _answer(procs[j]) if sent else None
                if answer is None:
                    _end(procs[j:j + 1], kill=True)
                    procs[j] = None
                    answer = parse_lines(item)
                yield answer
        finished = True
    finally:
        _end(procs, kill=not finished)


def _main():
    frames, out = sys.stdin.buffer, sys.stdout.buffer
    while word := frames.read(8):
        size = int.from_bytes(word, sys.byteorder)
        data = frames.read(size)
        if len(word) != 8 or len(data) != size:
            return 1
        answer = parse_lines(data)
        out.write(len(answer).to_bytes(8, sys.byteorder))
        out.write(answer)
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(_main())
