"""Text sample lines: one codec, run on every usable core.

``format_lines`` writes one shortest round-trip decimal (``repr``) per
line, and ``parse_lines`` reads the lines of a byte range of a file
with ``float()``.  ``text_chunks`` deals chunks of values round-robin
to the calling process and to worker processes, and ``read_floats``
cuts a file's bytes into contiguous shares, one per process.  A worker
is this module run as a script, in an interpreter that loads neither
numpy nor site packages::

    python -I -S _textlines.py format
        stdin: frames, each an 8-byte native count and then that many
        native doubles, until EOF; stdout: for each frame, a frame of
        its lines: their length as 8 native bytes, then the lines.
        Exit 1 on a frame cut short.
    python -I -S _textlines.py parse START END
        stdin: an open text file; stdout: the count of the values on
        the lines that start in bytes START..END as 8 native bytes,
        then the values as native doubles.  Exit 1 if a line is neither
        a float nor a blank or comment line.

So this module imports only the standard library, and ``subprocess``
only where a worker starts.  The worker is ``sys.executable``, so its
``repr`` and ``float`` are the caller's, and so are its bytes.  A
format worker answers each frame whole before it reads the next, and
the writer reads each answer whole before it sends that worker another
frame.  A pipe holds 64 KB and a frame of doubles 128 KB, so any other
order could leave each side waiting for the other to read.
"""

import os
import sys
from array import array

_BLOCK = 1 << 16  # bytes read at a time: a few thousand lines


def format_lines(values) -> bytes:
    """The lines of ``values`` (an ndarray or a memoryview of doubles), one per value."""
    return ("\n".join(map(repr, values.tolist())) + "\n").encode("ascii")


def _blocks(fd, start, end):
    """Bytes start..end of file ``fd`` by position; end None reads on to EOF from
    the file's offset, which must be ``start``.

    A positioned read moves no file offset, so processes that share one
    open file can each read their own range of it.  A file read by one
    process is read sequentially, which also serves a platform without
    ``os.pread``.
    """
    while end is None or start < end:
        block = os.read(fd, _BLOCK) if end is None else os.pread(fd, min(_BLOCK, end - start), start)
        if not block:
            return
        start += len(block)
        yield block


def _extend(out, lines):
    """Append ``float()`` of each line to ``out``.

    A block is read in one ``map(float, ...)`` pass.  Only a block that
    pass fails is read again without its blank and ``#`` lines, which the
    line loop skips too; a block with a non-ASCII byte is left to the line
    loop, which reads the file as UTF-8 (ValueError).
    """
    at = len(out)
    try:
        out.extend(map(float, lines))
    except ValueError:
        del out[at:]  # what the failed pass appended
        if not all(map(bytes.isascii, lines)):
            raise ValueError("a line is not ASCII") from None
        out.extend(map(float, [line for line in lines if line.strip()[:1] not in (b"", b"#")]))


def parse_lines(fd, start, end):
    """``float()`` of each line that starts in bytes start..end of file ``fd``.

    ``start`` must be 0 or the first byte of a line.  Lines end at
    ``\\n``, ``\\r\\n`` or ``\\r``, as in a file opened in text mode.
    ``float`` reads a line's bytes as ASCII, so any line it takes is
    read as its UTF-8 text would be.  Blank and ``#`` comment lines of
    ASCII are skipped, as the line loop skips them; any other line that
    is not a float (a non-ASCII byte, a bad literal) raises ValueError.
    Each block is cut after its last whole line ending, and what
    follows waits for the next cut, so a long line is joined once.
    """
    out, rest = array("d"), []
    for block in _blocks(fd, start, end):
        # A final \r may be the first half of \r\n: not an ending yet.
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, len(block) - 1)) + 1
        if cut:
            _extend(out, b"".join([*rest, block[:cut]]).splitlines())
            rest = []
        rest.append(block[cut:])
    _extend(out, b"".join(rest).splitlines())
    return out


def _line_start(fd, pos, size):
    """The first offset at or after pos > 0 where a line starts, else size."""
    pos -= 1  # a line starts where the byte before it ends one
    while pos < size:
        block = os.pread(fd, 4097, pos)  # one byte past what is searched
        ends = [i for i in (block.find(b"\n", 0, 4096), block.find(b"\r", 0, 4096)) if i >= 0]
        if ends:
            return pos + min(ends) + (2 if block[min(ends):min(ends) + 2] == b"\r\n" else 1)
        pos += 4096
    return size


def _start(argv, fd=None):
    """A worker running this module on ``argv``, on stdin ``fd`` or else a
    pipe; None if it cannot start."""
    import subprocess  # 7.5 ms, paid only where a worker starts

    try:
        return subprocess.Popen([sys.executable, "-I", "-S", __file__, *argv],
                                stdin=subprocess.PIPE if fd is None else fd,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return None


def _reap(procs):
    """Kill every worker still running and wait for every one."""
    for proc in filter(None, procs):
        proc.kill()  # nothing, once it has exited and been reaped
        for pipe in filter(None, (proc.stdin, proc.stdout)):
            try:
                pipe.close()
            except OSError:  # unsent input to a dead worker
                pass
        proc.wait()


def _ask(proc, chunk) -> bool:
    """Send ``chunk`` (native doubles) to format worker ``proc`` as one frame;
    False if there is no worker or it is gone."""
    if proc is None:
        return False
    try:
        proc.stdin.write(len(chunk).to_bytes(8, sys.byteorder))
        proc.stdin.write(chunk)
        proc.stdin.flush()
    except OSError:  # it died
        return False
    return True


def _answer(proc):
    """Format worker ``proc``'s whole answering frame's lines, else None."""
    word = proc.stdout.read(8)
    if len(word) == 8:
        size = int.from_bytes(word, sys.byteorder)
        text = proc.stdout.read(size)
        if len(text) == size:
            return text
    return None


def text_chunks(chunks, shares):
    """The lines of each of ``chunks`` (arrays of native doubles), as bytes, in order.

    The chunks are dealt round-robin to this process and ``shares - 1``
    format workers.  Each round sends every worker its next frame, then
    formats this process's own chunk, then reads every worker's answer
    whole in chunk order.  A worker that cannot start, dies or answers
    short is reaped, and its chunk of that round and every later one is
    formatted here, so only whole answers are yielded.  Closing the
    iterator ends every worker.
    """
    procs = [_start(["format"]) for _ in range(shares - 1)]
    try:
        chunks = iter(chunks)
        for own in chunks:
            dealt = [(j, chunk, _ask(proc, chunk))
                     for j, (proc, chunk) in enumerate(zip(procs, chunks))]
            yield format_lines(own)
            for j, chunk, sent in dealt:
                text = _answer(procs[j]) if sent else None
                if text is None:
                    _reap(procs[j:j + 1])
                    procs[j] = None
                    text = format_lines(chunk)
                yield text
    finally:
        _reap(procs)


def read_floats(fd, size, shares, empty):
    """``parse_lines`` of all of file ``fd``, in up to ``shares`` shares.

    ``size`` is the file's length.  Shares are cut at line starts.  One
    share's values are returned as the array('d') they were parsed into;
    more are joined in file order into ``empty(n)``, a writable buffer of
    n doubles whose pages cost nothing until written (numpy's ``empty``).
    ValueError if a line is neither a float nor a blank or comment line,
    or a worker did not send its share.
    """
    starts = [0]
    for at in (_line_start(fd, size * j // shares, size) for j in range(1, shares)):
        if starts[-1] < at < size:
            starts.append(at)
    ends = [*starts[1:], size]
    procs = []
    try:
        for lo, hi in zip(starts[1:], ends[1:]):
            procs.append(_start(["parse", str(lo), str(hi)], fd))
        # Alone, this process reads on to EOF, sequentially.
        head = parse_lines(fd, 0, ends[0] if procs else None)
        if not procs:
            return head
        words = [proc.stdout.read(8) if proc else b"" for proc in procs]  # sent once parsed
        if any(len(word) != 8 for word in words):
            raise ValueError("a worker sent no values")
        counts = [int.from_bytes(word, sys.byteorder) for word in words]
        out = empty(len(head) + sum(counts))
        view, at = memoryview(out), len(head)
        view[:at] = head
        del head
        for proc, count in zip(procs, counts):
            share = view[at:at + count]
            if proc.stdout.readinto(share) != share.nbytes or proc.wait():
                raise ValueError("a worker did not send its share")
            at += count
        return out
    finally:
        _reap(procs)


def _main(argv):
    out = sys.stdout.buffer
    if argv[0] == "format":
        frames = sys.stdin.buffer
        while word := frames.read(8):
            size = 8 * int.from_bytes(word, sys.byteorder)
            data = frames.read(size)
            if len(word) != 8 or len(data) != size:
                return 1
            text = format_lines(memoryview(data).cast("d"))
            out.write(len(text).to_bytes(8, sys.byteorder))
            out.write(text)
            out.flush()
        return 0
    try:
        values = parse_lines(0, int(argv[1]), int(argv[2]))
    except ValueError:
        return 1
    out.write(len(values).to_bytes(8, sys.byteorder))
    out.write(values)
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
