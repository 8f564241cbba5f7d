"""Spawn and reap the benchmark's children from a process that stays small.

On Linux a child's peak RSS, as wait4 reports it, also counts the peak of
the memory it was spawned from (the spawning process's address space at
exec).  A harness that has read outputs or imported modules would set a
floor under every child's reading.  So run.py starts this process once,
with nothing imported beyond the interpreter's own modules, and has it
spawn each child.

Protocol, over the SOCK_SEQPACKET socket whose descriptor is argv[1]:
  request  marshal (argv, env) with three descriptors for stdin, stdout,
           stderr of the child
  replies  marshal ("pid", pid), then ("done", wait status, ru_maxrss in
           KB, user + system CPU seconds, wall seconds from spawn to reap)
An empty message ends the process.
"""

import marshal
import os
import socket
import sys
import time


def main():
    sock = socket.socket(fileno=int(sys.argv[1]))
    while True:
        message, fds, _, _ = socket.recv_fds(sock, 1 << 20, 3)
        if not message:
            break
        argv, env = marshal.loads(message)
        actions = [(os.POSIX_SPAWN_DUP2, fd, target)
                   for target, fd in enumerate(fds)]
        start = time.perf_counter()
        try:
            pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        except OSError as err:
            pid = -err.errno
        for fd in fds:
            os.close(fd)
        sock.send(marshal.dumps(("pid", pid)))
        if pid < 0:
            continue
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        sock.send(marshal.dumps(("done", status, usage.ru_maxrss,
                                 usage.ru_utime + usage.ru_stime, wall)))
    sock.close()


if __name__ == "__main__":
    main()
