"""Sample another process's private resident memory; report its peak.

    python3 peak_rss.py PID

Prints ``ready`` once it has taken a first sample, then reads the
process's RssAnon plus RssShmem from /proc every millisecond until a line
arrives on stdin (or stdin closes), and prints the peak in KiB.

It runs as a process of its own because a sampling thread inside the
measured process would wait for the GIL, and so miss the peaks of calls
that hold it, such as ``json.dumps`` of the weights.
"""
import select
import sys

INTERVAL_S = 0.001


def private_kib(pid: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        return sum(int(line.split()[1]) for line in fh if line.startswith(("RssAnon:", "RssShmem:")))


def main(pid: str) -> None:
    peak = private_kib(pid)
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        peak = max(peak, private_kib(pid))
    peak = max(peak, private_kib(pid))
    print(peak, flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
