#!/usr/bin/env python3
"""A first-come-first-served scheduler speaking the elastisim wire protocol.

It makes the same decisions as the built-in `fcfs` scheduler, so a run
through it is byte-identical to `--scheduler fcfs` (pinned by
`tests/external_scheduler.rs`).

Run it with:

    elastisim run --platform platform.json --jobs jobs.json \
        --scheduler-cmd "python3 examples/external_scheduler.py" --out results/

The engine writes one JSON request per scheduler invocation to stdin and
expects one JSON response per line on stdout (protocol reference:
DESIGN.md section 8). Only the standard library is used.
"""

import json
import sys

PROTOCOL = 1


def start_size(job, free):
    """Nodes to start `job` on when `free` nodes are idle, or None to wait.

    The user-fixed size where the user decides (rigid, evolving); otherwise
    the greedy `min(max_nodes, free)` once `min_nodes` fit (moldable,
    malleable). The same rule as the built-in `fcfs`.
    """
    fixed = job["fixed_start"]
    if fixed is not None:
        return fixed if free >= fixed else None
    if free < job["min_nodes"]:
        return None
    return min(job["max_nodes"], free)


def schedule(view):
    """Start queued jobs in submission order on the lowest free nodes."""
    free = sorted(view["free_nodes"])
    decisions = []
    queue = [j for j in view["jobs"] if j["state"] == "pending"]
    queue.sort(key=lambda j: (j["submit_time"], j["id"]))
    for job in queue:
        want = start_size(job, len(free))
        if want is None:
            break  # strict FCFS: the head of the queue blocks everyone behind it
        decisions.append({"action": "start", "job": job["id"], "nodes": free[:want]})
        free = free[want:]
    return decisions


def main():
    for line in sys.stdin:
        request = json.loads(line)
        if request["protocol"] != PROTOCOL:
            sys.exit(f"protocol version mismatch: engine speaks v{request['protocol']}")
        response = {
            "protocol": PROTOCOL,
            "seq": request["seq"],
            "decisions": schedule(request["view"]),
        }
        print(json.dumps(response), flush=True)


if __name__ == "__main__":
    main()
