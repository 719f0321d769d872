"""serve-mixed: a fresh `rumor_run --serve` daemon driven by a single-process
closed-loop generator.

One heavy client loops over long-tail jobs; every other client loops over
the five-scenario light job: SUBMIT, wait for OK, RESULTS, stream until END,
repeat. A client sends its next job only after the previous one ended, so
the offered load follows the daemon's speed (closed loop, one connection
per client). The traced run of a one-shot workload drives the same loop
with a single client that submits the whole scenario file once. Each daemon
runs in a new directory with a new socket and journal: reusing a journal
would resume and replay old jobs.
"""

import os
import selectors
import signal
import socket
import threading
import time

from measure import Child, check_rows, parse_csv_row, parse_stream_line
import workloads

SOCKET = "s.sock"
JOURNAL = "serve.journal"


class Daemon:
    """One daemon process in its own directory. `setup_s` is the time from
    launch until it answers HELLO."""

    def __init__(self, binary, workdir, jobs):
        os.makedirs(workdir)
        self.workdir = workdir
        self.sock_path = os.path.join(workdir, SOCKET)
        self.child = Child([os.path.abspath(binary), f"--serve=unix:{SOCKET}",
                            f"--journal={JOURNAL}", f"--jobs={jobs}"],
                           cwd=workdir,
                           stderr_path=os.path.join(workdir, "stderr.txt"))
        self.setup_s = None
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and not self.child.exited():
            try:
                sock = connect(self.sock_path)
            except OSError:
                time.sleep(0.0001)
                continue
            with sock:
                sock.sendall(b"HELLO setup-probe\n")
                if sock.makefile("rb").readline().startswith(b"OK"):
                    self.setup_s = time.monotonic() - self.child.t0
            break

    def journal_bytes(self):
        return os.path.getsize(os.path.join(self.workdir, JOURNAL))

    def stop(self):
        """SIGTERM is the daemon's clean shutdown; SIGKILL after a minute.
        Returns the exit code."""
        if self.child.exit_code is None:
            self.child.proc.send_signal(signal.SIGTERM)
            timer = threading.Timer(60.0, self.child.proc.kill)
            timer.start()
            try:
                self.child.wait()
            finally:
                timer.cancel()
        return self.child.exit_code


def connect(path):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.connect(path)
    except OSError:
        sock.close()
        raise
    return sock


class Job:
    def __init__(self, kind, scenarios, seed):
        self.kind = kind
        self.scenarios = scenarios
        self.seed = seed
        self.id = None
        self.reply = None      # first token of the SUBMIT reply
        self.t_submit = None
        self.t_ok = None
        self.t_first_trial = None
        self.t_end = None
        self.state = None
        self.trials = 0
        self.rows = {}
        self.errors = []

    def text(self):
        lines = [sc.line(self.seed) for sc in self.scenarios]
        return f"SUBMIT {len(lines)}\n" + "".join(ln + "\n" for ln in lines)

    @property
    def latency_ms(self):
        return (self.t_end - self.t_submit) * 1e3

    @property
    def expected_trials(self):
        return sum(sc.trials for sc in self.scenarios)


class Client:
    """One connection. `make_job(i)` gives the client's i-th job, or None
    when it has no more. On every `stats_every`-th job a STATS request is
    sent right after the job's OK, pipelined ahead of RESULTS, so its round
    trip is timed while the job is queued or running."""

    def __init__(self, name, make_job, stats_every=0):
        self.name = name
        self.make_job = make_job
        self.stats_every = stats_every
        self.sock = None
        self.buf = b""
        self.state = "hello"
        self.job = None
        self.jobs_started = 0
        self.t_stats = None
        self.stats_ms = []
        self.out = b""

    def send(self, data):
        self.out += data.encode()
        self.flush()

    def flush(self):
        while self.out:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                return
            self.out = self.out[sent:]


def job_seed(seed, client, i):
    """Job i of a client gets the same seed on every run of one workload
    seed, whatever the interleaving of clients."""
    return (seed * 64 + client) * 1000003 + i


def mixed_clients(count, seed, stats_every=0):
    """The serve-mixed clients: one heavy client alternating the long-tail
    jobs, then light clients looping the five-scenario job. The first light
    client probes STATS every `stats_every` jobs."""
    light = workloads.light_job()
    heavy = workloads.heavy_jobs()
    clients = [Client("heavy", lambda i: Job("heavy", heavy[i % len(heavy)],
                                             job_seed(seed, 0, i)))]
    for c in range(1, count):
        clients.append(Client(
            f"light{c}", lambda i, c=c: Job("light", light, job_seed(seed, c, i)),
            stats_every if c == 1 else 0))
    return clients


def file_client(scenarios, seed):
    """One client that submits the whole scenario file as a single job and
    probes STATS while it runs."""
    return Client("file", lambda i: Job("file", scenarios, seed) if i == 0
                  else None, stats_every=1)


class Load:
    """Runs the clients' closed loops for `seconds` (or until every client
    has run out of jobs), then lets every client finish the job it has in
    flight. `on_end(job, daemon)` is called as each job ends."""

    def __init__(self, daemon, clients, reference, on_end=None):
        self.daemon = daemon
        self.reference = reference
        self.on_end = on_end
        self.jobs = []
        self.sel = selectors.DefaultSelector()
        self.accepting = True
        self.clients = clients
        for client in clients:
            client.sock = connect(daemon.sock_path)
            client.sock.setblocking(False)
            self.sel.register(client.sock, selectors.EVENT_READ, client)
            client.send(f"HELLO {client.name}\n")

    def start_job(self, client):
        job = client.make_job(client.jobs_started) if self.accepting else None
        if job is None:
            client.state = "idle"
            return
        client.jobs_started += 1
        client.job = job
        self.jobs.append(job)
        job.t_submit = time.monotonic()
        client.state = "submit"
        client.send(job.text())

    def on_line(self, client, line, now):
        msg = parse_stream_line(line)
        job = client.job
        if client.state == "hello":
            if msg[0] != "OK":
                raise RuntimeError(f"{client.name}: HELLO refused: {line}")
            self.start_job(client)
        elif client.state == "submit":
            job.reply = msg[0]
            if msg[0] != "OK":
                job.errors.append(line.strip())
                job.t_end = now
                self.start_job(client)
                return
            job.t_ok = now
            job.id = int(msg[1].split(" ")[0])
            client.state = "results"
            if (client.stats_every and
                    client.jobs_started % client.stats_every == 0):
                client.state = "stats"
                client.t_stats = time.monotonic()
                client.send("STATS\n")
            client.send(f"RESULTS {job.id}\n")
        elif client.state == "stats":
            if line.strip() == ".":
                client.stats_ms.append((now - client.t_stats) * 1e3)
                client.state = "results"
        elif client.state == "results":
            if msg[0] != "OK":
                job.errors.append(line.strip())
                job.t_end = now
                self.start_job(client)
                return
            client.state = "stream"
        elif client.state == "stream":
            if msg[0] == "TRIAL":
                if job.t_first_trial is None:
                    job.t_first_trial = now
                job.trials += 1
            elif msg[0] == "ROW":
                job.rows[msg[1]] = msg[2]
            elif msg[0] == "END":
                job.t_end = now
                job.state = msg[2]
                self.finish(job)
                self.start_job(client)

    def finish(self, job):
        if job.state != "done":
            job.errors.append(f"job {job.id} ended {job.state}")
        if job.trials != job.expected_trials:
            job.errors.append(f"job {job.id}: {job.trials} TRIAL lines, "
                              f"expected {job.expected_trials}")
        rows = [parse_csv_row(job.rows[i]) for i in sorted(job.rows)]
        job.errors.extend(check_rows(rows, job.scenarios, self.reference))
        if self.on_end:
            self.on_end(job, self.daemon)

    def run(self, seconds, drain_s=120.0):
        deadline = time.monotonic() + seconds
        hard_deadline = deadline + drain_s
        while not all(c.state == "idle" for c in self.clients):
            now = time.monotonic()
            if now >= deadline:
                self.accepting = False
            if now >= hard_deadline:
                break
            for key, _ in self.sel.select(timeout=0.05):
                client = key.data
                try:
                    data = client.sock.recv(1 << 16)
                except BlockingIOError:
                    continue
                t = time.monotonic()
                if not data:
                    raise RuntimeError(f"{client.name}: connection closed")
                client.buf += data
                while b"\n" in client.buf:
                    raw, client.buf = client.buf.split(b"\n", 1)
                    self.on_line(client, raw.decode(errors="replace"), t)
            for c in self.clients:
                c.flush()
        for c in self.clients:
            self.sel.unregister(c.sock)
            c.sock.close()
        for job in self.jobs:
            if job.t_end is None:
                job.errors.append("job did not end before the drain deadline")
        return self.jobs

    @property
    def stats_ms(self):
        return [ms for c in self.clients for ms in c.stats_ms]
