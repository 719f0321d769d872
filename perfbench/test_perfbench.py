"""Self-tests for the benchmark's own code (no build needed):

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import re
import resource
import socket
import sys
import tempfile
import threading
import unittest

import measure
import serveload
import workloads
from measure import Child
from workloads import Scenario


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(measure.percentile(values, 50), 50)
        self.assertEqual(measure.percentile(values, 90), 90)
        self.assertEqual(measure.percentile(values, 100), 100)
        self.assertEqual(measure.percentile([7.0], 90), 7.0)

    def test_samples_beyond(self):
        self.assertEqual(measure.beyond(list(range(100)), 90), 10)
        self.assertEqual(measure.beyond(list(range(99)), 90), 9)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(measure.tail_percentile(list(range(1000)))[0], 99.0)
        self.assertEqual(measure.tail_percentile(list(range(200)))[0], 95.0)
        self.assertEqual(measure.tail_percentile(list(range(100)))[0], 90.0)
        self.assertEqual(measure.tail_percentile(list(range(99)))[0], 75.0)
        self.assertEqual(measure.tail_percentile(list(range(20)))[0], 50.0)
        self.assertEqual(measure.tail_percentile(list(range(10))), (None, None))


class PerChildRss(unittest.TestCase):
    def test_later_small_child_is_not_masked_by_earlier_large_one(self):
        big = Child([sys.executable, "-c",
                     "b = bytearray(160 << 20); b[::4096] = b'x' * len(b[::4096])"])
        big.wait()
        small = Child([sys.executable, "-c", "pass"])
        small.wait()
        self.assertGreater(big.peak_rss_mib, 150)
        self.assertLess(small.peak_rss_mib, 100)
        self.assertEqual(small.exit_code, 0)

    def test_exit_code_and_cpu(self):
        child = Child([sys.executable, "-c", "import sys; sys.exit(3)"])
        self.assertEqual(child.wait(), 3)
        self.assertGreaterEqual(child.cpu_s, 0.0)
        self.assertGreater(child.wall_s, 0.0)

    def test_exited_does_not_reap(self):
        child = Child([sys.executable, "-c", "print('hi')"])
        while not child.exited():
            pass
        self.assertEqual(child.wait(), 0)
        self.assertEqual(child.lines[0][1], "hi\n")


    def test_peak_rss_of_a_running_process(self):
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.assertAlmostEqual(measure.vm_hwm_mib(os.getpid()), own, delta=8)


class FirstClaim(unittest.TestCase):
    def test_marks_when_a_second_thread_starts_running(self):
        child = Child([sys.executable, "-c",
                       "import threading, time\n"
                       "time.sleep(0.3)\n"
                       "def spin():\n"
                       "    end = time.monotonic() + 0.2\n"
                       "    while time.monotonic() < end: pass\n"
                       "t = threading.Thread(target=spin); t.start(); t.join()"])
        watch = measure.FirstHelperRun(child)
        child.wait()
        self.assertIsNotNone(watch.join())
        self.assertGreater(watch.s, 0.28)
        self.assertLess(watch.s, 0.45)

    def test_none_when_only_the_main_thread_runs(self):
        child = Child([sys.executable, "-c",
                       "import time\n"
                       "end = time.monotonic() + 0.1\n"
                       "while time.monotonic() < end: pass"])
        watch = measure.FirstHelperRun(child)
        child.wait()
        self.assertIsNone(watch.join())


class OutputCheck(unittest.TestCase):
    SC = [Scenario("star(leaves=64)", "push-pull", 1, 10),
          Scenario("cycle(n=8)", "visit-exchange(shards=4)", 0, 5)]
    REF = {"star(leaves=64) push-pull source=1": {"mean": 2.0, "sd": 0.0,
                                                   "trials": 100},
           "cycle(n=8) visit-exchange source=0": {"mean": 10.0, "sd": 2.0,
                                                  "trials": 100}}

    def rows(self, **override):
        rows = [
            {"graph": "star(leaves=64)", "protocol": "push-pull", "n": "65",
             "trials": "10", "mean": "2.000000", "informed_mean": "65.000000",
             "incomplete": "0"},
            {"graph": "cycle(n=8)", "protocol": "visit-exchange(shards=4)",
             "n": "8", "trials": "5", "mean": "10.500000",
             "informed_mean": "8.000000", "incomplete": "0"},
        ]
        rows[1].update(override)
        return rows

    def test_correct_rows_pass(self):
        self.assertEqual(measure.check_rows(self.rows(), self.SC, self.REF), [])

    def test_missing_row_fails(self):
        self.assertTrue(measure.check_rows(self.rows()[:1], self.SC, self.REF))

    def test_incomplete_fails(self):
        self.assertTrue(measure.check_rows(self.rows(incomplete="1"),
                                           self.SC, self.REF))

    def test_partially_informed_fails(self):
        self.assertTrue(measure.check_rows(self.rows(informed_mean="7.5"),
                                           self.SC, self.REF))

    def test_biased_mean_fails(self):
        tol = measure.mean_tolerance(self.REF["cycle(n=8) visit-exchange "
                                              "source=0"], 5)
        ok = self.rows(mean=str(10.0 + 0.9 * tol))
        bad = self.rows(mean=str(10.0 + 1.1 * tol))
        self.assertEqual(measure.check_rows(ok, self.SC, self.REF), [])
        self.assertTrue(measure.check_rows(bad, self.SC, self.REF))

    def test_wrong_scenario_or_trials_fails(self):
        self.assertTrue(measure.check_rows(self.rows(protocol="push"),
                                           self.SC, self.REF))
        self.assertTrue(measure.check_rows(self.rows(trials="4"),
                                           self.SC, self.REF))

    def test_missing_reference_fails(self):
        self.assertTrue(measure.check_rows(self.rows(), self.SC, {}))


class StreamParser(unittest.TestCase):
    def test_verbs(self):
        p = measure.parse_stream_line
        self.assertEqual(p("TRIAL 1 3 27 25.5 255 1\n"),
                         ("TRIAL", 1, 3, 27.0, 25.5, 255.0, True))
        self.assertEqual(p("TRIAL 0 0 9 9 100 0")[-1], False)
        self.assertEqual(p("END 12 done\r\n"), ("END", 12, "done"))
        self.assertEqual(p("END 3 cancelled"), ("END", 3, "cancelled"))
        self.assertEqual(p("OK 4 scenarios=5 trials=40"),
                         ("OK", "4 scenarios=5 trials=40"))
        self.assertEqual(p("BUSY pending=9 budget=8 submitted=4")[0], "BUSY")
        self.assertEqual(p("ERR validate bad")[0], "ERR")
        self.assertEqual(p("PROGRESS 1 2")[0], "UNKNOWN")
        self.assertEqual(p("TRIAL 1 x")[0], "UNKNOWN")

    def test_row_keeps_quoted_csv(self):
        line = ('ROW 2 rr/push,"random_regular(n=64,d=4)",push,64,128,8,5,0,'
                '4.5,0.5,0.1,4,4,4.5,5,5,4.5,64.000000,0')
        verb, index, text = measure.parse_stream_line(line)
        self.assertEqual((verb, index), ("ROW", 2))
        row = measure.parse_csv_row(text)
        self.assertEqual(row["graph"], "random_regular(n=64,d=4)")
        self.assertEqual(row["incomplete"], "0")
        self.assertEqual(row["informed_mean"], "64.000000")


class FakeDaemon:
    """A unix socket speaking just enough of the serve protocol for one
    client: every job gets two TRIAL lines, one ROW and END done."""

    ROW = "a,star(leaves=64),push-pull,65,64,2,5,1,2,0,0,2,2,2,2,2,0,65,0"

    def __init__(self, path):
        self.sock_path = path
        self.requests = []
        self.server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.server.bind(path)
        self.server.listen(1)
        self.thread = threading.Thread(target=self.serve, daemon=True)
        self.thread.start()

    def serve(self):
        conn, _ = self.server.accept()
        self.server.close()
        with conn, conn.makefile("rb") as f:
            def line():
                return f.readline().decode().rstrip("\n")
            reply = {"HELLO": "OK rumor_serve v1\n",
                     "STATS": "OK version=1\nQUEUE total=2\n.\n",
                     "RESULTS": ("OK 1 streaming\nTRIAL 0 0 2 0 65 1\n"
                                 "TRIAL 0 1 2 0 65 1\n"
                                 f"ROW 0 {self.ROW}\nEND 1 done\n")}
            while request := line():
                self.requests.append(request)
                verb, _, arg = request.partition(" ")
                if verb == "SUBMIT":
                    self.requests += [line() for _ in range(int(arg))]
                    conn.sendall(b"OK 1 scenarios=1 trials=2\n")
                else:
                    conn.sendall(reply[verb].encode())


class ServeLoad(unittest.TestCase):
    def test_file_client_pipelines_stats_and_stops_after_one_job(self):
        sc = [Scenario("star(leaves=64)", "push-pull", 1, 2)]
        ref = {sc[0].key: {"mean": 2.0, "sd": 0.0, "trials": 100}}
        with tempfile.TemporaryDirectory() as tmp:
            daemon = FakeDaemon(os.path.join(tmp, "s.sock"))
            load = serveload.Load(daemon, [serveload.file_client(sc, 5)], ref)
            jobs = load.run(30)
            daemon.thread.join(5)
        self.assertEqual(daemon.requests,
                         ["HELLO file", "SUBMIT 1", sc[0].line(5), "STATS",
                          "RESULTS 1"])
        self.assertEqual(len(jobs), 1)
        self.assertEqual((jobs[0].errors, jobs[0].trials, jobs[0].state),
                         ([], 2, "done"))
        self.assertEqual(len(load.stats_ms), 1)


class Workloads(unittest.TestCase):
    def test_scalars_are_plain_integers(self):
        for build in workloads.SCENARIOS.values():
            for sc in build(4):
                for value in re.findall(r"=([^,()\s]+)", sc.line(7)):
                    self.assertRegex(value, r"^\d+$", sc.line(7))

    def test_reference_key_drops_shards(self):
        self.assertEqual(workloads.strip_shards("visit-exchange(shards=4)"),
                         "visit-exchange")
        self.assertEqual(workloads.strip_shards("push(loss=0.5,shards=2)"),
                         "push(loss=0.5)")
        self.assertEqual(workloads.strip_shards("push"), "push")

    def test_every_scenario_has_a_reference(self):
        import json
        import os
        with open(os.path.join(os.path.dirname(__file__),
                               "reference.json")) as f:
            ref = json.load(f)
        for build in workloads.SCENARIOS.values():
            for sc in build(4):
                self.assertIn(sc.key, ref)


if __name__ == "__main__":
    unittest.main()
